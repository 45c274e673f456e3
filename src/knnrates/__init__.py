"""k-NN regression with finite-sample sup-norm bounds, level-set and maxima
estimation, and a seeded Monte Carlo harness verifying the convergence
rates."""

from .bounds import (BoundParams, KCheck, KRangeReport, LevelSetEpsilon,
                     MissingParameterError, holder_bound, k_range_check,
                     knn_set_count_bound, level_set_dh_bound,
                     level_set_epsilon, manifold_radius_bound,
                     maxima_distance_bound, optimal_k, radius_bound,
                     unit_ball_volume, variance_term)
from .experiments import (ConfigError, CoverageResult, DegenerateFitError,
                          ExperimentConfig, ExperimentRecord, KRule, RateFit,
                          build_config, fit_rate, load_config_file,
                          read_records, records_to_csv, run_coverage,
                          run_experiment, run_levelset, run_maxima,
                          run_regression_rate, run_setcount, write_records)
from .neighbors import (NeighborSet, PointSet, SpatialIndex, brute_force_knn,
                        build_index, knn_query, knn_radii)
from .regression import (Dataset, FieldMetadata, Regressor, ScalarField,
                         make_regressor, predict, predict_batch, sup_error)
from .structures import (count_distinct_knn_sets, estimate_level_set,
                         estimate_maxima, hausdorff_distance,
                         hausdorff_distance_bruteforce, true_level_set_grid)
from .synth import (DensitySpec, ManifoldSample, ManifoldSpec, NoiseSpec,
                    embed_manifold, embed_points, halton_probes, make_field,
                    manifold_field, manifold_probe_grid, sample_noise,
                    sample_points, stream_seed, to_intrinsic,
                    truncated_mixture, uniform_box, uniform_grid)

__version__ = "0.1.0"
