"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Criteria 2-8 are seeded Monte Carlo studies driven by the
canned configs under scripts/configs/; the whole module takes 7-9
seconds on a 2-vCPU machine, nearly half of it in the 10-D manifold
study (AC3).
"""

import hashlib
import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from knnrates import (Dataset, PointSet, brute_force_knn,
                      build_index, estimate_level_set, estimate_maxima,
                      fit_rate, hausdorff_distance, knn_query, load_config_file,
                      make_regressor, predict, records_to_csv, run_coverage,
                      run_levelset, run_maxima, run_regression_rate,
                      run_setcount)
from knnrates.cli import cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def study_config(name):
    return load_config_file(CONFIG_DIR / name)


def report(criterion, ok, detail):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


# sha256 of each canned study's CSV, as scripts/run_all.py writes it with
# the config's own seed.  The setcount one was taken before the counter
# shared one distance block between the ks of a trial.
CANNED_CSV_SHA256 = {
    "holder_rate.cfg":
        "f57c2ff451f8c2749d0046a29ea42bcc5212a538121a4b1716dad5deab292dd4",
    "manifold_rate.cfg":
        "c3b692dae12f8f5ed5dddee285eb94fbab0aa5588a5ed6c1e3db03aef0a85f40",
    "variance_scaling.cfg":
        "5eba42bc30e7f1aeb9996a338fdfe524cb048c0d3c89b26ff72d71f2ecaf171d",
    "coverage.cfg":
        "289cf6ce5324a7622fb2b1d689b057b8e2238595a6c72b303651ea1f7c9f006f",
    "levelset_rate.cfg":
        "2696149e9e47b2d8b6b47b48d1ab5d70cdfae3701647fb0895d15a1591c2a872",
    "maxima_rate.cfg":
        "bc1fe1a83829d7c9450ba0120d8766d6f4214c27eb91fc765bfba5466daff7f8",
    "setcount.cfg":
        "96dff85aa78ae4d2ff06b8019a437ffea201b3098a4669ae384df5861bcb59ed",
}


# sha256 of the variance study's records of each k alone: the bytes that
# the one-k configs it replaced, variance_scaling_k64.cfg and _k128.cfg,
# wrote.
VARIANCE_K_CSV_SHA256 = {
    64: "dc7aafba1a152dbab29af0af3902e8c56bbb6270eee074849b716b303f47c768",
    128: "0aeece8bee275e15948016de9ccec9436eeacf5e3bcb2340225f91402c0b7b35",
}


def csv_sha256(records):
    return hashlib.sha256(records_to_csv(records).encode("utf-8")).hexdigest()


def assert_canned_bytes(name, records):
    assert csv_sha256(records) == CANNED_CSV_SHA256[name], name


def test_canned_studies_pinned():
    # A merged, added or renamed config must be both run by run_all.py and
    # pinned above.
    spec = importlib.util.spec_from_file_location(
        "run_all", CONFIG_DIR.parent / "run_all.py")
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    configs = sorted(path.name for path in CONFIG_DIR.glob("*.cfg"))
    assert sorted(name for name, _, _ in run_all.STUDIES) == configs
    assert sorted(CANNED_CSV_SHA256) == configs


def test_ac1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for i in range(1000):
        n = int(rng.integers(1, 2001))
        d = int(rng.integers(1, 11))
        if i % 4 == 0:
            pts = rng.integers(0, 5, size=(n, d)).astype(float)  # exact ties
        else:
            pts = rng.random((n, d))
        if i % 10 == 0 and n >= 2:
            pts[n // 2] = pts[0]  # duplicate point
        ps = PointSet(pts)
        q = pts[0] + rng.normal(0.0, 0.1, d) if i % 3 else rng.random(d)
        k = int(rng.integers(1, n + 1))
        a = knn_query(build_index(ps), q, k)
        b = brute_force_knn(ps, q, k)
        assert a.radius == b.radius
        assert np.array_equal(a.member_indices, b.member_indices)
    elapsed = time.monotonic() - t0
    report("AC1 oracle equivalence",
           elapsed < 60.0,
           f"1000 instances exact, {elapsed:.1f}s < 60s")


def test_ac2_holder_rate():
    records = run_regression_rate(study_config("holder_rate.cfg"))
    slope = fit_rate(records, "sup_error").slope
    report("AC2 sup-error rate", -0.43 <= slope <= -0.23,
           f"slope {slope:.4f} in [-0.43, -0.23], target -1/3")
    assert_canned_bytes("holder_rate.cfg", records)


def test_ac3_manifold_adaptation():
    records = run_regression_rate(study_config("manifold_rate.cfg"))
    slope = fit_rate(records, "sup_error").slope
    report("AC3 manifold adaptation",
           -0.43 <= slope <= -0.23 and slope < -0.15,
           f"slope {slope:.4f} in [-0.43, -0.23] and < -0.15 "
           "(ambient rate would be about -0.083)")
    assert_canned_bytes("manifold_rate.cfg", records)


def test_ac4_variance_scaling():
    records = run_regression_rate(study_config("variance_scaling.cfg"))
    assert_canned_bytes("variance_scaling.cfg", records)
    assert {r.k for r in records} == set(VARIANCE_K_CSV_SHA256)
    med = {}
    for k, digest in VARIANCE_K_CSV_SHA256.items():
        of_k = [r for r in records if r.k == k]
        assert csv_sha256(of_k) == digest, k
        med[k] = float(np.median([r.value for r in of_k]))
    ratio = med[128] / med[64]
    report("AC4 variance-term scaling", 0.6 <= ratio <= 0.82,
           f"doubling k: median ratio {ratio:.4f} in [0.60, 0.82], "
           "theory 0.707")


def test_ac5_coverage():
    res = run_coverage(study_config("coverage.cfg"))
    floor = 0.9 - 3.0 * math.sqrt(0.9 * 0.1 / 200.0)
    rad_floor = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / 200.0)
    ok = res.coverage >= floor and res.radius_coverage >= rad_floor
    report("AC5 bound coverage", ok,
           f"sup coverage {res.coverage:.3f} >= {floor:.3f}, "
           f"radius coverage {res.radius_coverage:.3f} >= {rad_floor:.3f}, "
           f"violations {list(res.sup_violations)} "
           f"{list(res.radius_violations)}")
    assert_canned_bytes("coverage.cfg", res.records)


def test_ac6_level_set_rate():
    cfg = study_config("levelset_rate.cfg")
    records = run_levelset(cfg)
    fit = fit_rate(records, "d_H")
    spacing = 1.0 / cfg.probe_cells  # unit box per-axis step
    min_median = min(m for _, m in fit.medians)
    ok = (-0.48 <= fit.slope <= -0.18) and spacing <= min_median / 2.0
    report("AC6 level-set Hausdorff rate", ok,
           f"slope {fit.slope:.4f} in [-0.48, -0.18], target -1/3; "
           f"grid spacing {spacing:.5f} <= half min median "
           f"{min_median / 2.0:.5f}")
    assert_canned_bytes("levelset_rate.cfg", records)


def test_ac7_maxima_rate():
    records = run_maxima(study_config("maxima_rate.cfg"))
    slope = fit_rate(records, "maxima_dist").slope
    report("AC7 maxima rate", -0.30 <= slope <= -0.10,
           f"slope {slope:.4f} in [-0.30, -0.10], target -0.2")
    assert_canned_bytes("maxima_rate.cfg", records)


def test_ac8_set_count_bound():
    records = run_setcount(study_config("setcount.cfg"))
    violations = [(r.n, r.k, r.seed, r.value, r.bound) for r in records
                  if r.value > r.bound]
    report("AC8 distinct-set count bound", not violations,
           f"{len(records)} (n, k, seed) cases all within 2*n^2; "
           f"violations {violations}")
    assert_canned_bytes("setcount.cfg", records)


def _random_cloud(rng, max_pts=12, dim=2):
    return rng.random((int(rng.integers(1, max_pts + 1)), dim))


def _dyadic_dataset(rng, n, dim):
    x = PointSet(rng.random((n, dim)))
    y = rng.integers(-2 ** 20, 2 ** 20, size=n) / 1024.0
    return Dataset(x, y.astype(float))


def test_ac9_property_suites():
    rng = np.random.default_rng(77)

    # Hausdorff: symmetry, identity, triangle within 4 ulp on 1000 triples.
    for _ in range(1000):
        a, b, c = (_random_cloud(rng) for _ in range(3))
        ab, ba = hausdorff_distance(a, b), hausdorff_distance(b, a)
        assert ab == ba
        bc, ac = hausdorff_distance(b, c), hausdorff_distance(a, c)
        assert ac <= ab + bc + 4.0 * np.spacing(max(ab, bc, ac))
    ident = rng.random((6, 2))
    shuffled = np.vstack([ident[::-1], ident[2]])  # same point set, dup added
    assert hausdorff_distance(ident, shuffled) == 0.0
    assert hausdorff_distance(ident, ident + 0.5) > 0.0

    # Level-set monotonicity in level and margin on 200 random regressors.
    for _ in range(200):
        n = int(rng.integers(4, 40))
        ds = Dataset(PointSet(rng.random((n, 2))), rng.standard_normal(n))
        reg = make_regressor(ds, int(rng.integers(1, n + 1)))
        lam1, lam2 = sorted(rng.standard_normal(2))
        eps1, eps2 = sorted(rng.random(2))
        assert set(estimate_level_set(reg, lam2, eps1)) <= \
            set(estimate_level_set(reg, lam1, eps1))
        assert set(estimate_level_set(reg, lam1, eps1)) <= \
            set(estimate_level_set(reg, lam1, eps2))

    # Argmax invariance under y -> a*y + b (a > 0) on 200 dyadic datasets,
    # and exact affine equivariance of the prediction itself.  Dyadic
    # observations with power-of-two member counts make every float
    # operation exact, so "exact" is meaningful rounding-free arithmetic.
    for _ in range(200):
        ds = _dyadic_dataset(rng, 32, 2)
        k = int(rng.choice([1, 2, 4, 8, 16]))
        a = float(rng.integers(1, 64)) / 16.0
        b = float(rng.integers(-2 ** 10, 2 ** 10)) / 64.0
        reg = make_regressor(ds, k)
        mapped = make_regressor(Dataset(ds.x, a * ds.y + b), k)
        assert estimate_maxima(mapped) == estimate_maxima(reg)
        q = rng.random(2)
        assert knn_query(reg.index, q, k).count == k  # tie-free instance
        assert predict(mapped, q) == a * predict(reg, q) + b

    report("AC9 metric/structure properties", True,
           "Hausdorff metric on 1000 triples; level-set monotonicity x200; "
           "argmax invariance and exact affine equivariance x200")


AC10_CONFIG = """\
experiment.kind = {kind}
seed.master = 42
ladder.n = {ladder}
trial.seeds_per_n = 3
trial.delta = 0.1
k.rule = power
k.exponent = 0.6666666666666666
{extra}probes.cells = 64
density.kind = uniform-box
density.low = 0.0
density.high = 1.0
noise.kind = gaussian
noise.scale = 0.1
field.kind = tent
field.center = 0.5
field.slope = 2.0
field.peak = 0.5
"""


def test_ac10_determinism(tmp_path):
    cases = [
        ("regress", AC10_CONFIG.format(kind="regression", ladder="64, 128",
                                       extra="")),
        ("levelset", AC10_CONFIG.format(kind="levelset", ladder="128, 256",
                                        extra="level.lambda = 0.0\n")),
    ]
    for command, text in cases:
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{command}_{run}.csv"
            code = cli_main([command, "--config", str(cfg), "--seed", "9",
                             "--out", str(out), "--quiet"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
    report("AC10 determinism", True,
           "regress and levelset runs repeated byte-identically")
