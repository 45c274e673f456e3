"""Acceptance suite: every exit criterion at its stated tolerance.

Criteria 2-8 are the digests and gates of the `STUDIES` rows of
scripts/run_all.py, which this module runs once and checks with its own
`check`.  `pytest -s tests/test_acceptance.py` prints one PASS/FAIL line
per check and criterion; the module takes 7-9 s on a 2-vCPU machine.
"""

import time

import numpy as np
import pytest
import run_all

from knnrates import (Dataset, PointSet, brute_force_knn, build_index,
                      estimate_level_set, estimate_maxima, hausdorff_distance,
                      knn_query, load_config_file, make_regressor, predict,
                      run_experiment)
from knnrates.cli import cli_main


def report(criterion, ok, detail):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def run_all_out(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run_all")
    run_all.main(["--outdir", str(outdir)])
    return outdir


def test_studies_are_the_canned_configs():
    assert sorted(name for name, *_ in run_all.STUDIES) == \
        sorted(path.name for path in run_all.CONFIG_DIR.glob("*.cfg"))


@pytest.mark.parametrize("study", run_all.STUDIES, ids=lambda s: s[0])
def test_canned_study(run_all_out, study):
    results = run_all.check(study, run_all_out)
    assert all(ok for ok, _ in results), results


def test_holder_gates_fail_a_wrong_k_rule(tmp_path):
    # k = n^0.5 under-smooths and k = n^0.75 over-smooths: both measured
    # slopes lie about 0.08 from -1/3, inside the old [-0.43, -0.23] window.
    gates = {s[0]: s[4] for s in run_all.STUDIES}["holder_rate.cfg"]
    text = (run_all.CONFIG_DIR / "holder_rate.cfg").read_text()
    for exponent in ("0.5", "0.75"):
        path = tmp_path / f"holder_{exponent}.cfg"
        path.write_text(text.replace("k.exponent = 0.6666666666666666",
                                     f"k.exponent = {exponent}"))
        cfg = load_config_file(path)
        records = run_experiment(cfg)
        assert not all(gate(records, cfg)[0] for gate in gates), exponent


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
