"""CLI tests: exit codes, determinism of emitted CSV, and the fit pipeline."""


import pytest

from knnrates import fit_rate, read_records
from knnrates.cli import cli_main

CONFIG = """\
# tiny regression-rate study
experiment.kind = regression
seed.master = 42
ladder.n = 32, 64, 128, 256
trial.seeds_per_n = 2
trial.delta = 0.1
k.rule = power
k.exponent = 0.6667
probes.cells = 64
density.kind = uniform-box
density.low = 0.0
density.high = 1.0
noise.kind = gaussian
noise.scale = 0.1
field.kind = tent
field.center = 0.5
field.slope = 2.0
field.peak = 1.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(CONFIG)
    return path


# (line of CONFIG, its replacement, the key the error must name)
BAD_VALUES = [pytest.param(*case, id=case[2]) for case in [
    # The master seed is an unsigned 64-bit integer.
    ("seed.master = 42", "seed.master = -1", "seed.master"),
    ("probes.cells = 64", "probes.cells = 0", "probes.cells"),
    # A rung whose sample no machine could hold (8 TiB of coordinates).
    ("ladder.n = 32, 64, 128, 256", "ladder.n = 32, 1099511627776",
     "ladder.n"),
    ("density.high = 1.0", "density.high = -1.0", "density.high"),
    ("density.kind = uniform-box",
     "density.kind = truncated-mixture\ndensity.bump_center = 0.5\n"
     "density.bump_sigma = 0.1\ndensity.bump_weight = 1.5",
     "density.bump_weight"),
    ("field.slope = 2.0", "field.slope = -2", "field.slope"),
    ("field.kind = tent\nfield.center = 0.5\nfield.slope = 2.0",
     "field.kind = holder-cusp\nfield.center = 0.5\n"
     "field.c_alpha = 1.0\nfield.alpha = 2", "field.alpha"),
    ("noise.kind = gaussian", "noise.kind = cauchy", "noise.kind"),
    ("noise.scale = 0.1", "noise.scale = nan", "noise.scale"),
    ("k.exponent = 0.6667", "k.exponent = nan", "k.exponent"),
    ("k.exponent = 0.6667", "k.exponent = 0.6667\nk.factor = nan",
     "k.factor"),
    ("k.rule = power", "k.rule = optimal\nk.mode = bogus", "k.mode"),
    # A study whose ks all lie above its largest rung has no trials.
    ("k.rule = power\nk.exponent = 0.6667", "k.values = 300, 40000",
     "k.values"),
    # A center with more coordinates than the density would broadcast
    # against the points and measure some other field.
    ("field.center = 0.5", "field.center = 0.5, 0.5, 0.5", "field.center"),
    ("field.peak = 1.0", "field.peak = 1.0\nlevel.m2 = -1", "level.m2"),
    ("field.kind = tent\nfield.center = 0.5\nfield.slope = 2.0\n"
     "field.peak = 1.0",
     "field.kind = quadratic-peak\nfield.center = 0.5\n"
     "field.curvature = 1.5\nfield.r_m = -0.5", "field.r_m"),
    # A key that the chosen kind does not read is rejected, not dropped.
    ("field.peak = 1.0", "field.peak = 1.0\nfield.curvature = 1.5",
     "field.curvature"),
    ("density.high = 1.0", "density.high = 1.0\ndensity.bump_sigma = 0.1",
     "density.bump_sigma"),
    # The circle brings its own density and field.
    ("probes.cells = 64", "probes.cells = 64\nmanifold.kind = circle\n"
     "manifold.ambient_dim = 4", "density.kind"),
    ("density.kind = uniform-box\ndensity.low = 0.0\ndensity.high = 1.0",
     "manifold.kind = circle\nmanifold.ambient_dim = 4", "field.kind"),
]]


class TestExitCodes:
    def test_unknown_subcommand_usage_on_stderr(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    # CSV is the only output, so there is no --format flag.
    @pytest.mark.parametrize("flags", [["--frob"], ["--format", "csv"]],
                             ids=["--frob", "--format"])
    def test_unknown_flag(self, capsys, config_path, flags):
        assert cli_main(["regress", "--config", str(config_path),
                         *flags]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower() and flags[0] in err

    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 1

    def test_missing_config_names_path(self, capsys):
        assert cli_main(["regress", "--config", "/no/such/file.cfg"]) == 1
        assert "/no/such/file.cfg" in capsys.readouterr().err

    def test_kind_mismatch(self, capsys, config_path):
        assert cli_main(["maxima", "--config", str(config_path)]) == 1
        assert "maxima" in capsys.readouterr().err

    def test_config_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment.kind = regression\n")
        assert cli_main(["regress", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("line, new, key", BAD_VALUES)
    def test_out_of_range_value_exit_1(self, tmp_path, capsys, line, new,
                                       key):
        assert line in CONFIG
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace(line, new))
        assert cli_main(["regress", "--config", str(bad), "--quiet"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["regress", "setcount"])
    def test_non_utf8_config_exit_1(self, tmp_path, capsys, command):
        # Bytes that are not UTF-8 are bad input, not a runtime failure.
        bad = tmp_path / "latin-1.cfg"
        bad.write_bytes(CONFIG.replace("# tiny", "# caf\xe9 tiny")
                        .encode("latin-1"))
        assert cli_main([command, "--config", str(bad), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "runtime failure" not in err

    # k rules whose float k is past the float range; each clips to k = n.
    @pytest.mark.parametrize("rule", [
        "k.rule = power\nk.exponent = 200",
        "k.rule = power\nk.exponent = 0.6667\nk.factor = 1e308",
        "k.rule = optimal\nk.factor = 1e308"],
        ids=["power-exponent", "power-factor", "optimal-factor"])
    def test_k_past_float_range_runs_at_n(self, tmp_path, rule):
        cfg = tmp_path / "huge-k.cfg"
        cfg.write_text(CONFIG.replace("k.rule = power\nk.exponent = 0.6667",
                                      rule))
        out = tmp_path / "huge-k.csv"
        assert cli_main(["regress", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        records = read_records(out)
        assert records and all(r.k == r.n for r in records)

    def test_runtime_failure_exit_2(self, config_path, monkeypatch, capsys):
        import knnrates.cli as climod

        def boom(cfg):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(climod, "run_experiment", boom)
        assert cli_main(["regress", "--config", str(config_path),
                         "--quiet"]) == 2
        assert "disk on fire" in capsys.readouterr().err

    def test_coverage_k_values_above_every_rung_exit_1(self, tmp_path,
                                                       capsys):
        # No rung has a trial, so there is no coverage to divide out: a bad
        # config, not a runtime failure.
        cfg = tmp_path / "high-k.cfg"
        cfg.write_text(CONFIG.replace("experiment.kind = regression",
                                      "experiment.kind = coverage")
                       .replace("k.rule = power\nk.exponent = 0.6667",
                                "k.values = 40000"))
        assert cli_main(["coverage", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "k.values" in err and "runtime failure" not in err

    @pytest.mark.parametrize("command, name", [
        ("regress", "holder_rate"), ("levelset", "levelset_rate"),
        ("coverage", "coverage"), ("maxima", "maxima_rate")])
    def test_rung_of_one_exit_1(self, tmp_path, capsys, monkeypatch,
                                command, name):
        # A field study's bounds need n >= 2: a rung of 1 is bad input,
        # named by its key before any trial runs, not a runtime failure.
        import pathlib
        import re

        import knnrates.cli as climod

        def never(cfg):
            raise AssertionError("ran a study with a rung of 1")

        monkeypatch.setattr(climod, "run_experiment", never)
        canned = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
                  / "configs" / f"{name}.cfg").read_text()
        cfg = tmp_path / "rung-1.cfg"
        cfg.write_text(re.sub(r"(?m)^ladder\.n = .*$",
                              "ladder.n = 1, 512, 1024, 2048", canned))
        assert cli_main([command, "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "ladder.n" in err and "runtime failure" not in err

    @pytest.mark.parametrize("seed, code", [
        ("-1", 1), (str(2 ** 64), 1), (str(2 ** 64 - 1), 0)],
        ids=["-1", "2^64", "2^64-1"])
    def test_seed_flag_range(self, config_path, monkeypatch, capsys, seed,
                             code):
        # --seed is checked as seed.master is, before any trial runs.
        import knnrates.cli as climod

        monkeypatch.setattr(climod, "run_experiment", lambda cfg: [])
        assert cli_main(["regress", "--config", str(config_path), "--seed",
                         seed, "--quiet"]) == code
        if code:
            assert "seed.master" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["regress", "fit"])
    def test_unwritable_out_exit_1(self, config_path, tmp_path, capsys,
                                   monkeypatch, command):
        # An --out that names a directory, or a file whose parent is missing
        # or is a file, is bad usage, named in the error, and found before
        # the study runs or fit reads its records.
        import knnrates.cli as climod

        records = tmp_path / "r.csv"
        assert cli_main(["regress", "--config", str(config_path), "--out",
                         str(records), "--quiet"]) == 0

        def never(*args):
            raise AssertionError("ran before --out was checked")

        monkeypatch.setattr(climod, "run_experiment", never)
        monkeypatch.setattr(climod, "read_records", never)
        args = (["fit", str(records)] if command == "fit" else
                ["regress", "--config", str(config_path)])
        for out in (tmp_path, tmp_path / "missing" / "r.csv",
                    records / "r.csv"):
            assert cli_main([*args, "--out", str(out), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert str(out) in err and "runtime failure" not in err

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0


class TestParserReuse:
    def test_calls_in_one_process_equal_separate_calls(self, tmp_path,
                                                        config_path, capsys):
        # cli_main builds its parser once per process.  A run of calls with
        # different subcommands and flags (a --seed that the next call
        # omits, --quiet or not, usage errors) must give each call's exit
        # code and output as a call with a parser of its own does.
        import knnrates.cli as climod

        setcount = tmp_path / "setcount.cfg"
        setcount.write_text(SETCOUNT_CONFIG)
        calls = [
            ["regress", "--config", str(config_path), "--seed", "7",
             "--quiet"],
            ["regress", "--config", str(config_path), "--quiet"],
            ["regress", "--config", str(config_path), "--frob"],
            ["setcount", "--config", str(setcount), "--quiet"],
            ["setcount", "--seed", "x", "--config", str(setcount)],
            ["maxima", "--config", str(config_path)],
            [],
        ]

        def run(fresh_parser):
            results = []
            for argv in calls:
                if fresh_parser:
                    climod._build_parser.cache_clear()
                code = cli_main(argv)
                out, err = capsys.readouterr()
                results.append((code, out, err))
            return results

        separate = run(fresh_parser=True)
        climod._build_parser.cache_clear()
        together = run(fresh_parser=False)
        assert climod._build_parser.cache_info().misses == 1
        assert together == separate
        assert [code for code, _, _ in together] == [0, 0, 1, 0, 1, 1, 1]
        assert together[0][1] != together[1][1]  # --seed did not leak


class TestDeterminism:
    def test_same_seed_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli_main(["regress", "--config", str(config_path), "--seed",
                         "7", "--out", str(out1), "--quiet"]) == 0
        assert cli_main(["regress", "--config", str(config_path), "--seed",
                         "7", "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_changes_output(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        cli_main(["regress", "--config", str(config_path), "--seed", "7",
                  "--out", str(out1), "--quiet"])
        cli_main(["regress", "--config", str(config_path), "--seed", "8",
                  "--out", str(out2), "--quiet"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_stdout_emission(self, config_path, capsys):
        assert cli_main(["regress", "--config", str(config_path),
                         "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,n,k,seed,quantity")


class TestFitPipeline:
    def test_fit_matches_fit_rate(self, config_path, tmp_path):
        records_csv = tmp_path / "r.csv"
        fit_csv = tmp_path / "fit.csv"
        assert cli_main(["regress", "--config", str(config_path), "--out",
                         str(records_csv), "--quiet"]) == 0
        assert cli_main(["fit", str(records_csv), "--out", str(fit_csv),
                         "--quiet"]) == 0
        records = read_records(records_csv)
        expect = fit_rate(records, "sup_error")
        header, row = fit_csv.read_text().strip().splitlines()
        assert header.startswith("quantity,slope,intercept")
        cols = row.split(",")
        assert cols[0] == "sup_error"
        assert float(cols[1]) == expect.slope
        assert float(cols[2]) == expect.intercept
        assert int(cols[5]) == expect.rungs

    def test_fit_missing_file(self, capsys):
        assert cli_main(["fit", "/no/records.csv"]) == 1

    @pytest.mark.parametrize("text, where", [
        ("a,b\n", "line 1"),
        ("experiment,n,k,seed,quantity,value,bound,valid_k,ms\n"
         "regression,xx,1,0,sup_error,1.0,nan,1,0\n", "line 2"),
        (None, "")], ids=["header", "cell", "directory"])
    def test_fit_malformed_records_exit_1(self, tmp_path, capsys, text,
                                          where):
        path = tmp_path / "r.csv"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert cli_main(["fit", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and where in err

    def test_fit_non_utf8_records_exit_1(self, tmp_path, capsys):
        # Bytes that are not UTF-8 are bad input, named like a bad config.
        path = tmp_path / "latin-1.csv"
        path.write_bytes("experiment,n,k,seed,quantity,value,bound,valid_k,"
                         "ms\nregression,10,1,0,caf\xe9,1.0,nan,1,0\n"
                         .encode("latin-1"))
        assert cli_main(["fit", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "runtime failure" not in err

    def test_fit_degenerate_exit_1(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("experiment,n,k,seed,quantity,value,bound,valid_k,ms\n"
                        "regression,10,1,0,sup_error,1.0,nan,1,0\n")
        assert cli_main(["fit", str(path)]) == 1

    def test_fit_two_ks_at_a_rung_exit_1(self, tmp_path, capsys):
        # A k sweep's records are fitted one k at a time, not pooled.
        path = tmp_path / "r.csv"
        path.write_text(
            "experiment,n,k,seed,quantity,value,bound,valid_k,ms\n" +
            "".join(f"regression,{n},{k},0,sup_error,{1 / n},nan,1,0\n"
                    for n in (32, 64, 128, 256) for k in (4, 32)))
        assert cli_main(["fit", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "rung n=32" in err and "[4, 32]" in err


MANIFOLD_CONFIG = """\
experiment.kind = regression
seed.master = 42
ladder.n = 64, 128
trial.seeds_per_n = 2
k.rule = power
k.exponent = 0.6666666666666666
probes.cells = 64
noise.kind = gaussian
noise.scale = 0.1
manifold.kind = circle
manifold.ambient_dim = 4
manifold.radius = 0.15915494309189535
manifold.rotate = true
"""

LEVELSET_CONFIG = """\
experiment.kind = levelset
seed.master = 42
ladder.n = 128, 256
trial.seeds_per_n = 2
k.rule = optimal
k.mode = levelset_beta
probes.cells = 64
density.kind = uniform-box
density.low = 0.0
density.high = 1.0
noise.kind = gaussian
noise.scale = 0.1
field.kind = tent
field.center = 0.5
field.slope = 2.0
field.peak = 0.5
level.lambda = 0.0
"""

MAXIMA_CONFIG = """\
experiment.kind = maxima
seed.master = 42
ladder.n = 128, 256
trial.seeds_per_n = 2
k.rule = optimal
k.mode = maxima
density.kind = uniform-box
density.low = 0.0
density.high = 1.0
noise.kind = gaussian
noise.scale = 0.05
field.kind = quadratic-peak
field.center = 0.5
field.curvature = 1.0
field.height = 1.0
field.r_m = 0.25
"""

SETCOUNT_CONFIG = """\
experiment.kind = setcount
seed.master = 42
ladder.n = 2, 4, 6
trial.seeds_per_n = 2
k.values = 1, 3
probes.cells = 49
density.kind = uniform-box
density.low = 0.0, 0.0
density.high = 1.0, 1.0
"""


class TestAllSubcommands:
    @pytest.mark.parametrize("command,text,quantity", [
        pytest.param(*case, id=case[0]) for case in [
            ("manifold", MANIFOLD_CONFIG, "sup_error"),
            ("levelset", LEVELSET_CONFIG, "d_H"),
            ("maxima", MAXIMA_CONFIG, "maxima_dist"),
            ("setcount", SETCOUNT_CONFIG, "set_count")]])
    def test_subcommand_emits_records(self, tmp_path, command, text, quantity):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"{command}.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        records = read_records(out)
        assert records and all(r.quantity == quantity for r in records)

    # A setcount study reads no field, so any field.* key is rejected.
    @pytest.mark.parametrize("extra, key", [
        ("field.kind = tent\nfield.center = 0.5, 0.5\nfield.slope = -2\n",
         "field.kind"),
        ("field.slope = -5\n", "field.slope")], ids=["tent", "slope-only"])
    def test_setcount_rejects_field_keys(self, tmp_path, capsys, extra, key):
        cfg = tmp_path / "setcount.cfg"
        cfg.write_text(SETCOUNT_CONFIG + extra)
        assert cli_main(["setcount", "--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err

    def test_summary_counts_each_setcount_trial_once(self, tmp_path,
                                                     monkeypatch, capsys):
        import knnrates.cli as climod
        from knnrates.experiments import ExperimentRecord

        # Two trials of 100 and 250 ms, each written as one record per k.
        records = [ExperimentRecord("setcount", 6, k, s, "set_count", 3.0,
                                    72.0, True, ms)
                   for s, ms in ((0, 100), (1, 250)) for k in (1, 3, 5)]
        monkeypatch.setattr(climod, "run_experiment", lambda cfg: records)
        cfg = tmp_path / "setcount.cfg"
        cfg.write_text(SETCOUNT_CONFIG)
        assert cli_main(["setcount", "--config", str(cfg), "--out",
                         str(tmp_path / "setcount.csv")]) == 0
        assert "setcount: 6 records in ~350 ms" in capsys.readouterr().err

    def test_manifold_subcommand_requires_manifold(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(CONFIG)
        assert cli_main(["manifold", "--config", str(cfg)]) == 1


class TestRunAllScript:
    def test_trimmed_study_list(self, tmp_path, monkeypatch):
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).resolve().parent.parent
                  / "scripts" / "run_all.py")
        spec = importlib.util.spec_from_file_location("run_all", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SETCOUNT_CONFIG)
        monkeypatch.setattr(mod, "CONFIG_DIR", tmp_path)
        monkeypatch.setattr(mod, "STUDIES", [("tiny.cfg", "setcount", None)])
        monkeypatch.setattr("sys.argv",
                            ["run_all.py", "--outdir", str(tmp_path / "out")])
        assert mod.main() == 0
        assert (tmp_path / "out" / "tiny.csv").exists()


class TestScipyOnlyForTrees:
    """A fresh interpreter, since pytest's may already hold scipy: the
    package, a 1-D study and a 2-D setcount study load no scipy module and
    no `concurrent.futures`, and the first D >= 2 index loads scipy and
    answers as the oracle does."""

    SCRIPT = """\
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


import knnrates
from knnrates.cli import cli_main

assert not scipy_modules(), scipy_modules()
assert "concurrent.futures" not in sys.modules
assert cli_main(["levelset", "--config", sys.argv[1], "--out", sys.argv[2],
                 "--quiet"]) == 0
assert not scipy_modules(), scipy_modules()
# The set counter is a full scan in any D: a 2-D study builds no tree.
assert cli_main(["setcount", "--config", sys.argv[3], "--out", sys.argv[4],
                 "--quiet"]) == 0
assert not scipy_modules(), scipy_modules()
# Its six trials run at once on two or more usable CPUs.
assert "concurrent.futures" not in sys.modules

import numpy as np

X = np.random.default_rng(3).integers(0, 6, size=(200, 2)).astype(float)
index = knnrates.build_index(X)
assert "scipy.spatial" in scipy_modules()
for q in np.vstack([X[:20], [[2.5, 2.5], [-1.0, 7.0]]]):
    ns = knnrates.knn_query(index, q, 7)
    oracle = knnrates.brute_force_knn(X, q, 7)
    assert ns.radius == oracle.radius
    assert np.array_equal(ns.member_indices, oracle.member_indices)
"""

    def test_fresh_interpreter(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        import knnrates

        cfg = tmp_path / "levelset.cfg"
        cfg.write_text(CONFIG.replace("experiment.kind = regression",
                                      "experiment.kind = levelset")
                       .replace("ladder.n = 32, 64, 128, 256", "ladder.n = 512")
                       .replace("trial.seeds_per_n = 2", "trial.seeds_per_n = 1")
                       + "level.lambda = 0.5\nlevel.m2 = 0.7\n")
        src = str(pathlib.Path(knnrates.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "levelset.csv"
        setcount_cfg = tmp_path / "setcount.cfg"
        setcount_cfg.write_text(SETCOUNT_CONFIG)
        setcount_out = tmp_path / "setcount.csv"
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(cfg),
                               str(out), str(setcount_cfg),
                               str(setcount_out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 2  # header + one trial
        # header + 3 rungs x 2 seeds x 2 ks, less k = 3 at n = 2
        assert len(setcount_out.read_text().splitlines()) == 11


class TestCoverageCommand:
    def test_coverage_summary_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(CONFIG.replace("experiment.kind = regression",
                                      "experiment.kind = coverage")
                       .replace("ladder.n = 32, 64, 128, 256",
                                "ladder.n = 256"))
        out = tmp_path / "cov.csv"
        assert cli_main(["coverage", "--config", str(cfg), "--out",
                         str(out)]) == 0
        err = capsys.readouterr().err
        assert "coverage=" in err and "radius_coverage=" in err
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2  # header + 2 quantities x 2 seeds

    def test_violations_name_their_k(self, tmp_path, monkeypatch, capsys):
        # With a zero error bound every sup_error record is a violation,
        # named by its (n, k, seed): rung 32 is below k = 40.
        import knnrates.bounds

        monkeypatch.setattr(knnrates.bounds, "holder_bound",
                            lambda *args, **kwargs: 0.0)
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(CONFIG.replace("experiment.kind = regression",
                                      "experiment.kind = coverage")
                       .replace("ladder.n = 32, 64, 128, 256",
                                "ladder.n = 32, 64")
                       .replace("k.rule = power\nk.exponent = 0.6667",
                                "k.values = 3, 40"))
        assert cli_main(["coverage", "--config", str(cfg), "--out",
                         str(tmp_path / "cov.csv")]) == 0
        assert ("sup_violations=[(32, 3, 0), (32, 3, 1), (64, 3, 0), "
                "(64, 40, 0), (64, 3, 1), (64, 40, 1)]"
                in capsys.readouterr().err)

    def test_summary_counts_each_trial_once(self, tmp_path, monkeypatch,
                                            capsys):
        import knnrates.cli as climod
        from knnrates.experiments import CoverageResult, ExperimentRecord

        # Two trials of 300 and 500 ms, each written as a sup_error and a
        # radius_max record.
        records = [ExperimentRecord("coverage", 256, 9, s, q, 0.1, 1.0, True,
                                    ms)
                   for s, ms in ((0, 300), (1, 500))
                   for q in ("sup_error", "radius_max")]
        monkeypatch.setattr(climod, "run_coverage", lambda cfg: CoverageResult(
            1.0, 1.0, (), (), records))
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(CONFIG.replace("experiment.kind = regression",
                                      "experiment.kind = coverage"))
        assert cli_main(["coverage", "--config", str(cfg), "--out",
                         str(tmp_path / "cov.csv")]) == 0
        assert "coverage: 4 records in ~800 ms" in capsys.readouterr().err

