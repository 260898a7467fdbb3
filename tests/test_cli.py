"""Config validation, command drivers, determinism, exit-status contract."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from beckner_lab import (ConfigError, OptimizerOptions,
                         build_random_transposition, potential_from_config)
from beckner_lab.cli import (_CSV_BLOCK_ROWS, _write_csv, main,
                             parse_model_block, validate_config)
from beckner_lab.constants import _estimate


def _fv_report_text(n_cells, alpha):
    """fv_report JSON of a standalone run on the command's default model."""
    from beckner_lab import ModelSpec, run_fv_experiment
    spec = ModelSpec("fokker_planck_fv",
                     {"potential": {"kind": "quadratic", "coeff": 2.0},
                      "n_cells": n_cells, "lambda_conv": 4.0})
    exp, = run_fv_experiment(spec, [alpha], seed=0)
    checks = exp.checks.to_dict()
    return json.dumps(checks, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def fv_runs(monkeypatch):
    """n_cells of every build_fokker_planck_fv call, in call order, and
    the count of eigendecompositions."""
    from beckner_lab import models
    calls = {"builds": [], "eigh": 0}
    build, eigh = models.build_fokker_planck_fv, np.linalg.eigh

    def counted_build(V, n_cells, lambda_conv):
        calls["builds"].append(n_cells)
        return build(V, n_cells, lambda_conv)

    def counted_eigh(*args, **kw):
        calls["eigh"] += 1
        return eigh(*args, **kw)

    monkeypatch.setattr(models, "build_fokker_planck_fv", counted_build)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return calls


class TestValidateConfig:
    def test_empty_file(self):
        with pytest.raises(ConfigError, match="missing command"):
            validate_config("")

    def test_missing_command_key(self):
        with pytest.raises(ConfigError, match="missing command"):
            validate_config("{}")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            validate_config("{not json")

    def test_alpha_range(self):
        with pytest.raises(ConfigError, match=r"alpha must lie in \(1,2\]"):
            validate_config(json.dumps({"command": "decay", "alpha": 2.5}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(json.dumps({"command": "decay", "bogus": 1}))

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            validate_config(json.dumps({"command": "simulate"}))

    def test_zero_range_block_normalizes(self):
        cfg = validate_config(json.dumps({
            "command": "verify-bochner",
            "model": {"model": "zero_range", "L": 3, "N": 3,
                      "rates": {"kind": "linear", "c": 1.0}},
            "alpha": 1.5, "seed": 3}))
        assert cfg.model.kind == "zero_range"
        assert cfg.model.params["L"] == 3
        assert cfg.model.params["c_x"].shape == (3, 4)
        assert cfg.alphas == [1.5]
        assert cfg.seed == 3

    def test_model_block_strictness(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_model_block({"model": "random_transposition", "n": 4,
                               "extra": True})

    def test_grid_parsing(self):
        cfg = validate_config(json.dumps(
            {"command": "theta-surface", "grid": "0:10:0.25"}))
        assert cfg.grid == (0.0, 10.0, 0.25)
        # the largest square grid within the node cap: 1000 values per axis
        cfg = validate_config(json.dumps(
            {"command": "theta-surface", "grid": "0:999.4:1"}))
        assert cfg.grid == (0.0, 999.4, 1.0)
        with pytest.raises(ConfigError):
            validate_config(json.dumps(
                {"command": "theta-surface", "grid": "10:0:1"}))

    @pytest.mark.parametrize("grid,match", [("0:inf:1", "finite"),
                                            ("0:10:1e-300", "nodes"),
                                            ("0:999.5:1", "nodes")])
    def test_grid_limits(self, grid, match, tmp_path, capsys):
        assert main(["theta-surface", "--alpha", "2.0", "--grid", grid,
                     "--out", str(tmp_path)]) == 2
        assert match in capsys.readouterr().err
        with pytest.raises(ConfigError, match=match):
            validate_config(json.dumps(
                {"command": "theta-surface", "grid": grid}))


class TestCommands:
    def test_decay_verdict_and_exit(self, tmp_path, capsys):
        status = main(["decay", "--model", "random_transposition", "--n", "4",
                       "--alpha", "1.5", "--seed", "7",
                       "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "rate >= 0.666667: PASS" in out
        csv = (tmp_path / "trajectory_alpha1_5.csv").read_text()
        assert csv.splitlines()[0] == "t,entropy,dirichlet,inst_rate"
        assert (tmp_path / "effective_config.json").exists()

    def test_decay_determinism(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            main(["decay", "--model", "random_transposition", "--n", "3",
                  "--alpha", "1.5", "--seed", "11", "--out", str(d)])
            outs.append((d / "trajectory_alpha1_5.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_decay_at_a_tiny_horizon_fails_cleanly(self, tmp_path):
        # at t_end = 1e-200 the entropy does not move: the fit reads a
        # zero rate and the verdict is an ordinary FAIL.  A subprocess
        # sees what LAPACK itself prints on stdout.
        import beckner_lab
        src = os.path.dirname(os.path.dirname(beckner_lab.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "beckner_lab.cli", "decay", "--model",
             "zero_range", "--L", "3", "--N", "3", "--t-end", "1e-200",
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert done.returncode == 1
        for stream in (done.stdout, done.stderr):
            assert "Traceback" not in stream and "DLASCL" not in stream
        assert "FAIL (fitted -0)" in done.stdout

    def test_theta_surface_figure_grid(self, tmp_path):
        status = main(["theta-surface", "--alpha", "1.8", "--grid", "0:3:0.5",
                       "--out", str(tmp_path)])
        assert status == 0
        lines = (tmp_path / "theta_surface_alpha1_8.csv").read_text().splitlines()
        assert lines[0] == "A,B,theta,lower_bound,upper_bound"
        assert len(lines) == 1 + 7 * 7

    def test_theta_surface_at_a_large_scale_passes(self, tmp_path):
        # Theta(s, s) = 2s is the upper bound A + B itself at s = 1e12
        status = main(["theta-surface", "--alpha", "1.5", "--grid",
                       "0:4e12:1e12", "--out", str(tmp_path)])
        assert status == 0

    def test_theta_surface_bounds_check_at_a_small_scale(self, tmp_path,
                                                         monkeypatch):
        # a Theta of 0 lies below every positive floor (alpha-1)(A+B),
        # however small the grid scale
        from beckner_lab import cli
        surface = cli.theta_surface

        def zero_theta(*args):
            rows = surface(*args)
            rows[:, 2] = 0.0
            return rows

        monkeypatch.setattr(cli, "theta_surface", zero_theta)
        assert main(["theta-surface", "--alpha", "1.5", "--grid",
                     "0:4e-14:1e-14", "--out", str(tmp_path)]) == 1

    def test_theta_surface_scales_with_the_grid(self, tmp_path):
        # Theta is 1-homogeneous: the 1e-14 grid is the unit grid scaled
        tables = []
        for grid in ("0:4e-14:1e-14", "0:4:1"):
            out = tmp_path / grid.replace(":", "_")
            assert main(["theta-surface", "--alpha", "1.95", "--grid", grid,
                         "--out", str(out)]) == 0
            tables.append(np.loadtxt(out / "theta_surface_alpha1_95.csv",
                                     delimiter=",", skiprows=1))
        small, unit = tables
        assert small.shape == unit.shape == (25, 5)
        assert np.allclose(small / 1e-14, unit, rtol=1e-14, atol=0.0)

    def test_verify_bochner_report(self, tmp_path, capsys):
        status = main(["verify-bochner", "--model", "zero_range",
                       "--L", "3", "--N", "3", "--alpha", "1.5",
                       "--out", str(tmp_path)])
        assert status == 0
        rep = json.loads((tmp_path / "bochner_report.json").read_text())
        assert rep["passed"]
        for check in rep["checks"]:
            assert check["max_residual"] <= max(check["tolerance"], 1e-9)

    def test_verify_bochner_reports_every_alpha(self, tmp_path):
        def checks(alphas, out):
            assert main(["verify-bochner", "--model", "zero_range", "--L",
                         "3", "--N", "3", "--seed", "7", "--alpha", *alphas,
                         "--out", str(out)]) == 0
            doc = json.loads((out / "bochner_report.json").read_text())
            return [(c.pop("name"), c) for c in doc["checks"]]

        both = checks(["1.1", "2.0"], tmp_path / "both")
        structural = ["symmetry", "adjointness", "commutation"]
        per_alpha = ["summation_by_parts_identity", "second_gradient_identity",
                     "curvature_inequality"]
        assert [n for n, _ in both] == structural + [
            f"{n}[alpha={a}]" for a in ("1.1", "2.0") for n in per_alpha]
        # each alpha's checks read what a one-alpha run reports
        for k, a in enumerate(("1.1", "2.0")):
            one = checks([a], tmp_path / a)
            assert [n for n, _ in one] == structural + per_alpha
            assert [c for _, c in one] == [c for _, c in both[:3]] + [
                c for _, c in both[3 + 3 * k:6 + 3 * k]]

    def test_verify_bochner_bytes_do_not_depend_on_row_chunks(
            self, tmp_path, monkeypatch):
        from beckner_lab import bochner
        argv = ["verify-bochner", "--model", "random_transposition", "--n",
                "4", "--seed", "12345", "--alpha", "1.1", "1.5"]
        assert main(argv + ["--out", str(tmp_path / "stack")]) == 0
        monkeypatch.setattr(bochner, "STACK_ELEMENTS", 1)   # one row a chunk
        assert main(argv + ["--out", str(tmp_path / "rows")]) == 0
        report = "bochner_report.json"
        assert (tmp_path / "stack" / report).read_bytes() == (
            tmp_path / "rows" / report).read_bytes()

    def test_verify_lemmas(self, tmp_path):
        status = main(["verify-lemmas", "--alpha", "1.5", "--samples", "2000",
                       "--out", str(tmp_path)])
        assert status == 0
        rep = json.loads((tmp_path / "lemmas_report.json").read_text())
        assert rep["alpha=1.5"]["identities"]["passed"]

    def test_verify_lemmas_readme_alphas_at_seed_785348330(self, tmp_path):
        # a seed whose difference noise at alpha = 1.1 exceeds 1e-6
        status = main(["verify-lemmas", "--alpha", "1.1", "1.5", "1.9",
                       "--samples", "10000", "--seed", "785348330",
                       "--out", str(tmp_path)])
        assert status == 0

    def test_constants_csv_header(self, tmp_path):
        status = main(["constants", "--model", "random_transposition",
                       "--n", "3", "--alpha", "1.5", "2.0",
                       "--starts", "8", "--out", str(tmp_path)])
        assert status == 0
        lines = (tmp_path / "constants.csv").read_text().splitlines()
        assert lines[0] == "alpha,paper_bound,beckner_hat,two_lambda_P,ordering_pass"
        assert len(lines) == 3

    def test_constants_report_records_solver_health(self, tmp_path):
        status = main(["constants", "--model", "random_transposition",
                       "--n", "3", "--alpha", "1.5", "2.0", "--starts", "8",
                       "--seed", "5", "--out", str(tmp_path)])
        assert status == 0
        report = json.loads((tmp_path / "constants_report.json").read_text())
        entries = report["convergence"]
        chain = build_random_transposition(3)
        opts = OptimizerOptions(starts=8, seed=5)
        alone = [_estimate(chain, [spec], opts)[0][0]
                 for spec in (("beckner", 1.5), ("beckner", 2.0),
                              ("mlsi", None), ("lsi", None))]
        assert [(e["name"], e["alpha"]) for e in entries] == [
            ("beckner", 1.5), ("beckner", 2.0), ("mlsi", None), ("lsi", None)]
        for entry, est in zip(entries, alone):
            conv = entry["convergence"]
            assert sum(conv["status_counts"].values()) == conv["starts"] == 8
            assert conv["rounds"] == est.convergence["rounds"]
            assert conv["evaluations"] == est.convergence["evaluations"]

    @pytest.mark.parametrize("argv", [
        ["theta-surface", "--alpha", "1.5", "--grid", "0:2:0.5"],
        ["verify-lemmas", "--alpha", "1.5", "--samples", "200"],
        ["verify-bochner", "--model", "random_transposition", "--n", "3"],
        ["decay", "--model", "random_transposition", "--n", "3"],
        ["constants", "--model", "bernoulli_laplace", "--L", "5", "--N", "2",
         "--alpha", "1.5"],
        ["export-chain", "--model", "birth_death", "--K", "4"],
        ["fokker-planck", "--model", "fokker_planck_fv", "--coeff", "2.0",
         "--cells", "8", "16", "--alpha", "2.0"],
    ], ids=lambda argv: argv[0])
    def test_commands_leave_scipy_unimported(self, argv, tmp_path):
        # every command runs on numpy alone; importing scipy would double
        # the start-up time of each invocation
        import beckner_lab
        src = os.path.dirname(os.path.dirname(beckner_lab.__file__))
        code = ("import sys; from beckner_lab.cli import main; "
                "status = main(sys.argv[1:]); "
                "print(status, any(m.split('.')[0] == 'scipy' "
                "for m in sys.modules))")
        done = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # the Gauss-Legendre rule of the finite-volume model imports
        # numpy.polynomial on first use, not on import of the CLI
        import beckner_lab
        src = os.path.dirname(os.path.dirname(beckner_lab.__file__))
        code = ("import sys, beckner_lab.cli; "
                "print(any(m == 'numpy.polynomial' or "
                "m.startswith('numpy.polynomial.') for m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False"

    def test_fokker_planck_refinement(self, tmp_path):
        status = main(["fokker-planck", "--model", "fokker_planck_fv",
                       "--coeff", "2.0", "--cells", "8", "16",
                       "--alpha", "2.0", "--out", str(tmp_path)])
        assert status == 0
        lines = (tmp_path / "refinement_alpha2.csv").read_text().splitlines()
        assert lines[0] == "h,lambda_h,fitted_rate,bound_2alpha_lambda_h,pass"
        assert len(lines) == 3

    def test_fokker_planck_readme_example(self, tmp_path, capsys):
        status = main(["fokker-planck", "--model", "fokker_planck_fv",
                       "--coeff", "2.0", "--cells", "8", "16", "32", "64",
                       "--alpha", "1.5", "2.0", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert status == 0, out
        for tag in ("1_5", "2"):
            rep = json.loads(
                (tmp_path / f"fv_report_alpha{tag}.json").read_text())
            assert rep["passed"]

    def test_fokker_planck_reuses_the_study_experiment(self, tmp_path,
                                                        fv_runs):
        # the model's n_cells (32 by default) is one of --cells, so the
        # report comes from the study: each of the 4 meshes is built and
        # decomposed once for both alphas, and no other mesh is run
        status = main(["fokker-planck", "--model", "fokker_planck_fv",
                       "--coeff", "2.0", "--cells", "8", "16", "32", "64",
                       "--alpha", "1.5", "2.0", "--out", str(tmp_path)])
        assert status == 0
        assert fv_runs == {"builds": [8, 16, 32, 64], "eigh": 4}
        for tag, alpha in (("1_5", 1.5), ("2", 2.0)):
            assert (tmp_path / f"fv_report_alpha{tag}.json").read_text() == \
                _fv_report_text(32, alpha)

    def test_fokker_planck_model_mesh_outside_the_study(self, tmp_path,
                                                        fv_runs):
        status = main(["fokker-planck", "--model", "fokker_planck_fv",
                       "--coeff", "2.0", "--n-cells", "24", "--cells", "8",
                       "16", "--alpha", "1.5", "2.0", "--out", str(tmp_path)])
        assert status == 0
        assert fv_runs == {"builds": [8, 16, 24], "eigh": 3}
        for tag, alpha in (("1_5", 1.5), ("2", 2.0)):
            assert (tmp_path / f"fv_report_alpha{tag}.json").read_text() == \
                _fv_report_text(24, alpha)

    def test_repeated_main_calls_share_no_parsed_state(self, tmp_path,
                                                       monkeypatch, capsys):
        # the parser is built once per process; each run must write what
        # a run with a freshly built parser writes
        from beckner_lab.cli import _build_parser
        runs = [["decay", "--model", "random_transposition", "--n", "3",
                 "--alpha", "1.1", "2.0"],
                ["decay", "--model", "random_transposition", "--n", "3"],
                ["fokker-planck", "--model", "fokker_planck_fv", "--coeff",
                 "2.0", "--cells", "8", "16"]]

        def outputs(base, fresh):
            base.mkdir()
            monkeypatch.chdir(base)
            got = []
            for k, argv in enumerate(runs):
                if fresh:
                    _build_parser.cache_clear()
                status = main(argv + ["--out", f"run{k}"])
                files = {p.name: p.read_bytes()
                         for p in sorted((base / f"run{k}").iterdir())}
                got.append((status, capsys.readouterr(), files))
            return got

        cached = outputs(tmp_path / "cached", fresh=False)
        fresh = outputs(tmp_path / "fresh", fresh=True)
        assert cached == fresh
        assert sorted(cached[0][2]) == ["effective_config.json",
                                        "trajectory_alpha1_1.csv",
                                        "trajectory_alpha2.csv"]
        assert sorted(cached[1][2]) == ["effective_config.json",
                                        "trajectory_alpha1_5.csv"]

    def test_export_chain(self, tmp_path):
        status = main(["export-chain", "--model", "bernoulli_laplace",
                       "--L", "4", "--N", "2", "--out", str(tmp_path)])
        assert status == 0
        doc = json.loads((tmp_path / "chain.json").read_text())
        assert set(doc) == {"states", "pi", "moves", "rates", "meta"}
        assert len(doc["states"]) == 6

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        status = main(["decay", "--config", str(bad), "--out", str(tmp_path)])
        assert status == 2

    @pytest.mark.parametrize("doc", [
        {"command": "decay", "model": {"model": "zero_range", "L": 3}},
        {"command": "decay",
         "model": {"model": "random_transposition", "n": "x"}},
        {"command": "fokker-planck",
         "model": {"model": "fokker_planck_fv", "n_cells": 8, "lambda": 4.0,
                   "potential": {"kind": "quadratic"}}},
        {"command": "decay", "seed": "x"},
        {"command": "decay", "dump_densities": "yes"},
    ])
    def test_missing_or_ill_typed_value_exit_code(self, tmp_path, capsys,
                                                  doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status = main([doc["command"], "--config", str(bad),
                       "--out", str(tmp_path)])
        assert status == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        argv = ["decay", "--model", "random_transposition", "--n", "3"]
        assert main(argv + ["--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay",
            "model": {"model": "random_transposition", "n": 3}, "seed": -1}))
        assert main(["decay", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"

    @pytest.mark.parametrize("argv", [
        ["decay", "--model", "fokker_planck_fv", "--n-cells", "0"],
        ["fokker-planck", "--model", "fokker_planck_fv", "--n-cells", "0",
         "--cells", "8", "16"],
        ["fokker-planck", "--model", "fokker_planck_fv", "--cells", "0", "8"],
    ])
    def test_too_few_cells_exit_code(self, tmp_path, capsys, argv):
        # every mesh is built before the first output is written
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: need at least 3 cells\n"
        assert [p.name for p in tmp_path.iterdir()] == \
            ["effective_config.json"]

    @pytest.mark.parametrize("command, output", [
        ("decay", "trajectory_alpha1_5.csv"), ("constants", "constants.csv")])
    def test_convexity_hypothesis_fails_before_any_output(
            self, tmp_path, capsys, command, output):
        # V = 2 x^2 has V'' = 4 < 10 = lambda
        argv = [command, "--model", "fokker_planck_fv", "--coeff", "2.0",
                "--n-cells", "16", "--lambda-conv", "10.0"]
        if command == "constants":
            argv += ["--starts", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "error: V'' >= 10.0 fails: min sampled V'' = 4\n"
        assert not (tmp_path / output).exists()

    def test_one_state_exclusion_exits(self, tmp_path, capsys):
        # N = L leaves one configuration: no decay to fit, nothing to check
        argv = ["decay", "--model", "bernoulli_laplace", "--L", "2", "--N",
                "2"]
        assert main(argv + ["--out", str(tmp_path / "flags")]) == 1
        assert capsys.readouterr().err == "error: need 0 < N < L\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay", "model": {"model": "bernoulli_laplace",
                                          "L": 2, "N": 2, "lambda": 1.0}}))
        assert main(["decay", "--config", str(cfg),
                     "--out", str(tmp_path / "doc")]) == 1
        assert capsys.readouterr().err == "error: need 0 < N < L\n"
        for out in ("flags", "doc"):
            assert not (tmp_path / out / "trajectory_alpha1_5.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_rate_parameters_are_named(self, tmp_path, capsys,
                                                 bad):
        # each was refused under another condition's name: a nonzero rate
        # at occupancy 0, or a non-finite invariant measure
        assert main(["decay", "--model", "zero_range", "--L", "3", "--N", "3",
                     "--c", bad, "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err == (
            "config error: linear rate coefficient c must be finite and > 0\n")
        assert not (tmp_path / "c").exists()
        lam = "error: intensities lambda_x must be finite\n"
        assert main(["decay", "--model", "bernoulli_laplace", "--L", "5",
                     "--N", "2", "--lambda-x", bad,
                     "--out", str(tmp_path / "lam")]) == 1
        assert capsys.readouterr().err == lam
        cfg = tmp_path / "run.json"
        for model, want in (
                ({"model": "bernoulli_laplace", "L": 5, "N": 2,
                  "lambda": [1.0, float(bad), 1.0, 1.0, 1.0]}, lam),
                ({"model": "zero_range", "L": 3, "N": 3,
                  "rates": {"kind": "table",
                            "values": [0.0, 1.0, float(bad), 3.0]}},
                 "error: site rates c_x must be finite\n")):
            cfg.write_text(json.dumps({"command": "decay", "model": model}))
            assert main(["decay", "--config", str(cfg),
                         "--out", str(tmp_path / "doc")]) == 1
            assert capsys.readouterr().err == want

    @pytest.mark.parametrize("command", ["verify-bochner", "decay",
                                         "constants", "export-chain"])
    def test_one_level_ladder_exits(self, tmp_path, capsys, command):
        # K = 0 leaves one level, on which every check passes vacuously;
        # K = -1 leaves none
        for K in ("0", "-1"):
            out = tmp_path / f"K{K}"
            assert main([command, "--model", "birth_death", "--K", K,
                         "--out", str(out)]) == 1
            assert capsys.readouterr() == ("", "error: need at least two "
                                               "levels\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": command,
            "model": {"model": "birth_death", "a": [0.0], "b": [0.0]}}))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "doc")]) == 1
        assert capsys.readouterr() == ("", "error: need at least two levels\n")
        for out in ("K0", "K-1", "doc"):
            assert sorted(os.listdir(tmp_path / out)) == \
                ["effective_config.json"]

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_nonfinite_lambda_exit_code(self, tmp_path, capsys, lam):
        assert main(["fokker-planck", "--model", "fokker_planck_fv",
                     "--lambda-conv", lam, "--cells", "8", "16",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "error: convexity bound lambda must be finite and > 0\n"

    def test_negative_tol_flag_exit_code(self, tmp_path, capsys):
        status = main(["decay", "--model", "random_transposition", "--n", "3",
                       "--tol", "-1", "--out", str(tmp_path)])
        assert status == 2
        assert "tol must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-lemmas", "--samples", "200"],
        ["verify-bochner", "--model", "random_transposition", "--n", "3"],
        ["decay", "--model", "random_transposition", "--n", "3"],
        ["constants", "--model", "random_transposition", "--n", "3",
         "--starts", "2"],
    ], ids=lambda argv: argv[0])
    def test_infinite_tol_flag_exit_code(self, tmp_path, capsys, argv):
        # an infinite tolerance would pass every check it gates
        status = main(argv + ["--tol", "inf", "--out", str(tmp_path)])
        assert status == 2
        assert "tol must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "effective_config.json").exists()

    @pytest.mark.parametrize("doc", [
        {"command": "decay", "cells": [8, 16]},
        {"command": "decay", "grid": "0:2:0.5"},
        {"command": "decay", "starts": 4},
        {"command": "theta-surface",
         "model": {"model": "random_transposition", "n": 3}},
        {"command": "theta-surface", "dump_densities": True},
        {"command": "theta-surface", "tol": 1e-8},
        ["fokker-planck", "--model", "fokker_planck_fv", "--cells", "8",
         "16", "--tol", "1e-300"],
        ["export-chain", "--model", "birth_death", "--K", "4", "--tol", "5"],
    ], ids=["decay-cells", "decay-grid", "decay-starts", "surface-model",
            "surface-dump", "surface-tol", "fokker-planck-tol",
            "export-chain-tol"])
    def test_a_key_of_another_command_exit_code(self, tmp_path, capsys, doc):
        # a command takes only the keys it reads, and refuses the others
        # before it writes anything
        if isinstance(doc, dict):
            if doc["command"] == "decay":
                doc["model"] = {"model": "random_transposition", "n": 3}
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            argv = [doc["command"], "--config", str(bad)]
        else:
            argv = doc
        out = tmp_path / "out"
        try:
            status = main(argv + ["--out", str(out)])
        except SystemExit as exc:           # argparse exits by itself
            status = exc.code
        assert status == 2
        err = capsys.readouterr().err
        assert ("unknown key" in err if isinstance(doc, dict)
                else "unrecognized arguments: --tol" in err), err
        assert not out.exists()

    def test_starts_over_the_stack_cap_fail_before_any_draw(
            self, tmp_path, capsys, monkeypatch):
        from beckner_lab import constants
        argv = ["constants", "--model", "random_transposition", "--n", "3",
                "--alpha", "1.5"]
        # RT(3): 6 states and 4 blocks (1.5, mlsi, its alpha -> 1 check,
        # lsi); a row is about 3.5 kB, so 2 starts (8 rows) fit under the
        # lowered cap and 64 starts (256 rows) do not
        monkeypatch.setattr(constants, "STACK_MAX_BYTES", 10 ** 5,
                            raising=False)
        assert main(argv + ["--starts", "2", "--out",
                            str(tmp_path / "small")]) == 0

        def no_draw(*args):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(constants, "_start_fields", no_draw)
        out = tmp_path / "large"
        assert main(argv + ["--starts", "64", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: 64 starts need about 1 MiB of descent stack")
        assert not (out / "constants.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["constants", "--model", "random_transposition", "--n", "3",
         "--starts", "0"],
        ["constants", "--model", "random_transposition", "--n", "3",
         "--starts", "-1"],
        ["verify-lemmas", "--samples", "0"],
    ])
    def test_nonpositive_count_flag_exit_code(self, tmp_path, capsys, argv):
        status = main(argv + ["--out", str(tmp_path)])
        assert status == 2
        assert f"{argv[-2][2:]} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n_points", ["-5", "0", "2"])
    def test_too_few_points_flag_exit_code(self, tmp_path, capsys, n_points):
        status = main(["decay", "--model", "random_transposition", "--n", "3",
                       "--n-points", n_points, "--out", str(tmp_path)])
        assert status == 2
        assert "n_points must be >= 3" in capsys.readouterr().err
        assert not list(tmp_path.glob("trajectory_*.csv"))

    @pytest.mark.parametrize("n_points", [-5, 0, 2])
    def test_too_few_points_config_exit_code(self, tmp_path, capsys,
                                             n_points):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay",
            "model": {"model": "random_transposition", "n": 3},
            "n_points": n_points}))
        status = main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert status == 2
        assert "n_points must be >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.json", "dir", "latin1.json"])
    def test_unreadable_config_file_exit_code(self, tmp_path, capsys, name):
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.json").write_bytes(b'{"command": "d\xe9cay"}')
        out = tmp_path / "out"
        status = main(["decay", "--config", str(tmp_path / name),
                       "--out", str(out)])
        assert status == 2
        assert capsys.readouterr().err.startswith("config error: cannot read")
        assert not out.exists()

    @pytest.mark.parametrize("t_end", [-1.0, 0.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_t_end_exit_code(self, tmp_path, capsys,
                                                     t_end):
        out = tmp_path / "out"
        argv = ["decay", "--model", "random_transposition", "--n", "3"]
        assert main(argv + ["--t-end", str(t_end), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: t_end must be finite and > 0\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({      # NaN and Infinity as JSON spells them
            "command": "decay",
            "model": {"model": "random_transposition", "n": 3},
            "t_end": t_end}))
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: t_end must be finite and > 0\n"
        assert not out.exists()

    @staticmethod
    def _config_error_writes_nothing(tmp_path, capsys, argv, doc, message):
        """Exit 2 with ``message`` from the flags and from the config
        document, with nothing written."""
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main([argv[0], "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,doc,message", [
        (["decay", "--alpha", "1.5"],
         {"command": "decay", "alpha": [1.5]},
         "command 'decay' requires a model block"),
        (["fokker-planck", "--model", "random_transposition", "--n", "3"],
         {"command": "fokker-planck",
          "model": {"model": "random_transposition", "n": 3}},
         "fokker-planck command needs a fokker_planck_fv model"),
    ], ids=["no-model", "fokker-planck-kind"])
    def test_model_requirement_exits_before_writing(self, tmp_path, capsys,
                                                    argv, doc, message):
        self._config_error_writes_nothing(tmp_path, capsys, argv, doc, message)

    def test_verify_lemmas_alpha_two_exits_before_writing(self, tmp_path,
                                                          capsys):
        self._config_error_writes_nothing(
            tmp_path, capsys,
            ["verify-lemmas", "--alpha", "1.5", "2.0", "--samples", "300"],
            {"command": "verify-lemmas", "alpha": [1.5, 2.0], "samples": 300},
            "verify-lemmas needs alpha in (1,2)")

    def test_unordered_cells_exit_before_writing(self, tmp_path, capsys):
        self._config_error_writes_nothing(
            tmp_path, capsys,
            ["fokker-planck", "--model", "fokker_planck_fv", "--cells", "16",
             "8"],
            {"command": "fokker-planck", "cells": [16, 8],
             "model": {"model": "fokker_planck_fv", "n_cells": 32,
                       "lambda": 4.0,
                       "potential": {"kind": "quadratic", "coeff": 2.0}}},
            "cells must be strictly increasing")

    @pytest.mark.parametrize("command,model", [
        ("decay", {"model": "random_transposition", "n": 3}),
        ("constants", {"model": "random_transposition", "n": 3}),
        ("fokker-planck", {"model": "fokker_planck_fv", "n_cells": 16,
                           "lambda": 4.0,
                           "potential": {"kind": "quadratic", "coeff": 2.0}}),
        ("theta-surface", None),
    ], ids=["decay", "constants", "fokker-planck", "theta-surface"])
    def test_empty_alpha_list_exits_before_writing(self, tmp_path, capsys,
                                                   command, model):
        # only a config document can give an empty list: --alpha needs a
        # value
        doc = {"command": command, "alpha": []}
        if model is not None:
            doc["model"] = model
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: alpha must list at least one value\n"
        assert not out.exists()

    def test_empty_cells_list_exits_before_writing(self, tmp_path, capsys):
        # a refinement study over no mesh would pass vacuously; only a
        # config document can give an empty list
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "fokker-planck", "alpha": [1.5], "cells": [],
            "model": {"model": "fokker_planck_fv", "n_cells": 16,
                      "lambda": 4.0,
                      "potential": {"kind": "quadratic", "coeff": 2.0}}}))
        out = tmp_path / "out"
        assert main(["fokker-planck", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: cells must list at least one mesh\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["theta-surface"],
        ["verify-lemmas", "--samples", "300"],
        ["verify-bochner", "--model", "random_transposition", "--n", "3"],
        ["decay", "--model", "random_transposition", "--n", "3"],
        ["constants", "--model", "random_transposition", "--n", "3"],
        ["export-chain", "--model", "random_transposition", "--n", "3"],
    ], ids=lambda argv: argv[0])
    def test_config_file_defaults_match_the_flags(self, tmp_path, capsys,
                                                  argv):
        # a document holding only what the flags give runs the flags'
        # defaults for everything else
        flags, doc = tmp_path / "flags", tmp_path / "doc"
        status = main(argv + ["--out", str(flags)])
        out = capsys.readouterr().out.replace(str(flags), str(doc))
        given = {"command": argv[0]}
        if "--samples" in argv:
            given["samples"] = 300
        if "--model" in argv:
            given["model"] = {"model": "random_transposition", "n": 3}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(given))
        assert main([argv[0], "--config", str(cfg),
                     "--out", str(doc)]) == status
        assert capsys.readouterr().out == out
        names = sorted(p.name for p in flags.iterdir())
        assert sorted(p.name for p in doc.iterdir()) == names
        for name in names:
            if name != "effective_config.json":
                assert (doc / name).read_bytes() == \
                    (flags / name).read_bytes(), name

    def test_table_potential_without_scipy_names_the_extra(
            self, tmp_path, capsys, monkeypatch):
        # a None entry in sys.modules makes the import raise ImportError
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
        table = {"kind": "table", "x": [0.0, 0.3, 0.6, 1.0],
                 "v": [0.0, 0.1, 0.4, 1.0]}
        with pytest.raises(ConfigError, match=r"beckner-lab\[table\]"):
            potential_from_config(table)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "fokker-planck",
            "model": {"model": "fokker_planck_fv", "potential": table,
                      "n_cells": 8, "lambda": 4.0}}))
        status = main(["fokker-planck", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert status == 2
        assert "beckner-lab[table]" in capsys.readouterr().err

    @pytest.mark.parametrize("starts", [0, -1])
    def test_nonpositive_starts_config_exit_code(self, tmp_path, capsys,
                                                 starts):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "constants",
            "model": {"model": "random_transposition", "n": 3},
            "starts": starts}))
        status = main(["constants", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert status == 2
        assert "starts must be >= 1" in capsys.readouterr().err

    def test_nonpositive_explicit_constant_rejected(self, tmp_path, capsys):
        # increments c = 1, delta = 1 meet the spread condition at
        # alpha = 1.5, but the bound alpha c - (3 + 2^{-1/2} - alpha) delta
        # is -0.707
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay",
            "model": {"model": "zero_range", "L": 3, "N": 2,
                      "rates": {"kind": "table",
                                "values": [[0, 1, 2], [0, 1, 2], [0, 2, 3]]}},
            "alpha": [1.5]}))
        status = main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert status == 1
        err = capsys.readouterr().err
        assert "explicit constant lambda = -0.707107 is not positive" in err

    def test_birth_rates_within_the_monotonicity_tolerance(self, tmp_path,
                                                           capsys):
        # a(1) < a(2) by 5e-13 passes the nonincreasing check; the step
        # counts as flat, so the explicit constant is 1.5
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay",
            "model": {"model": "birth_death", "a": [3, 2, 2.0000000000005, 1, 0],
                      "b": [0, 1, 2, 3, 4]},
            "alpha": [1.5]}))
        status = main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 0, captured.err
        assert "rate >= 1.5: PASS" in captured.out

    def test_config_file_driving(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay",
            "model": {"model": "random_transposition", "n": 3},
            "alpha": [1.5], "seed": 2, "out": str(tmp_path)}))
        status = main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert status == 0

    def test_command_mismatch(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "constants",
            "model": {"model": "random_transposition", "n": 3}}))
        status = main(["decay", "--config", str(cfg), "--out", str(tmp_path)])
        assert status == 2

    def test_missing_model_is_config_error(self, tmp_path):
        status = main(["decay", "--alpha", "1.5", "--out", str(tmp_path)])
        assert status == 2

    def test_density_dump_option(self, tmp_path):
        status = main(["decay", "--model", "random_transposition", "--n", "3",
                       "--alpha", "1.5", "--dump-densities",
                       "--out", str(tmp_path)])
        assert status == 0
        doc = json.loads((tmp_path / "densities_alpha1_5.json").read_text())
        assert len(next(iter(doc.values()))) == 6

    def test_density_dump_option_on_a_config_run(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "decay",
            "model": {"model": "random_transposition", "n": 3},
            "alpha": [1.5]}))
        out = tmp_path / "out"
        status = main(["decay", "--config", str(cfg), "--dump-densities",
                       "--out", str(out)])
        assert status == 0
        doc = json.loads((out / "densities_alpha1_5.json").read_text())
        assert len(next(iter(doc.values()))) == 6
        echo = json.loads((out / "effective_config.json").read_text())
        assert echo["dump_densities"] is True

    @pytest.mark.parametrize("argv", [
        ["theta-surface", "--alpha", "1.3", "--grid", "0:2:0.5"],
        ["verify-lemmas", "--alpha", "1.5", "--samples", "300", "--seed",
         "3", "--tol", "1e-8"],
        ["verify-bochner", "--model", "zero_range", "--L", "3", "--N", "2",
         "--c", "2.0", "--alpha", "1.5", "2.0"],
        ["decay", "--model", "random_transposition", "--n", "3",
         "--n-points", "11", "--t-end", "2.5", "--dump-densities",
         "--seed", "4"],
        ["decay", "--model", "fokker_planck_fv", "--coeff", "1.0",
         "--n-cells", "8"],
        ["constants", "--model", "bernoulli_laplace", "--L", "4", "--N",
         "2", "--lambda-x", "1.5", "--starts", "4", "--alpha", "2.0"],
        ["fokker-planck", "--model", "fokker_planck_fv", "--coeff", "2.0",
         "--lambda-conv", "3.5", "--n-cells", "12", "--cells", "8", "16",
         "--alpha", "2.0"],
        ["export-chain", "--model", "birth_death", "--K", "4"],
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_effective_config_reproduces_a_flag_run(self, tmp_path, capsys,
                                                    argv):
        flags, again = tmp_path / "flags", tmp_path / "again"
        status = main(argv + ["--out", str(flags)])
        out = capsys.readouterr().out.replace(str(flags), str(again))
        assert main([argv[0], "--config",
                     str(flags / "effective_config.json"),
                     "--out", str(again)]) == status
        assert capsys.readouterr().out == out
        names = sorted(p.name for p in flags.iterdir())
        assert sorted(p.name for p in again.iterdir()) == names
        for name in names:
            assert (again / name).read_bytes() == \
                (flags / name).read_bytes(), name


def _fmt(x) -> str:
    """One CSV cell as a per-value writer formats it: bools as 1/0, ints
    by str, everything else as 17 significant digits of a float."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


class TestWriteCsv:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, 0.1, 1.0, -2.5, 1e-300, 123456789.0]

    def _reference(self, header, rows):
        return (header + "\n" + "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in rows)).encode()

    def test_bytes_match_the_per_value_reference(self, tmp_path):
        # a float column with every special value, a bool column (Python
        # and numpy), small ints (Python and numpy) and random floats,
        # over more rows than two write blocks
        rng = np.random.default_rng(4)
        n = 2 * _CSV_BLOCK_ROWS + 7
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        floats[:len(self.SPECIAL)] = self.SPECIAL
        rows = [(float(f), bool(k % 3), np.bool_(k % 5 == 0),
                 k % 97 - 48, np.int64(k % 1000), float(np.float64(g)))
                for k, (f, g) in enumerate(zip(floats, rng.random(n)))]
        header = "f,b,nb,i,ni,g"
        path = tmp_path / "t.csv"
        _write_csv(str(path), header, rows)
        assert path.read_bytes() == self._reference(header, rows)
        table = np.array([[float(v) for v in row] for row in rows])
        _write_csv(str(path), header, table)
        assert path.read_bytes() == self._reference(
            header, [list(map(float, row)) for row in table])
        _write_csv(str(path), header, table[:0])
        assert path.read_bytes() == b"f,b,nb,i,ni,g\n"

    def test_memory_stays_below_the_formatted_file(self, tmp_path):
        import tracemalloc
        table = np.random.default_rng(5).standard_normal((200000, 5))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            _write_csv(str(path), "a,b,c,d,e", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 15_000_000
        assert peak < size / 8, (peak, size)
