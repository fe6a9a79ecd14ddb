import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heatbound as hb
from heatbound import bounds as bounds_mod
from heatbound.bounds import LOG_TOL, all_pairs, fit_sweep_setup
from heatbound.cli import build_parser, main

TWO_STATE = "v a 1\nv b 1\ne a b 1\n"


@pytest.fixture
def two_state_file(tmp_path):
    path = tmp_path / "two.graph"
    path.write_text(TWO_STATE)
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    g = hb.random_connected_graph(8, seed=17, csrw=True)
    lines = [f"v {v} {float(g.nu[i])!r}" for i, v in enumerate(g.vertex_ids)]
    lines += [f"e {a} {b} {float(mu)!r}" for (a, b), mu in zip(g.edge_ids(), g.edge_mu)]
    path = tmp_path / "rand.graph"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricCommand:
    def test_two_state_pass_report(self, two_state_file, capsys):
        code, out, _ = run_cli(capsys, "metric", "--graph", two_state_file)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["d_nu"]["a|b"] == 1.0
        assert set(report["vertex_slacks"]) == {"a", "b"}

    def test_failing_override_exits_one(self, two_state_file, tmp_path, capsys):
        override = tmp_path / "lengths.txt"
        override.write_text("l a b 3\n")
        code, out, _ = run_cli(capsys, "metric", "--graph", two_state_file,
                               "--metric", str(override))
        assert code == 1
        assert json.loads(out)["pass"] is False


class TestKernelCommand:
    def test_matches_library(self, two_state_file, tmp_path, capsys):
        out_csv = tmp_path / "kernel.csv"
        code, out, _ = run_cli(capsys, "kernel", "--graph", two_state_file,
                               "--source", "a", "--tmin", "0.5", "--tmax", "2",
                               "--tcount", "3", "--tscale", "linear",
                               "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "source,target,t,prob,method,err_bound"
        g = hb.load_graph(TWO_STATE)
        rows = lines[1:]
        for t, offset in ((0.5, 0), (1.25, 2), (2.0, 4)):
            res = hb.heat_kernel(g, "a", t)
            for k, target in enumerate(("a", "b")):
                cols = rows[offset + k].split(",")
                assert cols[:2] == ["a", target]
                assert float(cols[3]) == pytest.approx(res.prob(target),
                                                       rel=1e-11)


class TestBoundsCommand:
    def test_cor27_all_rows_pass(self, random_file, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "bounds", "--graph", random_file,
                               "--formula", "cor2.7", "--tmin", "0.5",
                               "--tmax", "4", "--tcount", "4",
                               "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["failures_in_domain"] == 0
        body = out_csv.read_text().splitlines()
        assert body[0].startswith("formula,x1,x2,t,d_nu,p_computed,log_bound")
        assert all(line.split(",")[9] == "True" for line in body[1:])

    def test_rows_match_library(self, random_file, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        run_cli(capsys, "bounds", "--graph", random_file, "--formula",
                "cor2.7", "--tmin", "1", "--tmax", "2", "--tcount", "2",
                "--out", str(out_csv))
        g = hb.load_graph_file(random_file)
        m = hb.shortest_path_metric(g)
        rows = hb.bound_sweep(g, m, "cor2.7", [1.0, 2.0])
        lines = out_csv.read_text().splitlines()[1:]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            cols = line.split(",")
            assert cols[0] == row.formula
            assert (cols[1], cols[2]) == (row.x1, row.x2)
            assert float(cols[5]) == pytest.approx(row.p_computed, rel=1e-11)
            assert float(cols[6]) == pytest.approx(row.log_bound, rel=1e-11)

    def test_empirical_constants_reported(self, two_state_file, tmp_path,
                                          capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", two_state_file,
                               "--formula", "thm1.1", "--constants",
                               "empirical", "--tmin", "1", "--tmax", "8",
                               "--tcount", "5", "--delta", "1",
                               "--out", str(tmp_path / "emp.csv"))
        assert code == 0
        summary = json.loads(out)
        assert summary["provenance"] == "empirical-fit"
        assert summary["log_C1"] < 10.0
        assert summary["failures_in_domain"] == 0

    EMPIRICAL_GRID = ("--tmin", "1", "--tmax", "8", "--tcount", "4")

    def test_empirical_constant_is_least_over_pairs(self, random_file,
                                                    tmp_path, capsys):
        out_csv = tmp_path / "emp.csv"
        code, out, _ = run_cli(capsys, "bounds", "--graph", random_file,
                               "--formula", "thm1.1", "--constants",
                               "empirical", *self.EMPIRICAL_GRID,
                               "--out", str(out_csv))
        assert code == 0
        g = hb.load_graph_file(random_file)
        m = hb.shortest_path_metric(g)
        times = np.geomspace(1.0, 8.0, 4)
        setup = fit_sweep_setup(g, all_pairs(g), times)
        fitted = max(hb.fit_empirical_constant(g, m, a, b, times, setup=setup)
                     for a, b in all_pairs(g))
        assert json.loads(out)["log_C1"] == pytest.approx(math.log(fitted),
                                                          rel=0, abs=1e-12)
        lines = out_csv.read_text().splitlines()[1:]
        assert len(lines) == len(all_pairs(g)) * len(times)
        assert abs(max(float(line.split(",")[7]) for line in lines)) <= LOG_TOL

    def test_empirical_one_kernel_matrix_per_time(self, random_file, tmp_path,
                                                  capsys, monkeypatch):
        calls = []
        real = bounds_mod.kernel_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds_mod, "kernel_matrix", counting)
        code, _, _ = run_cli(capsys, "bounds", "--graph", random_file,
                             "--formula", "thm1.1", "--constants",
                             "empirical", *self.EMPIRICAL_GRID,
                             "--out", str(tmp_path / "emp.csv"))
        assert code == 0
        assert len(calls) == 4  # one per grid time, none per pair


    def test_cor27_pair_at_distance_zero(self, random_file, tmp_path, capsys):
        grid = ("--tmin", "0.5", "--tmax", "4", "--tcount", "4")
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        code, _, _ = run_cli(capsys, "bounds", "--graph", random_file,
                             "--formula", "cor2.7", "--pairs", "0:3,2:2", *grid,
                             "--out", str(both))
        assert code == 0
        run_cli(capsys, "bounds", "--graph", random_file, "--formula",
                "cor2.7", "--pairs", "0:3", *grid, "--out", str(alone))
        lines = both.read_text().splitlines()
        head = alone.read_text().splitlines()
        assert lines[:len(head)] == head
        g = hb.load_graph_file(random_file)
        # the long-time display at r -> 0: (nu2/nu1)^{1/2} with nu1 = nu2
        zero = [line.split(",") for line in lines[len(head):]]
        assert len(zero) == 4
        for cols in zero:
            assert cols[:3] == ["cor2.7-long", "2", "2"]
            assert (cols[4], cols[6], cols[10]) == ("0", "0", "out")
            assert float(cols[5]) == pytest.approx(
                hb.heat_kernel(g, "2", float(cols[3])).prob("2"), rel=1e-11)

    def test_formula_choices_are_the_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        [formula] = [a for a in sub.choices["bounds"]._actions
                     if a.dest == "formula"]
        assert tuple(formula.choices) == tuple(bounds_mod.FORMULAS)


class TestRegularityCommand:
    def test_report_has_note_once(self, two_state_file, capsys):
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               "--source", "a", "--gamma", "1.5",
                               "--tmin", "0.01", "--tmax", "10",
                               "--tcount", "60", "--envelope", "exp",
                               "--delta", "1")
        assert code == 0
        report = json.loads(out)
        assert report["beta_section3"] == 2
        assert report["beta_theorem_statement"] == 1
        assert out.count("beta convention discrepancy") == 1
        assert report["envelope"]["holds"] is True

    def test_closed_form_profile(self, two_state_file, capsys):
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               "--form", "power", "--p", "2", "--gamma", "2",
                               "--interval", "0.1", "100")
        assert code == 0
        assert json.loads(out)["A"] == pytest.approx(1.0, abs=1e-9)

    def test_failed_envelope_exits_one(self, two_state_file, capsys):
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               "--form", "exp", "--delta", "2", "--gamma", "2",
                               "--interval", "0.1", "10", "--envelope", "exp")
        # envelope delta defaults to the --delta flag: e^{2t} <= A e^{2t} holds
        assert code == 0
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               "--form", "power", "--p", "3", "--gamma", "2",
                               "--interval", "0.5", "50", "--envelope", "poly",
                               "--eps", "1")
        assert code == 1  # t^3 grows past A t^1 with A fitted to 1
        assert json.loads(out)["envelope"]["holds"] is False

    def test_profile_csv_input(self, two_state_file, tmp_path, capsys):
        t = np.geomspace(0.1, 10, 50)
        prof = tmp_path / "prof.csv"
        prof.write_text("t,f\n" + "\n".join(f"{float(a)!r},{float(a * a)!r}" for a in t))
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               "--profile", str(prof), "--gamma", "2")
        assert code == 0
        assert json.loads(out)["A"] == pytest.approx(1.0, abs=1e-9)


class TestImpCommand:
    @pytest.mark.parametrize("family,extra", [
        ("drift", ["--a", "0.25"]),
        ("lemma23", ["--tau", "1.0"]),
        ("gaussian", ["--R", "1.0"]),
    ])
    def test_families_pass(self, two_state_file, tmp_path, family, extra,
                           capsys):
        out_csv = tmp_path / "j.csv"
        code, out, _ = run_cli(capsys, "imp", "--graph", two_state_file,
                               "--family", family, "--tmin", "0", "--tmax",
                               "2", "--tcount", "21", "--tscale", "linear",
                               "--out", str(out_csv), *extra)
        assert code == 0
        summary = json.loads(out)
        assert summary["membership_pass"] and summary["J_monotone"]
        header = out_csv.read_text().splitlines()[0]
        assert header == "t,J,worst_edge,slack"

    def test_j_values_match_library(self, two_state_file, tmp_path, capsys):
        out_csv = tmp_path / "j.csv"
        run_cli(capsys, "imp", "--graph", two_state_file, "--family", "drift",
                "--a", "0.2", "--tmin", "0", "--tmax", "1", "--tcount", "5",
                "--tscale", "linear", "--out", str(out_csv))
        g = hb.load_graph(TWO_STATE)
        m = hb.shortest_path_metric(g)
        h = hb.make_drift(0.2, hb.make_rho(m, "a", 1.0))
        u = hb.KernelEvolution(g, "a")
        rep = hb.check_J_monotone(u, h, np.linspace(0, 1, 5))
        lines = out_csv.read_text().splitlines()[1:]
        for line, j_expected in zip(lines, rep.J):
            assert float(line.split(",")[1]) == pytest.approx(j_expected,
                                                              rel=1e-10)


class TestSimulateCommand:
    def test_byte_identical_given_seed(self, random_file, tmp_path, capsys):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out_csv = tmp_path / name
            code, _, _ = run_cli(capsys, "simulate", "--graph", random_file,
                                 "--source", "0", "--tmax", "1", "--paths",
                                 "800", "--seed", "42", "--out", str(out_csv))
            assert code == 0
            outs.append(out_csv.read_bytes())
        assert outs[0] == outs[1]

    def test_summary_fields(self, two_state_file, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--graph", two_state_file,
                               "--paths", "100", "--seed", "1", "--jump-cap",
                               "1", "--out", str(tmp_path / "sim.csv"))
        assert code == 0
        summary = json.loads(out)
        assert summary["jump_cap"] == 1
        assert 0.0 <= summary["exploded_fraction"] <= 1.0


class TestErrors:
    def test_bad_graph_json_error_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("v a 1\nv b 1\ne a b -3\n")
        code, _, err = run_cli(capsys, "metric", "--graph", str(bad))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "GraphFormatError"
        assert "line 3" in payload["message"]

    def test_non_finite_nu_in_json_graph(self, tmp_path, capsys):
        bad = tmp_path / "inf.json"
        bad.write_text('{"vertices": [{"id": "a", "nu": Infinity}, '
                       '{"id": "b", "nu": 1}], '
                       '"edges": [{"a": "a", "b": "b", "mu": 1}]}')
        code, out, err = run_cli(capsys, "metric", "--graph", str(bad))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "GraphFormatError"

    def test_non_finite_override_length(self, tmp_path, capsys):
        path = tmp_path / "p3.graph"
        path.write_text("v a 1\nv b 1\nv c 1\ne a b 1\ne b c 1\n")
        override = tmp_path / "lengths.txt"
        override.write_text("l a b inf\n")
        code, out, err = run_cli(capsys, "metric", "--graph", str(path),
                                 "--metric", str(override))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "GraphFormatError"
        assert "line 1" in payload["message"]

    @pytest.mark.parametrize("tol", ["2", "inf", "0"])
    def test_tol_outside_unit_interval(self, two_state_file, tol, tmp_path,
                                       capsys):
        code, out, err = run_cli(capsys, "kernel", "--graph", two_state_file,
                                 "--tol", tol, "--out",
                                 str(tmp_path / "k.csv"))
        assert code == 2 and out == ""
        assert "0 < tol < 1" in json.loads(err)["message"]

    def test_tol_nan_returns(self, two_state_file, tmp_path):
        # used to hang: the Poisson weight array doubled forever
        src = str(Path(hb.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "heatbound.cli", "kernel", "--graph",
             two_state_file, "--tol", "nan", "--out", str(tmp_path / "k.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "0 < tol < 1" in json.loads(proc.stderr)["message"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command", ["kernel", "regularity", "bounds"])
    def test_infinite_tmax(self, two_state_file, command, tmp_path, capsys):
        code, out, err = run_cli(capsys, command, "--graph", two_state_file,
                                 "--tmax", "inf", "--tscale", "linear",
                                 "--out", str(tmp_path / "out.csv"))
        assert code == 2 and out == ""
        assert "finite and nonnegative" in json.loads(err)["message"]

    @pytest.mark.parametrize("bound", [("--tmax", "inf", "log"),
                                       ("--tmax", "inf", "linear"),
                                       ("--tmin", "nan", "log")])
    def test_non_finite_grid_end(self, two_state_file, tmp_path, bound):
        # numpy used to print a RuntimeWarning ahead of the JSON error
        flag, value, scale = bound
        src = str(Path(hb.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "heatbound.cli", "kernel", "--graph",
             two_state_file, flag, value, "--tscale", scale, "--out",
             str(tmp_path / "k.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert "must be finite" in json.loads(line)["message"]

    @pytest.mark.parametrize("extra", [
        ("--delta", "0"), ("--delta", "nan"), ("--delta", "-1"),
        ("--delta", "inf"),
        ("--formula", "thm1.3", "--T1", "nan"),
        ("--formula", "thm1.3", "--T1", "-1"),
        ("--formula", "thm1.3", "--T2", "-1"),
        ("--formula", "thm1.3", "--T2", "nan"),
        ("--formula", "thm5.2", "--eps", "nan"),
        ("--formula", "thm5.2", "--eps", "inf"),
        ("--gamma", "inf"), ("--gamma", "nan"), ("--gamma", "1"),
    ])
    def test_bad_theorem_parameters(self, two_state_file, extra, tmp_path,
                                    capsys):
        # a warning would print ahead of the JSON error; make it an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bounds", "--graph",
                                     two_state_file, "--tmin", "1", "--tmax",
                                     "4", "--tcount", "3", *extra,
                                     "--out", str(tmp_path / "rows.csv"))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line, parse_constant=pytest.fail)
        assert payload["error"] == "ValueError"
        name = {"--eps": "epsilon"}.get(extra[-2], extra[-2].lstrip("-"))
        assert payload["message"].startswith(f"{name} must ")

    @pytest.mark.parametrize("extra, unread", [
        (("--formula", "prop2.6", "--delta", "nan"), "--delta"),
        (("--formula", "cor2.7", "--gamma", "nan", "--T1", "inf"),
         "--gamma, --T1"),
        (("--formula", "thm1.1", "--T2", "1.5"), "--T2"),
        (("--formula", "thm1.3", "--eps", "0.5"), "--eps"),
    ], ids=["prop2.6-delta", "cor2.7-gamma-T1", "thm1.1-T2", "thm1.3-eps"])
    def test_option_the_formula_does_not_read(self, two_state_file, extra,
                                              unread, tmp_path, capsys):
        code, out, err = run_cli(capsys, "bounds", "--graph", two_state_file,
                                 "--tmin", "1", "--tmax", "4", "--tcount", "3",
                                 *extra, "--out", str(tmp_path / "rows.csv"))
        assert code == 2 and out == ""
        assert not (tmp_path / "rows.csv").exists()
        [line] = err.splitlines()
        assert json.loads(line)["message"].startswith(
            f"{extra[1]} does not read {unread};")

    def test_delta_below_one_accepted(self, two_state_file, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", two_state_file,
                               "--delta", "0.5", "--tmin", "1", "--tmax", "4",
                               "--tcount", "3",
                               "--out", str(tmp_path / "rows.csv"))
        assert code == 0
        summary = json.loads(out)
        assert summary["delta"] == 0.5 and summary["alpha"] == 1.0 / 32.0

    def test_cli_import_skips_scipy_integrate(self):
        # only --method ode needs it, and it is the slowest scipy import
        src = str(Path(hb.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, heatbound.cli; "
             "print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "False\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--graph", "/nope/missing")
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_threads_env_validated(self, two_state_file, capsys, monkeypatch):
        monkeypatch.setenv("HEATBOUND_THREADS", "zero")
        code, _, err = run_cli(capsys, "metric", "--graph", two_state_file)
        assert code == 2
        assert "HEATBOUND_THREADS" in json.loads(err)["message"]

    def test_threads_env_echoed(self, two_state_file, capsys, monkeypatch):
        monkeypatch.setenv("HEATBOUND_THREADS", "4")
        code, out, _ = run_cli(capsys, "metric", "--graph", two_state_file)
        assert code == 0
        assert json.loads(out)["threads"] == 4
