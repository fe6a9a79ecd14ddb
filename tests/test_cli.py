import argparse
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatbound as hb
from heatbound import bounds as bounds_mod
from heatbound import cli as cli_mod
from heatbound import kernel as kernel_mod
from heatbound import regularity as reg_mod
from heatbound.bounds import LOG_TOL, all_pairs, fit_sweep_setup
from heatbound.cli import (Categorical, SubTable, _csv_lines, _fmt_floats,
                           build_parser, main)

TWO_STATE = "v a 1\nv b 1\ne a b 1\n"


@pytest.fixture
def two_state_file(tmp_path):
    path = tmp_path / "two.graph"
    path.write_text(TWO_STATE)
    return str(path)


def write_graph(g, path):
    lines = [f"v {v} {float(g.nu[i])!r}" for i, v in enumerate(g.vertex_ids)]
    lines += [f"e {a} {b} {float(mu)!r}"
              for (a, b), mu in zip(g.edge_ids(), g.edge_mu)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    return write_graph(hb.random_connected_graph(8, seed=17, csrw=True),
                       tmp_path / "rand.graph")


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
                assert cols[3] == "%.12g" % res.prob(target)

    def test_time_zero_rows_print_zero_error(self, tmp_path, capsys):
        # Lam = 2000: the grid's Lam t runs from 0 to 2e6
        path = tmp_path / "stiff.graph"
        path.write_text("v a 1\nv b 0.001\nv c 1000\ne a b 1\ne b c 1\n")
        code, out, _ = run_cli(capsys, "kernel", "--graph", str(path),
                               "--tmin", "0", "--tmax", "1000",
                               "--tcount", "5", "--tscale", "linear")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15
        zero = [(r["target"], r["prob"], r["err_bound"]) for r in rows
                if r["t"] == "0"]
        assert zero == [("a", "1", "0"), ("b", "0", "0"), ("c", "0", "0")]
        assert all(0.0 < float(r["err_bound"]) <= 1e-10 for r in rows
                   if r["t"] != "0")


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

    @pytest.mark.parametrize("argv,calls", [
        pytest.param(("bounds", "--formula", "thm1.1", *EMPIRICAL_GRID), 1,
                     id="thm1.1-paper-1"),
        pytest.param(("bounds", "--formula", "thm1.1", "--constants",
                      "empirical", *EMPIRICAL_GRID), 1,
                     id="thm1.1-empirical-1"),
        pytest.param(("bounds", "--formula", "cor2.7", *EMPIRICAL_GRID), 1,
                     id="cor2.7-paper-1"),
        pytest.param(("bounds", "--formula", "prop2.6", *EMPIRICAL_GRID), 1,
                     id="prop2.6-paper-1"),
        pytest.param(("kernel", "--tcount", "4"), 1, id="kernel-1")])
    def test_one_engine_call_per_sweep(self, random_file, tmp_path, capsys,
                                       monkeypatch, argv, calls):
        # every sweep is one call, however many pairs and times, and a
        # theorem's profile fit reads its diagonals from that call too; a
        # kernel grid is one call
        engine = []
        real = kernel_mod._chebyshev

        def counting(*args, **kwargs):
            engine.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "_chebyshev", counting)
        code, _, _ = run_cli(capsys, *argv, "--graph", random_file,
                             "--out", str(tmp_path / "rows.csv"))
        assert code == 0
        assert len(engine) == calls

    @pytest.mark.parametrize("argv", [
        ("--formula", "thm1.1"),
        ("--formula", "thm1.1", "--constants", "empirical"),
        ("--formula", "cor2.7"), ("--formula", "prop2.6")],
        ids=["thm1.1-paper", "thm1.1-empirical", "cor2.7", "prop2.6"])
    def test_default_pairs_equal_every_pair_named(self, random_file,
                                                  tmp_path, capsys, argv):
        # the default spec takes its pairs as index arrays, --pairs looks
        # each id up: naming every pair in the same order gives the same
        # bytes, on stdout and with --out, and the same summary
        g = hb.load_graph_file(random_file)
        named = ",".join(f"{a}:{b}" for a, b in all_pairs(g))
        outs = []
        for spec in ((), ("--pairs", named)):
            argv_spec = ("bounds", "--graph", random_file, *argv,
                         *self.EMPIRICAL_GRID, *spec)
            code, out, err = run_cli(capsys, *argv_spec)
            out_csv = tmp_path / "rows.csv"
            code_out, summary, err_out = run_cli(capsys, *argv_spec, "--out",
                                                 str(out_csv))
            summary = json.loads(summary)
            summary.pop("timings")
            outs.append((code, out, err, code_out, out_csv.read_bytes(),
                         summary, err_out))
        assert outs[0] == outs[1]
        assert len(outs[0][1].splitlines()) > len(all_pairs(g)) * 4

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

    @pytest.mark.parametrize("formula,constants", [
        *((f, "paper") for f in bounds_mod.FORMULAS),
        *((f, "empirical") for f, spec in bounds_mod.FORMULAS.items()
          if spec.theorem)])
    def test_one_vertex_graph_has_no_rows(self, formula, constants, tmp_path,
                                          capsys):
        path = tmp_path / "one.graph"
        path.write_text("v a 1\n")
        code, out, err = run_cli(capsys, "bounds", "--graph", str(path),
                                 "--formula", formula, "--constants",
                                 constants)
        if constants == "empirical":
            # no row to fit C1 from: an input error, not log C1 = log 1e-300
            assert (code, out) == (2, "")
            assert json.loads(err) == {
                "error": "ValueError",
                "message": "no row has p > 0 to fit the empirical C1 from"}
            return
        assert (code, err) == (0, "")
        assert out == ("formula,x1,x2,t,d_nu,p_computed,log_bound,log_ratio,"
                       "constants_provenance,pass,domain_flag\n")

    def test_formula_choices_are_the_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        [formula] = [a for a in sub.choices["bounds"]._actions
                     if a.dest == "formula"]
        assert tuple(formula.choices) == tuple(bounds_mod.FORMULAS)

    def test_envelope_choices_are_the_list(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        [envelope] = [a for a in sub.choices["regularity"]._actions
                      if a.dest == "envelope"]
        assert tuple(envelope.choices) == ("none", *reg_mod.ENVELOPES)


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

    def test_closed_form_profile(self, two_state_file, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               "--form", "power", "--p", "2", "--gamma", "2",
                               "--interval", "0.1", "100")
        assert code == 0
        assert json.loads(out)["A"] == pytest.approx(1.0, abs=1e-9)
        # e^{2t} is past float64 at t = 1000: the row reads inf, and numpy
        # warns nothing ahead of it
        out_csv = tmp_path / "f.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "regularity", "--graph",
                                     two_state_file, "--form", "exp",
                                     "--delta", "2", "--tmin", "1", "--tmax",
                                     "1000", "--tcount", "5",
                                     "--out", str(out_csv))
        assert (code, err) == (0, "")
        assert json.loads(out, parse_constant=pytest.fail)["A"] == 1.0
        assert out_csv.read_text().splitlines()[-1] == "1000,inf"

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

    def test_closed_form_grid_checked_without_out(self, two_state_file,
                                                  tmp_path, capsys):
        # the (t, f) rows of a closed form lie on the time grid, which is
        # checked whether or not --out asks for them
        argv = ("regularity", "--graph", two_state_file, "--form", "power",
                "--tmin", "0")
        results = [run_cli(capsys, *argv),
                   run_cli(capsys, *argv, "--out", str(tmp_path / "f.csv"))]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 2 and out == ""
        assert "log-scale grids need tmin > 0" in json.loads(err)["message"]

    @pytest.mark.parametrize("form", ["table", "power"])
    def test_unbounded_interval_reported_finite(self, two_state_file, form,
                                                tmp_path, capsys):
        # it ends at 10, the table's last time or the default --tmax
        prof = tmp_path / "prof.csv"
        prof.write_text("0.1,0.01\n1.0,1.0\n10.0,100.0\n")
        source = (("--profile", str(prof)) if form == "table"
                  else ("--form", form))
        code, out, _ = run_cli(capsys, "regularity", "--graph", two_state_file,
                               *source, "--interval", "0.1", "inf")
        assert code == 0
        assert json.loads(out, parse_constant=pytest.fail)["interval"] == \
            [0.1, 10.0]


    def test_constant_past_float_range_exits_two(self, two_state_file,
                                                 tmp_path, capsys):
        # f jumps from 1e-300 to 1e300 between t = 2 and 3, so the least A
        # is about e^1382, past float64: an input error naming the pair
        prof = tmp_path / "prof.csv"
        prof.write_text("t,f\n" + "".join(
            f"{t},{1e-300 if t < 3 else 1e300}\n" for t in range(1, 9)))
        code, out, err = run_cli(capsys, "regularity", "--graph",
                                 two_state_file, "--profile", str(prof),
                                 "--gamma", "2")
        assert code == 2 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValueError"
        assert "past float range, at s = 2, t = 3" in payload["message"]

    def test_envelope_witness_past_float_range(self, two_state_file, capsys):
        # the failing envelope's worst point has f = e^1500: the witness
        # reads inf, and numpy warns nothing ahead of the summary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "regularity", "--graph",
                                     two_state_file, "--form", "stretched",
                                     "--delta", "3000", "--eps", "0.5",
                                     "--envelope", "exp", "--interval",
                                     "0.01", "1")
        assert (code, err) == (1, "")
        assert json.loads(out)["envelope"]["holds"] is False


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
        assert summary["membership_pass"] is True
        assert summary["J_monotone"] is True
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


class TestStiffGraph:
    """Holding rates over six decades on 50 vertices, Lam = 3.1e5: the
    default tol = 1e-10 is met up to the Lam t of 3e6 that the grids reach."""

    @pytest.mark.parametrize("argv", [
        ("regularity", "--source", "0"),
        ("imp", "--family", "drift"),
        ("bounds", "--tmax", "5"),
    ], ids=lambda argv: argv[0])
    def test_default_tol_met(self, argv, tmp_path, capsys):
        path = write_graph(hb.random_connected_graph(50, seed=1),
                           tmp_path / "stiff.graph")
        out_file = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, argv[0], "--graph", path, *argv[1:],
                                 "--out", str(out_file))
        assert code == 0 and err == ""
        assert json.loads(out)["command"] == argv[0]
        assert out_file.stat().st_size > 0


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


# one run of each subcommand on the two-state graph
COMMANDS = [("kernel", "--tcount", "3"), ("metric",),
            ("regularity", "--tcount", "5"),
            ("bounds", "--tmin", "1", "--tmax", "4", "--tcount", "3"),
            ("imp", "--family", "drift", "--tcount", "5"),
            ("simulate", "--paths", "100")]


class TestStdout:
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_one_kind_of_output(self, two_state_file, argv, tmp_path, capsys):
        # with --out: the CSV in the file and one JSON object on stdout;
        # without: the summary for metric and regularity, the CSV otherwise
        out_file = tmp_path / "out.csv"
        code, with_out, _ = run_cli(capsys, argv[0], "--graph", two_state_file,
                                    *argv[1:], "--out", str(out_file))
        [line] = with_out.splitlines()
        assert isinstance(json.loads(line, parse_constant=pytest.fail), dict)
        csv_text = out_file.read_text(encoding="utf-8")
        code_without, without, _ = run_cli(capsys, argv[0], "--graph",
                                           two_state_file, *argv[1:])
        assert code_without == code
        if argv[0] in ("metric", "regularity"):
            assert without == with_out
        else:
            assert without == csv_text

    @pytest.mark.parametrize("graph, argv, nulls", [
        (TWO_STATE, ("bounds", "--tmin", "0.01", "--tmax", "0.5",
                     "--tcount", "3"), ("worst_log_ratio",)),
        ("v a 1\n", ("imp", "--family", "drift"),
         ("worst_slack", "worst_time")),
    ], ids=["bounds-none-in-domain", "imp-one-vertex"])
    def test_summary_is_strict_json(self, graph, argv, nulls, tmp_path,
                                    capsys):
        # no row in domain has no worst ratio, a graph with no edge no worst
        # slack or time: null, where Infinity and NaN are not JSON
        path = tmp_path / "g.graph"
        path.write_text(graph)
        code, out, _ = run_cli(capsys, argv[0], "--graph", str(path),
                               *argv[1:], "--out", str(tmp_path / "out.csv"))
        assert code == 0
        summary = json.loads(out, parse_constant=pytest.fail)
        assert [summary[k] for k in nulls] == [None] * len(nulls)


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                   1.7976931348623157e308, 1.0, 0.1]
_QUOTING_TEXT = st.text(st.sampled_from(list(',"\n\r% ab')) | st.characters(),
                        max_size=5)
_COLUMN_KINDS = {
    "float": (st.sampled_from(_SPECIAL_FLOATS) | st.floats(),
              lambda v: np.array(v, dtype=float)),
    "str": (_QUOTING_TEXT, list),
    "int": (st.integers(-10 ** 20, 10 ** 20), list),
    "int64": (st.integers(-2 ** 63, 2 ** 63 - 1),
              lambda v: np.array(v, dtype=np.int64)),
    "bool": (st.booleans(), lambda v: np.array(v, dtype=bool)),
}


def _fmt(x):
    """A CSV field as the row-by-row writer formatted it."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def reference_fmt_floats(values):
    """_fmt_floats with one f-string per distinct value."""
    u, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([f"{v:.12g}" for v in u.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def reference_csv_lines(header, columns):
    """_csv_lines with one %-template per row, a line at a time."""
    strings = [None if isinstance(c, np.ndarray) and c.dtype == np.float64 else
               list(map(str, c.tolist() if isinstance(c, np.ndarray) else c))
               for c in columns]
    distinct = dict.fromkeys(itertools.chain(header, *filter(None, strings)))
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append),
               lineterminator="\r\n").writerows((s, "") for s in distinct)
    text = dict(zip(distinct, (line[:-3] for line in lines)))  # less ",\r\n"
    fields = [reference_fmt_floats(c) if s is None else
              list(map(text.__getitem__, s)) for c, s in zip(columns, strings)]
    template = ",".join(["%s"] * len(header)) + "\n"
    return itertools.chain([template % tuple(map(text.__getitem__, header))],
                           map(template.__mod__, zip(*fields)))


def _long_table(n):
    """A table of n rows: floats with repeats and specials, quoted and
    plain strings, ints and bools."""
    rng = np.random.default_rng(5)
    floats = rng.choice(np.array(_SPECIAL_FLOATS + [2.5, -1e-7]), n)
    return (("t", "x,y", "id", "ok"),
            (floats, [("a", 'q"x', "c\rd", "50%")[k % 4] for k in range(n)],
             rng.integers(-10 ** 6, 10 ** 6, n), rng.random(n) < 0.5))


@st.composite
def _tables(draw):
    """(header, columns, rows): columns of one kind each, with many repeats,
    and the same table as rows of Python values."""
    n = draw(st.integers(0, 25))
    width = draw(st.integers(2, 5))
    header = draw(st.lists(_QUOTING_TEXT, min_size=width, max_size=width))
    columns, values = [], []
    for _ in range(width):
        elements, make = _COLUMN_KINDS[draw(st.sampled_from(
            sorted(_COLUMN_KINDS)))]
        pool = draw(st.lists(elements, min_size=1, max_size=3))
        col = draw(st.lists(st.sampled_from(pool) | elements, min_size=n,
                            max_size=n))
        columns.append(make(col))
        values.append(columns[-1].tolist() if isinstance(columns[-1],
                                                          np.ndarray) else col)
    return header, columns, list(zip(*values))


# strings a CSV field must quote, or must not
_NEEDS_QUOTING = ["a,b", 'q"x', "50%", "c\rd"]


@st.composite
def _categorical_tables(draw):
    """(header, columns, expanded): float64 columns and Categorical ones,
    whose levels (some unused) need quoting or not and whose codes are intp,
    int32 or uint8; and the same table with each Categorical expanded to
    the list of its rows' strings."""
    n = draw(st.integers(0, 25))
    width = draw(st.integers(2, 5))
    header = draw(st.lists(_QUOTING_TEXT, min_size=width, max_size=width))
    columns, expanded = [], []
    for _ in range(width):
        if draw(st.booleans()):
            elements, make = _COLUMN_KINDS["float"]
            columns.append(make(draw(st.lists(elements, min_size=n,
                                              max_size=n))))
            expanded.append(columns[-1])
            continue
        levels = draw(st.lists(st.sampled_from(_NEEDS_QUOTING)
                               | _QUOTING_TEXT, min_size=1, max_size=6,
                               unique=True))
        codes = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n,
                              max_size=n))
        dtype = draw(st.sampled_from([np.intp, np.int32, np.uint8]))
        columns.append(Categorical(tuple(levels),
                                   np.array(codes, dtype=dtype)))
        expanded.append([levels[k] for k in codes])
    return header, columns, expanded


@st.composite
def _sub_tables(draw):
    """(header, columns, expanded): a float64 column, then a SubTable of a
    float64 and a string column, whose own rows are fewer than half the
    table's, or more, and whose codes are intp or uint8, then a
    Categorical; and the same table with the SubTable's columns gathered
    by its codes."""
    n = draw(st.integers(0, 25))
    count = draw(st.integers(1, 30))
    header = draw(st.lists(_QUOTING_TEXT, min_size=5, max_size=5))
    floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats()
    strings = st.sampled_from(_NEEDS_QUOTING) | _QUOTING_TEXT
    own_floats = np.array(draw(st.lists(floats, min_size=count,
                                        max_size=count)), dtype=float)
    own_strings = draw(st.lists(strings, min_size=count, max_size=count))
    codes = np.array(draw(st.lists(st.integers(0, count - 1), min_size=n,
                                   max_size=n)),
                     dtype=draw(st.sampled_from([np.intp, np.uint8])))
    first = np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                     dtype=float)
    levels = tuple(draw(st.lists(strings, min_size=1, max_size=3,
                                 unique=True)))
    last = Categorical(levels, np.array(draw(st.lists(
        st.integers(0, len(levels) - 1), min_size=n, max_size=n)),
        dtype=np.intp))
    columns = (first, SubTable((own_floats, own_strings), codes), last)
    expanded = (first, own_floats[codes],
                [own_strings[k] for k in codes.tolist()],
                [levels[k] for k in last.codes.tolist()])
    return header[:4], columns, expanded


class TestCsvWriter:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1024])
    @given(_sub_tables())
    @settings(max_examples=60, deadline=None)
    def test_sub_table_equals_its_gathered_columns(self, chunk_rows,
                                                    table):
        # a SubTable writes what its columns gathered by its codes write,
        # whether it writes its own lines once (at most half as many rows
        # as the table) or gathers its fields a chunk at a time
        header, columns, expanded = table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "CHUNK_ROWS", chunk_rows)
            chunks = list(_csv_lines(header, columns))
        assert "".join(chunks) == "".join(reference_csv_lines(header,
                                                              expanded))
        assert len(chunks) == -(-(len(expanded[0]) + 1) // chunk_rows)

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_equals_csv_writer(self, table):
        # byte for byte what Python 3.13's csv.writer writes from the _fmt of
        # each value, which on every version a writer ending lines in "\r\n"
        # quotes alike; and csv.reader gives every row back
        header, columns, rows = table
        fields = [list(header)] + [[_fmt(v) for v in row] for row in rows]

        def line(row):
            out = io.StringIO()
            csv.writer(out, lineterminator="\r\n").writerow(row)
            return out.getvalue()[:-2] + "\n"

        text = "".join(_csv_lines(header, columns))
        assert text == "".join(map(line, fields))
        assert list(csv.reader(io.StringIO(text, newline=""))) == fields

    def test_zero_rows_give_the_header_alone(self):
        header = ("t", "x,y", "p")
        columns = (np.array([]), [], np.array([], dtype=bool))
        assert list(_csv_lines(header, columns)) == ['t,"x,y",p\n']

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @given(_tables())
    @settings(max_examples=50, deadline=None)
    def test_chunks_join_to_the_reference(self, chunk_rows, table):
        # every chunk boundary a table of up to 26 lines can have; a chunk
        # holds chunk_rows lines, the last one the rest
        header, columns, rows = table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "CHUNK_ROWS", chunk_rows)
            chunks = list(_csv_lines(header, columns))
        assert "".join(chunks) == "".join(reference_csv_lines(header, columns))
        assert len(chunks) == -(-(len(rows) + 1) // chunk_rows)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @given(_categorical_tables())
    @settings(max_examples=50, deadline=None)
    def test_categorical_equals_its_strings(self, chunk_rows, table):
        # a Categorical column writes what the list of its rows' strings
        # writes in the row-by-row reference
        header, columns, expanded = table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "CHUNK_ROWS", chunk_rows)
            chunks = list(_csv_lines(header, columns))
        assert "".join(chunks) == "".join(reference_csv_lines(header,
                                                              expanded))
        assert len(chunks) == -(-(len(expanded[0]) + 1) // chunk_rows)

    @pytest.mark.parametrize("levels", [(), tuple(_NEEDS_QUOTING)],
                             ids=["no-levels", "unused-levels"])
    def test_zero_row_categorical(self, levels):
        header = ("x", "t")
        for dtype in (np.intp, np.uint8):
            columns = (Categorical(levels, np.array([], dtype=dtype)),
                       np.array([]))
            assert list(_csv_lines(header, columns)) == ["x,t\n"]

    @pytest.mark.parametrize("n", [0, 2 * cli_mod.CHUNK_ROWS + 5])
    def test_default_chunks_join_to_the_reference(self, n):
        header, columns = _long_table(n)
        chunks = list(_csv_lines(header, columns))
        text = "".join(chunks)
        assert text == "".join(reference_csv_lines(header, columns))
        assert len(chunks) == -(-(n + 1) // cli_mod.CHUNK_ROWS)
        assert len(list(csv.reader(io.StringIO(text, newline="")))) == n + 1

    @pytest.mark.parametrize("columns", [
        (np.zeros(3), Categorical(("a", "b"), np.array([0, 2, 1]))),
        (np.zeros(3), Categorical(("a", "b"), np.array([0, -1, 1]))),
        (np.zeros(2), Categorical(("a",), np.array([0.0, 0.0]))),
        (np.zeros(2), Categorical((), [0, 0])),
        (np.zeros(3), Categorical(("a",), np.zeros(2, dtype=np.intp))),
        (np.zeros(3), ["x", "y"]),
        (np.zeros(3), np.zeros(3), np.zeros(4)),
        (np.zeros(2), SubTable((np.zeros(2),), np.array([0, 2]))),
        (np.zeros(2), SubTable((np.zeros(2),), np.array([-1, 0]))),
        (np.zeros(2), SubTable((np.zeros(2),), np.array([0.0, 1.0]))),
        (np.zeros(3), SubTable((np.zeros(2),), np.array([0, 1]))),
        (np.zeros(2), SubTable((np.zeros(2), ["x"]), np.array([0, 1]))),
        (np.zeros(2), SubTable((Categorical(("a",), [0, 1]),), [0, 0])),
        (np.zeros(2), SubTable((), np.array([0, 0]))),
    ], ids=["code-past-levels", "negative-code", "float-codes", "no-levels",
            "short-codes", "short-list", "long-float", "code-past-sub-rows",
            "negative-sub-code", "float-sub-codes", "short-sub-codes",
            "short-sub-column", "sub-code-past-levels", "no-sub-columns"])
    def test_bad_columns_raise_before_the_first_string(self, columns):
        # the call itself raises, before any string is read from it
        with pytest.raises(ValueError, match="CSV's columns|codes must"):
            _csv_lines(("t",) + ("x",) * (len(columns) - 1), columns)

    def test_memory_of_distinct_floats(self):
        # two all-distinct float columns stay raw and are formatted a chunk
        # at a time: the peak is the few int64 arrays of the rows that
        # decide raw or levels, not a list of strings per column (about 70
        # bytes per row each)
        n = 100_000
        rng = np.random.default_rng(3)
        columns = (rng.random(n), rng.random(n),
                   Categorical(("a", "b,c"), rng.integers(0, 2, n)))
        tracemalloc.start()
        try:
            for _ in _csv_lines(("p", "q", "x"), columns):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * n

    def test_bad_columns_leave_no_file(self, two_state_file, tmp_path,
                                       monkeypatch, capsys):
        # kernel rows one target longer than the graph: a target column
        # shorter than the prob column fails before --out opens
        real = kernel_mod.kernel_rows

        def long_rows(*args, **kwargs):
            rows, err = real(*args, **kwargs)
            return np.concatenate([rows, rows[..., :1]], axis=-1), err
        monkeypatch.setattr(kernel_mod, "kernel_rows", long_rows)
        out_file = tmp_path / "k.csv"
        code, out, err = run_cli(capsys, "kernel", "--graph", two_state_file,
                                 "--tcount", "2", "--out", str(out_file))
        assert code == 2 and out == ""
        assert "one row count" in json.loads(err)["message"]
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ("kernel", "--tcount", "2"),
        ("bounds", "--formula", "cor2.7", "--tmin", "1", "--tmax", "2",
         "--tcount", "2"),
    ], ids=lambda argv: argv[0])
    def test_ids_that_need_quoting(self, argv, tmp_path, capsys):
        ids = ["a,b", 'q"x', "50%", 7, "c\rd"]
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({
            "vertices": [{"id": v, "nu": 2.0} for v in ids],
            "edges": [{"a": a, "b": b, "mu": 1.0}
                      for a, b in zip(ids, ids[1:] + ids[:1])]}))
        out_file = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, argv[0], "--graph", str(graph),
                             *argv[1:], "--out", str(out_file))
        with open(out_file, encoding="utf-8", newline="") as fh:
            text = fh.read()
        code_stdout, stdout, _ = run_cli(capsys, argv[0], "--graph",
                                         str(graph), *argv[1:])
        assert code == code_stdout == 0 and stdout == text
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        names = ("source", "target") if argv[0] == "kernel" else ("x1", "x2")
        assert {row[name] for row in rows for name in names} == \
            {str(v) for v in ids}


BOUNDS_HEADER = ("formula", "x1", "x2", "t", "d_nu", "p_computed",
                 "log_bound", "log_ratio", "constants_provenance", "pass",
                 "domain_flag")


def flat_bounds_columns(rows):
    """A BoundTable's bounds CSV columns, one entry per row each, as the
    writer took them before a table held its distinct cells once."""
    return (Categorical(rows.labels, rows.label),
            Categorical(rows.ids, rows.i1), Categorical(rows.ids, rows.i2),
            rows.t, rows.d_nu, rows.p_computed, rows.log_bound,
            rows.log_ratio, cli_mod._repeated(rows.provenance, len(rows)),
            Categorical(("False", "True"), rows.passed.view(np.uint8)),
            Categorical(("out", "in"), rows.in_domain.view(np.uint8)))


# a star whose ids need CSV quoting: the five pairs of the centre share one
# ball, and each leaf's pairs with the later leaves another
QUOTED_STAR = {
    "vertices": [{"id": "a,b", "nu": 5}] + [
        {"id": v, "nu": 2} for v in ('q"x', "50%", 7, "c\rd", 'x"y,z')],
    "edges": [{"a": "a,b", "b": v, "mu": 1}
              for v in ('q"x', "50%", 7, "c\rd", 'x"y,z')]}


def _pairs_from_two_sources(count):
    """--pairs of count pairs from sources 0 and 1 of random_file, in a
    cycle: few balls (x1, d), so the prop2.6 table has few cells."""
    pool = [(0, b) for b in range(1, 8)] + [(1, b) for b in range(2, 8)]
    return ",".join(f"{a}:{b}" for a, b in itertools.islice(
        itertools.cycle(pool), count))


class TestCellPath:
    """A bounds table is written from two SubTables, its keys (formula, x1,
    x2) and its cells (the other eight fields).  A prop2.6 table, whose
    rows of one x1, d and t share a cell, writes a line per cell once.  The
    CSV must be, byte for byte, the flat per-row columns through the same
    writer, on stdout and with --out alike."""

    def run_prop26(self, monkeypatch, capsys, tmp_path, graph, *argv):
        tables, written = [], []
        sweep, lines = bounds_mod.bound_sweep, cli_mod._csv_lines

        def recording_sweep(*args, **kwargs):
            tables.append(sweep(*args, **kwargs))
            return tables[-1]

        def recording_lines(header, columns):
            written.append(columns)
            return lines(header, columns)
        monkeypatch.setattr(bounds_mod, "bound_sweep", recording_sweep)
        monkeypatch.setattr(cli_mod, "_csv_lines", recording_lines)
        out_file = tmp_path / "rows.csv"
        argv = ("bounds", "--graph", graph, "--formula", "prop2.6", *argv)
        code, summary, _ = run_cli(capsys, *argv, "--out", str(out_file))
        code_stdout, stdout, _ = run_cli(capsys, *argv)
        with open(out_file, encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert code == code_stdout == 0 and stdout == text
        assert [type(c) for w in written for c in w] == [SubTable] * 4
        table = tables[-1]
        assert text == "".join(lines(BOUNDS_HEADER,
                                     flat_bounds_columns(table)))
        assert 2 * len(table.cells.t) <= len(table)
        return table, text

    @pytest.mark.parametrize("formula", ["thm1.1", "cor2.7", "thm5.2"])
    def test_a_cell_per_row(self, formula, monkeypatch, capsys, tmp_path,
                            random_file):
        # theorem and cor2.7 tables have a cell per row, which the writer
        # gathers field by field; their keys' lines are written once
        tables = []
        sweep = bounds_mod.bound_sweep

        def recording_sweep(*args, **kwargs):
            tables.append(sweep(*args, **kwargs))
            return tables[-1]
        monkeypatch.setattr(bounds_mod, "bound_sweep", recording_sweep)
        out_file = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "bounds", "--graph", random_file,
                             "--formula", formula, "--tcount", "6",
                             "--out", str(out_file))
        assert code in (0, 1)
        with open(out_file, encoding="utf-8", newline="") as fh:
            text = fh.read()
        table = tables[-1]
        assert len(table.cells.t) == len(table) > 0
        assert text == "".join(_csv_lines(BOUNDS_HEADER,
                                          flat_bounds_columns(table)))

    def test_ids_that_need_quoting(self, monkeypatch, capsys, tmp_path):
        graph = tmp_path / "star.json"
        graph.write_text(json.dumps(QUOTED_STAR))
        table, text = self.run_prop26(monkeypatch, capsys, tmp_path,
                                      str(graph), "--tcount", "3")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) == 1 + 15 * 3 == 1 + len(table)
        assert len(table.cells.t) == 5 * 3
        assert {v for r in rows[1:] for v in r[1:3]} == {
            "a,b", 'q"x', "50%", "7", "c\rd", 'x"y,z'}

    def test_pairs_subset(self, monkeypatch, capsys, tmp_path, random_file):
        pairs = "0:3,0:5,2:2,0:3,1:4,1:4,0:5,0:1"
        table, text = self.run_prop26(monkeypatch, capsys, tmp_path,
                                      random_file, "--pairs", pairs,
                                      "--tcount", "4")
        assert [(r.x1, r.x2) for r in table][::4] == [
            tuple(p.split(":")) for p in pairs.split(",")]

    def test_metric_override(self, monkeypatch, capsys, tmp_path,
                             random_file):
        # every edge at half its default length, which is adapted
        g = hb.load_graph_file(random_file)
        lengths = hb.default_edge_lengths(g)
        override = tmp_path / "lengths.txt"
        override.write_text("".join(
            f"l {a} {b} {0.5 * float(d)!r}\n"
            for (a, b), d in zip(g.edge_ids(), lengths)))
        table, _ = self.run_prop26(monkeypatch, capsys, tmp_path,
                                   random_file, "--metric", str(override),
                                   "--pairs", _pairs_from_two_sources(20))
        metric = hb.shortest_path_metric(
            g, 0.5 * lengths)
        assert table.d_nu.tolist() == np.repeat(
            metric.dist[table.i1[::25], table.i2[::25]], 25).tolist()

    def test_one_vertex_graph(self, monkeypatch, capsys, tmp_path):
        graph = tmp_path / "one.graph"
        graph.write_text("v a 1\n")
        _, text = self.run_prop26(monkeypatch, capsys, tmp_path, str(graph))
        assert text == ",".join(BOUNDS_HEADER) + "\n"

    @pytest.mark.parametrize("pairs,tcount", [(33, 31), (32, 32), (41, 25)],
                             ids=["chunk-less-one", "chunk", "chunk-plus-one"])
    def test_rows_around_one_chunk(self, monkeypatch, capsys, tmp_path,
                                   random_file, pairs, tcount):
        table, text = self.run_prop26(
            monkeypatch, capsys, tmp_path, random_file,
            "--pairs", _pairs_from_two_sources(pairs), "--tcount", str(tcount))
        assert len(table) == pairs * tcount
        assert len(table) - cli_mod.CHUNK_ROWS in (-1, 0, 1)
        assert text.count("\n") == len(table) + 1

    # tables the summary reads whole, whose CSV columns are bad: a key code
    # past the keys, one key code short, and a cell column one entry short
    @pytest.mark.parametrize("corrupt", [
        lambda t: replace(t, key=t.key + len(t.keys.label)),
        lambda t: replace(t, key=t.key[:-1]),
        lambda t: replace(t, cells=replace(t.cells, t=t.cells.t[:-1])),
    ], ids=["key-past-keys", "short-key-codes", "short-cell-column"])
    def test_bad_sub_table_leaves_no_file(self, random_file, tmp_path,
                                          monkeypatch, capsys, corrupt):
        sweep = bounds_mod.bound_sweep
        monkeypatch.setattr(bounds_mod, "bound_sweep",
                            lambda *a, **k: corrupt(sweep(*a, **k)))
        out_file = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "bounds", "--graph", random_file,
                                 "--formula", "prop2.6", "--pairs",
                                 _pairs_from_two_sources(20),
                                 "--out", str(out_file))
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith("a CSV")
        assert not out_file.exists()

    def test_each_shared_value_formatted_once(self, monkeypatch):
        # a float column of 4 distinct values in 1,000 rows, and a SubTable
        # of 100 rows (one all-distinct float column) that 1,000 rows share:
        # 4 + 100 values formatted, not one per row
        formatted = []
        real = cli_mod._fmt_floats

        def counting(values):
            formatted.append(len(values))
            return real(values)
        monkeypatch.setattr(cli_mod, "_fmt_floats", counting)
        rng = np.random.default_rng(6)
        columns = (rng.choice(rng.random(4), 1000),
                   SubTable((rng.random(100),), rng.integers(0, 100, 1000)))
        text = "".join(_csv_lines(("x", "p"), columns))
        assert sum(formatted) == 104
        assert text.count("\n") == 1001

    def test_memory_of_shared_cells(self):
        # 200,000 rows from 2,000 cells and 500 keys: the peak is the two
        # SubTables' own lines and one chunk's, under 8 bytes a row, which
        # a list of one string per row would take for its pointers alone
        n, cells, keys = 200_000, 2_000, 500
        rng = np.random.default_rng(4)
        columns = (
            SubTable((Categorical(tuple(map(str, range(keys))),
                                  np.arange(keys)),), rng.integers(0, keys, n)),
            SubTable((rng.random(cells), np.repeat(rng.random(20), 100),
                      rng.random(cells),
                      Categorical(("a", "b,c"), rng.integers(0, 2, cells))),
                     rng.integers(0, cells, n)))
        tracemalloc.start()
        try:
            size = sum(map(len, _csv_lines(("x", "t", "d", "p", "ok"),
                                           columns)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 50 * n
        assert peak <= 8 * n


class TestFmtFloats:
    def test_random_bit_patterns(self):
        values = np.random.default_rng(21).integers(
            -2 ** 63, 2 ** 63, 10 ** 5, dtype=np.int64).view(np.float64)
        assert _fmt_floats(values) == [f"{v:.12g}" for v in values.tolist()]

    def test_special_values(self):
        # both signs of nan, inf and zero, the least subnormal and normal, the
        # largest float, and values where %g turns from fixed to exponent
        values = np.array([math.nan, np.copysign(math.nan, -1.0), math.inf,
                           -math.inf, 0.0, -0.0, 5e-324,
                           2.2250738585072014e-308, 1.7976931348623157e308,
                           1e-5, 9.9999999999995e-05, 1e11, 1e12,
                           999999999999.5])
        values = np.concatenate([values, -values])
        assert _fmt_floats(values) == [f"{v:.12g}" for v in values.tolist()]

    def test_one_distinct_value(self):
        assert _fmt_floats(np.full(1000, 0.1)) == ["0.1"] * 1000


class TestTimings:
    def test_stage_seconds_beside_a_csv_file(self, random_file, tmp_path,
                                             capsys):
        # load, subcommand and CSV seconds join the summary of bounds --out;
        # the CSV is the bytes bounds prints without --out, nothing added
        argv = ("bounds", "--graph", random_file, "--tmin", "1", "--tmax",
                "4", "--tcount", "3")
        out_file = tmp_path / "out.csv"
        code, stdout, _ = run_cli(capsys, *argv, "--out", str(out_file))
        timings = json.loads(stdout)["timings"]
        assert sorted(timings) == ["command_s", "csv_s", "load_s"]
        assert all(math.isfinite(v) and v >= 0 for v in timings.values())
        code_csv, csv_text, _ = run_cli(capsys, *argv)
        assert code_csv == code
        with open(out_file, encoding="utf-8", newline="") as fh:
            assert fh.read() == csv_text
        assert csv_text.startswith("formula,") and "timings" not in csv_text

    def test_no_timings_in_a_summary_report(self, random_file, capsys):
        # metric's summary is its report: the same bytes on every run
        _, first, _ = run_cli(capsys, "metric", "--graph", random_file)
        _, second, _ = run_cli(capsys, "metric", "--graph", random_file)
        assert first == second and "timings" not in json.loads(first)


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
        # the cut never meets a nan tol: without the check the call would
        # not return
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

    @pytest.mark.parametrize("bound", [
        (("--tmax", "inf", "--tscale", "log"), "must be finite"),
        (("--tmax", "inf", "--tscale", "linear"), "must be finite"),
        (("--tmin", "nan", "--tscale", "log"), "must be finite"),
        # finite times whose Chebyshev terms no call can hold: the first
        # count overflows to inf, the second would take terabytes
        (("--tmin", "1e308", "--tmax", "1e308", "--tcount", "1"),
         "Chebyshev coefficients"),
        (("--tmin", "1e20", "--tmax", "1e20", "--tcount", "1"),
         "Chebyshev coefficients")])
    def test_non_finite_grid_end(self, two_state_file, tmp_path, bound):
        # numpy used to print a RuntimeWarning ahead of the JSON error
        grid, message = bound
        src = str(Path(hb.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "heatbound.cli", "kernel", "--graph",
             two_state_file, *grid, "--out", str(tmp_path / "k.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert message in json.loads(line)["message"]

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
        # nothing in heatbound uses it, and it is the slowest scipy import
        src = str(Path(hb.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, heatbound.cli; "
             "print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        ("kernel", "--method", "ode"), ("kernel", "--metric", "f"),
        ("regularity", "--metric", "f"), ("simulate", "--metric", "f"),
        ("simulate", "--tol", "1e-3"), ("metric", "--tol", "1e-3"),
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]))
    def test_flag_the_command_does_not_take(self, two_state_file, argv,
                                            capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--graph", two_state_file, *argv[1:]])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {' '.join(argv[1:])}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ("simulate", "--tmax", "inf"),
        ("simulate", "--tmax", "nan"),
        ("regularity", "--form", "exp", "--delta", "nan", "--envelope", "exp"),
        ("regularity", "--form", "power", "--p", "inf"),
        ("regularity", "--profile", "PROFILE"),
        ("regularity", "--form", "power", "--interval", "0.1", "nan"),
        ("imp", "--family", "gaussian", "--R", "inf"),
        ("imp", "--family", "lemma23", "--tau", "inf"),
        ("imp", "--family", "gaussian", "--bigd", "0"),
    ], ids=["simulate-tmax-inf", "simulate-tmax-nan", "regularity-delta-nan",
            "regularity-p-inf", "regularity-profile-inf",
            "regularity-interval-nan", "imp-gaussian-R-inf",
            "imp-lemma23-tau-inf", "imp-gaussian-bigd-0"])
    def test_non_finite_input(self, two_state_file, argv, tmp_path, capsys):
        profile = tmp_path / "prof.csv"
        profile.write_text("t,f\n0.1,1\n1,2\n10,3\ninf,4\n")
        argv = [str(profile) if a == "PROFILE" else a for a in argv]
        # a warning would print ahead of the JSON error; make it an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv[0], "--graph",
                                     two_state_file, *argv[1:],
                                     "--out", str(tmp_path / "out.csv"))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line, parse_constant=pytest.fail)["error"] == \
            "ValueError"

    def test_uncapped_drift_rho(self, two_state_file, tmp_path, capsys):
        # R = inf leaves rho = d(o, .) uncapped, a valid drift input
        code, out, _ = run_cli(capsys, "imp", "--graph", two_state_file,
                               "--family", "drift", "--R", "inf",
                               "--out", str(tmp_path / "j.csv"))
        assert code == 0
        summary = json.loads(out, parse_constant=pytest.fail)
        assert summary["J_monotone"] is True

    @pytest.mark.parametrize("formula", ["cor2.7", "prop2.6"])
    def test_short_time_branch_needs_positive_t(self, two_state_file,
                                                formula, capsys):
        # the short-time branches divide by t: a grid time of 0 is an input
        # error, not a ZeroDivisionError
        code, out, err = run_cli(capsys, "bounds", "--graph", two_state_file,
                                 "--formula", formula, "--tscale", "linear",
                                 "--tmin", "0", "--tmax", "1", "--tcount", "2")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "t must be positive"}

    @pytest.mark.parametrize("argv", [("bounds",),
                                      ("imp", "--family", "drift")],
                             ids=lambda argv: argv[0])
    def test_metric_override_must_be_adapted(self, argv, tmp_path, capsys):
        # metric reports a failing override (exit 1); the theorems need an
        # adapted metric, so bounds and imp refuse one
        path = tmp_path / "p3.graph"
        path.write_text("v a 1\nv b 1\nv c 1\ne a b 1\ne b c 1\n")
        override = tmp_path / "lengths.txt"
        override.write_text("l a b 5\n")
        code, out, err = run_cli(capsys, argv[0], "--graph", str(path),
                                 *argv[1:], "--metric", str(override))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == (
            "the metric is not adapted: vertex 'b' has (1/nu) sum d^2 mu = "
            "25.5 and edge 'a'-'b' has d = 5; both must be at most 1")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--graph", "/nope/missing")
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_failed_row_leaves_no_file(self, two_state_file, tmp_path, capsys):
        # a log-scale time grid rejects tmin = 0 before any row is written
        out_file = tmp_path / "f.csv"
        code, out, err = run_cli(capsys, "regularity", "--graph",
                                 two_state_file, "--form", "power", "--tmin",
                                 "0", "--out", str(out_file))
        assert code == 2 and out == ""
        assert "tmin" in json.loads(err)["message"]
        assert not out_file.exists()

    @pytest.mark.parametrize("row", ["3", "1,2,7"], ids=["one", "three"])
    def test_profile_row_needs_two_columns(self, two_state_file, row,
                                           tmp_path, capsys):
        profile = tmp_path / "prof.csv"
        profile.write_text(f"t,f\n0.1,1\n{row}\n10,3\n")
        code, out, err = run_cli(capsys, "regularity", "--graph",
                                 two_state_file, "--profile", str(profile))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "line 3: expected two columns" in payload["message"]
