import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatbound as hb
from heatbound import bounds as bounds_mod
from heatbound import kernel as kernel_mod
from heatbound.bounds import LOG_TOL, all_pairs, fit_sweep_setup
from heatbound.cli import _csv_lines, build_parser, main

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

    @pytest.mark.parametrize("formula,constants,calls", [
        ("thm1.1", "paper", 2), ("thm1.1", "empirical", 2),
        ("cor2.7", "paper", 1), ("prop2.6", "paper", 1)])
    def test_one_engine_call_per_sweep(self, random_file, tmp_path, capsys,
                                       monkeypatch, formula, constants,
                                       calls):
        # a theorem's profile fit is one call and every sweep one more,
        # however many pairs and times
        engine = []
        real = kernel_mod._chebyshev

        def counting(*args, **kwargs):
            engine.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "_chebyshev", counting)
        code, _, _ = run_cli(capsys, "bounds", "--graph", random_file,
                             "--formula", formula, "--constants", constants,
                             *self.EMPIRICAL_GRID,
                             "--out", str(tmp_path / "rows.csv"))
        assert code == 0
        assert len(engine) == calls

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


class TestCsvWriter:
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
