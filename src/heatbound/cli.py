"""Batch driver: every subsystem exposed as a subcommand over graph files.

Subcommands are thin compositions of library calls -- no numeric logic lives
here.  Each takes the loaded graph and the parsed arguments and returns a
CSV header, its columns (plot-ready, diff-able), a JSON summary and an exit
status; ``main`` writes them under one rule.  With --out the CSV goes to the
file and the summary to stdout; without it stdout gets the summary for
``metric`` and ``regularity`` and the CSV for the other subcommands.  Every
CSV comes from one writer, ``_csv_lines``: what Python 3.13's
``csv.writer`` writes, byte for byte.  A subcommand hands it float64
columns and string columns as ``Categorical`` codes: each column's distinct
strings and one integer code per row; and a block of columns as a
``SubTable``: the block's own rows and one code per row into them
(``bounds`` passes its keys and its cells so).  The writer quotes the
header and each column's distinct strings once, formats a float column at
most half of whose rows are distinct once per distinct value, and writes
each row of a SubTable with at most half as many rows as the table once
(``prop2.6``'s cells, which its rows of one ball and time share); it
checks every column's row count and codes before it returns, so a bad
table raises before ``main`` opens --out or writes a byte.  Then it
streams the rows in strings of ``CHUNK_ROWS`` lines: each gathers its rows'
fields, formats its slice of every other float column in one ``%`` call
and joins each row with ``",".join``, so one chunk's fields and lines are
held at a time, never a column's.  The summary of a subcommand whose report is its CSV holds
``timings``: the seconds spent loading the graph, in the subcommand, and
formatting and writing the CSV.  Exit codes: 0 all checks passed, 1 verification failures present, 2
input error (machine-readable JSON on stderr, nothing on stdout).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
import types
from collections import namedtuple

import numpy as np

from . import bounds as bounds_mod
from . import graph as graph_mod
from . import imp as imp_mod
from . import kernel as kernel_mod
from . import metric as metric_mod
from . import regularity as reg_mod

# lines in each string _csv_lines yields, about 100 KB of a bounds table;
# larger chunks write no faster and hold more at the peak
CHUNK_ROWS = 1024

# a string column of a CSV: its distinct strings (levels) and, for each row,
# the index of its string among them (codes, a sequence of ints)
Categorical = namedtuple("Categorical", "levels codes")

# a block of adjacent columns of a CSV: its own columns, of any kind
# _csv_lines takes, and, for each row, the index of its row among theirs
# (codes, a sequence of ints)
SubTable = namedtuple("SubTable", "columns codes")


def _fmt_floats(values):
    """Each value of a float array to 12 significant digits (``%.12g``), a
    list of strings, all of them from one ``%`` call whose one string is
    split at the "\\n" ending each value."""
    fields = ("%.12g\n" * len(values) % tuple(values.tolist())).split("\n")
    fields.pop()  # the empty string past the last "\n"
    return fields


def _float_column(values):
    """(levels, codes) of a float64 column when at most half its rows are
    distinct (by bit pattern): each distinct value formatted once and the
    index of each row's among them; else (values, None), the values to
    format a chunk at a time.  The distinct values come from one sort, and
    only a column that keeps them as levels looks its rows up among them
    (a binary search per row)."""
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    if 2 * len(distinct) > len(values):
        return values, None
    return (np.array(_fmt_floats(distinct.view(np.float64)), dtype=object),
            np.searchsorted(distinct, bits))


def _categorical(column):
    """column as a Categorical: itself, or the str of each of its values
    (a list, or an int or bool array), each distinct string a level."""
    if isinstance(column, Categorical):
        return column
    values = column.tolist() if isinstance(column, np.ndarray) else column
    index = {}
    codes = [index.setdefault(s, len(index)) for s in map(str, values)]
    return Categorical(tuple(index), codes)


def _repeated(text, count):
    """The Categorical of ``count`` rows of the one string text."""
    return Categorical((text,), np.zeros(count, dtype=np.intp))


def _quoted(strings):
    """Each string as a field of csv.writer(lineterminator="\\r\\n"), one
    writerows call for them all."""
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append),
               lineterminator="\r\n").writerows((s, "") for s in strings)
    return [line[:-3] for line in lines]  # each field, less ",\r\n"


def _checked_codes(codes, count):
    """codes as an integer array, each in [0, count), else ValueError."""
    codes = (codes if isinstance(codes, np.ndarray) else
             np.array(codes, dtype=np.intp))
    if codes.dtype.kind not in "iu" or len(codes) and (
            codes.min() < 0 or codes.max() >= count):
        raise ValueError(f"a CSV column's codes must be integers indexing "
                         f"its {count} levels")
    return codes


def _gathered(levels, codes):
    """The fields of some rows (a slice or an index array): levels, quoted
    fields or lines, gathered by the rows' codes."""
    return lambda rows: levels[codes[rows]].tolist()


def _formatted(values):
    """The fields of some rows: their float64 values as ``%.12g``."""
    return lambda rows: _fmt_floats(values[rows])


def _through(fields, codes):
    """The fields of some rows of one column of a SubTable: that column's
    fields of the SubTable row each row's code names."""
    return lambda rows: fields(codes[rows])


def _column_fields(columns):
    """(rows, fields) of the columns of a CSV or of a SubTable: their one
    row count, else ValueError, and a function per field of a row, which
    gives the fields of some rows; every check of _csv_lines."""
    columns = [c if isinstance(c, SubTable) or (
        isinstance(c, np.ndarray) and c.dtype == np.float64) else
        _categorical(c) for c in columns]
    sizes = {len(c) if isinstance(c, np.ndarray) else len(c.codes)
             for c in columns}
    if len(sizes) != 1:
        raise ValueError(f"a CSV's columns must have one row count, got "
                         f"{sorted(sizes)}")
    [rows] = sizes
    fields = []
    for c in columns:
        if isinstance(c, np.ndarray):
            levels, codes = _float_column(c)
            fields.append(_formatted(c) if codes is None else
                          _gathered(levels, codes))
        elif isinstance(c, SubTable):
            count, sub = _column_fields(c.columns)
            codes = _checked_codes(c.codes, count)
            if 2 * count <= rows:
                lines = _lines(sub, slice(0, count))
                fields.append(_gathered(np.array(lines, dtype=object), codes))
            else:
                fields.extend(_through(f, codes) for f in sub)
        else:
            codes = _checked_codes(c.codes, len(c.levels))
            fields.append(_gathered(np.array(_quoted(c.levels), dtype=object),
                                    codes))
    return rows, fields


def _lines(fields, rows):
    """The lines, less their "\\n", of some rows (a slice or an index
    array): each field's strings, then one ",".join per row."""
    return list(map(",".join, zip(*(f(rows) for f in fields))))


def _csv_lines(header, columns):
    """The text csv.writer(lineterminator="\\n") writes from the header and
    the rows of the columns, two or more, in strings of CHUNK_ROWS lines:
    float64 arrays as ``%.12g`` (_fmt_floats), a SubTable as the fields of
    its own row whose index is the row's code, and every other column as a
    Categorical (_categorical), its fields its quoted levels gathered by
    its codes.  The header and the levels are quoted once each, by csv
    itself, as Python 3.13 quotes them: a writer ending lines in "\\r\\n"
    also quotes a bare \\r, which one ending them in "\\n" does only from
    3.13 on.  A float64 column at most half of whose rows are distinct is
    formatted once per distinct value and kept as levels and codes
    (_float_column); any other is formatted a chunk at a time.  A
    SubTable's own columns may be of any of these kinds, quoted and
    formatted alike.  One with at most half as many rows as the table is
    written once, a line per row of its own, and those lines are gathered
    verbatim by its codes, several header fields' worth each: rows that
    share a block of fields (the x1, d and t of prop2.6 rows) format and
    join it once.  Any other is gathered field by field, each of its
    columns through its codes, a chunk at a time, as if it were that many
    columns of the table.

    Every check that can fail runs in this call, before it returns the
    first string: the columns, and a SubTable's columns, must have one row
    count and every code must index its levels or its SubTable's rows, else
    ValueError.  What is left, formatting float64 values and gathering
    checked codes, cannot fail, so a caller that opens its output after
    this returns writes nothing for a failed table.  Each string gathers
    its rows' fields from the columns, then is one ",".join per row and one
    "\\n".join of them, made as it is read: no column-length list of
    strings is ever held, nor a row-length copy of a SubTable's columns,
    only one chunk's strings and the lines of a SubTable of at most half
    the rows."""
    rows, fields = _column_fields(columns)
    head = ",".join(_quoted(header))
    # the first string holds the header and CHUNK_ROWS - 1 rows
    cuts = [0, *range(CHUNK_ROWS - 1, rows, CHUNK_ROWS), rows]

    def chunks():
        first = [head]
        for a, b in zip(cuts, cuts[1:]):
            yield "\n".join([*first, *_lines(fields, slice(a, b)), ""])
            first = []
    return chunks()


def _strict_json(x):
    """x with None for each non-finite float, which strict JSON has no
    value for."""
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _time_grid(args):
    if args.tcount < 1:
        raise ValueError("tcount must be at least 1")
    # before numpy builds a grid from them, which warns on inf and nan
    if not all(math.isfinite(t) and t >= 0.0 for t in (args.tmin, args.tmax)):
        raise ValueError("--tmin and --tmax must be finite and nonnegative, "
                         f"got {args.tmin!r} and {args.tmax!r}")
    if args.tscale == "log":
        if args.tmin <= 0:
            raise ValueError("log-scale grids need tmin > 0")
        return np.geomspace(args.tmin, args.tmax, args.tcount)
    return np.linspace(args.tmin, args.tmax, args.tcount)


def _load_metric(g, args):
    lengths = None
    if args.metric:
        with open(args.metric, "r", encoding="utf-8") as fh:
            lengths = metric_mod.load_edge_lengths(g, fh.read())
    return metric_mod.shortest_path_metric(g, lengths)


def _adapted_metric(g, args):
    """_load_metric's metric, which the bounds and the maximum principle
    need adapted: an override that fails verify_adapted is an input
    error."""
    metric = _load_metric(g, args)
    cert = metric.certificate
    if not cert.passed:
        v = int(np.argmax(cert.vertex_constraint))
        a, b = g.edge_ids()[int(np.argmax(metric.dist[tuple(g.edge_index.T)]))]
        raise ValueError(
            f"the metric is not adapted: vertex {g.vertex_ids[v]!r} has (1/nu) "
            f"sum d^2 mu = {cert.vertex_constraint[v]:.12g} and edge "
            f"{a!r}-{b!r} has d = {cert.max_edge_dist:.12g}; both must be at "
            "most 1")
    return metric


def _add_common(p, times=True):
    """--graph and --out; with ``times`` the time grid and --tol, the
    tolerance of its kernels."""
    p.add_argument("--graph", required=True, help="graph file (line format or JSON)")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    if times:
        p.add_argument("--tol", type=float, default=kernel_mod.DEFAULT_TOL)
        p.add_argument("--tmin", type=float, default=0.01)
        p.add_argument("--tmax", type=float, default=10.0)
        p.add_argument("--tcount", type=int, default=25)
        p.add_argument("--tscale", choices=("linear", "log"), default="log")


# ---------------------------------------------------------------------------
# subcommands: each takes (g, args) and returns (header, columns, summary,
# status); main writes them

def _cmd_kernel(g, args):
    source = args.source or g.vertex_ids[0]
    grid = _time_grid(args)
    rows, err = kernel_mod.kernel_rows(g, [source], grid, args.tol)
    count = rows.size  # a row per time and target
    return (("source", "target", "t", "prob", "method", "err_bound"),
            (_repeated(g.vertex_ids[g.index(source)], count),
             Categorical(g.vertex_ids, np.tile(np.arange(g.n), len(grid))),
             np.repeat(grid, g.n), rows[0].ravel(),
             _repeated(kernel_mod.METHOD, count), np.repeat(err, g.n)),
            {"source": source, "rows": count, "out": args.out}, 0)


def _cmd_metric(g, args):
    metric = _load_metric(g, args)
    report = metric_mod.verify_adapted(g, metric)
    if g.n <= 16:
        report["d_nu"] = {f"{a}|{b}": float(metric.dist[g.index(a), g.index(b)])
                           for k, a in enumerate(g.vertex_ids)
                           for b in g.vertex_ids[k + 1:]}
    vertices, slacks = zip(*sorted(report["vertex_slacks"].items()))
    return (("vertex", "constraint_slack"),
            (Categorical(vertices, np.arange(len(vertices))),
             np.array(slacks)),
            report, 0 if report["pass"] else 1)


def _build_profile(g, args):
    if args.profile:
        ts, fs = [], []
        with open(args.profile, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].startswith("#") or row[0] == "t":
                    continue
                if len(row) != 2:
                    raise ValueError(
                        f"{args.profile} line {reader.line_num}: expected two "
                        f"columns t,f, got {len(row)}")
                ts.append(float(row[0]))
                fs.append(float(row[1]))
        return reg_mod.DecayProfile.from_table(ts, fs)
    if args.form == "power":
        return reg_mod.DecayProfile.power(args.p)
    if args.form == "exp":
        return reg_mod.DecayProfile.exponential(args.delta)
    if args.form == "stretched":
        return reg_mod.DecayProfile.stretched_exp(args.delta, args.eps)
    source = args.source or g.vertex_ids[0]
    grid = _time_grid(args)
    curve = kernel_mod.on_diagonal_curve(g, source, grid, tol=args.tol)
    return reg_mod.DecayProfile.from_on_diagonal(curve)


def _cmd_regularity(g, args):
    profile = _build_profile(g, args)
    # (t, f) rows: the table itself, or a closed form on the CLI time grid,
    # which is checked here whether or not --out asks for the rows
    if profile.kind == "table":
        columns = (profile.times, profile.values)
    else:
        grid = _time_grid(args)
        columns = (grid, profile.value(grid))
    interval = tuple(args.interval) if args.interval else profile.domain
    if interval[1] == math.inf:
        # report a finite window: the table's end or the CLI time grid's
        interval = ((interval[0], profile.domain[1]) if profile.kind == "table"
                    else (max(interval[0], args.tmin), args.tmax))
    report = reg_mod.regularity_report(
        profile, args.gamma, interval, envelope_kind=args.envelope,
        delta=args.delta, eps=args.eps, beta_convention=args.beta_convention)
    return (("t", "f"), columns, report,
            0 if report["envelope"].get("holds", True) else 1)


def _parse_pairs(spec):
    if not spec:
        return None
    out = []
    for chunk in spec.split(","):
        a, sep, b = chunk.partition(":")
        if not sep:
            raise ValueError(f"bad pair {chunk!r}; expected 'id1:id2'")
        out.append((a, b))
    return out


# bounds flag -> the fit_sweep_setup parameter it sets
_SETUP_FLAGS = {"gamma": "gamma", "delta": "delta", "eps": "epsilon",
                "T1": "T1", "T2": "T2"}


def _cmd_bounds(g, args):
    metric = _adapted_metric(g, args)
    times = _time_grid(args)
    pairs = _parse_pairs(args.pairs)
    formula = args.formula
    spec = bounds_mod.FORMULAS[formula]
    given = {param: getattr(args, flag) for flag, param in _SETUP_FLAGS.items()
             if getattr(args, flag) is not None}
    unread = [f"--{flag}" for flag, param in _SETUP_FLAGS.items()
              if param in given and param not in spec.options]
    if unread:
        reads = [f"--{flag}" for flag, param in _SETUP_FLAGS.items()
                 if param in spec.options]
        raise ValueError(f"{formula} does not read {', '.join(unread)}; it "
                         f"reads {', '.join(reads) or 'none of these options'}")
    if args.constants == "empirical":
        ledger, rows = bounds_mod.empirical_sweep(
            g, metric, formula, times, pairs=pairs, tol=args.tol, **given)
    else:
        ledger = bounds_mod.paper_constants()
        rows = bounds_mod.bound_sweep(g, metric, formula, times, pairs=pairs,
                                      ledger=ledger, tol=args.tol, **given)
    summary = bounds_mod.summarize_rows(rows)
    summary.update(formula=formula, log_C1=ledger.log_C1,
                   provenance=ledger.provenance)
    setup = rows.setup
    if setup is not None:
        summary.update(A=setup.A, beta=setup.beta, alpha=setup.alpha,
                       gamma=setup.gamma, delta=setup.delta)
    keys, cells = rows.keys, rows.cells
    # a row's fields: its key's formula, x1 and x2, then its cell's; the
    # writer writes each prop2.6 cell's line once, and a theorem's or
    # cor2.7's cells, one per row, field by field
    return (("formula", "x1", "x2", "t", "d_nu", "p_computed", "log_bound",
             "log_ratio", "constants_provenance", "pass", "domain_flag"),
            (SubTable((Categorical(rows.labels, keys.label),
                       Categorical(rows.ids, keys.i1),
                       Categorical(rows.ids, keys.i2)), rows.key),
             SubTable((cells.t, cells.d_nu, cells.p_computed, cells.log_bound,
                       cells.log_ratio,
                       _repeated(rows.provenance, len(cells.t)),
                       Categorical(("False", "True"),
                                   cells.passed.view(np.uint8)),
                       Categorical(("out", "in"),
                                   cells.in_domain.view(np.uint8))),
                      rows.cell)),
            summary, 1 if summary["failures_in_domain"] else 0)


def _cmd_imp(g, args):
    metric = _adapted_metric(g, args)
    origin = args.source or g.vertex_ids[0]
    times = _time_grid(args)
    if args.family == "lemma23":
        rho = imp_mod.make_rho(metric, origin, args.R, variant="capped-dist")
        h = imp_mod.make_lemma23(args.tau, rho)
    elif args.family == "drift":
        rho = imp_mod.make_rho(metric, origin, args.R, variant="capped-dist")
        h = imp_mod.make_drift(args.a, rho)
    else:  # gaussian
        R = max(args.R, 1.0)
        rho = imp_mod.make_rho(metric, origin, R, variant="reflected")
        s = float(times[-1])
        # Delta = 24 R / D, the least make_gaussian allows; a D below 5 is
        # make_gaussian's error to report, not a division by zero here
        h = imp_mod.make_gaussian(args.bigd, R, 24.0 * R / max(args.bigd, 5.0),
                                  s, rho)
    membership = imp_mod.is_in_F(h, g, metric, times)
    evo = kernel_mod.KernelEvolution(g, origin, tol=args.tol)
    jrep = imp_mod.check_J_monotone(evo, h, times)
    edge = "|".join(membership.worst_edge)
    summary = {"family": args.family, "origin": origin,
               "membership_pass": membership.passed,
               "worst_slack": membership.worst_slack,
               "worst_time": membership.worst_time,
               "J_monotone": jrep.passed, "J_tol": jrep.tol_used,
               "worst_J_ratio": jrep.worst_ratio}
    return (("t", "J", "worst_edge", "slack"),
            (jrep.times, jrep.J, _repeated(edge, len(jrep.times)),
             np.full(len(jrep.times), membership.worst_slack)), summary,
            0 if (membership.passed and jrep.passed) else 1)


def _cmd_simulate(g, args):
    source = args.source or g.vertex_ids[0]
    res = kernel_mod.simulate(g, source, args.tmax, args.paths, args.seed,
                              jump_cap=args.jump_cap)
    summary = {"source": source, "t_max": res.t_max, "n_paths": res.n_paths,
               "seed": res.seed, "jump_cap": res.jump_cap,
               "exploded_fraction": res.exploded_fraction}
    return (("vertex", "count", "prob"),
            (Categorical(g.vertex_ids, np.arange(g.n)), res.counts,
             res.counts / res.n_paths), summary, 0)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatbound",
        description="heat kernels, adapted metrics and Gaussian upper-bound "
                    "verification on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="exact kernels over a time grid")
    _add_common(p)
    p.add_argument("--source", help="source vertex id (default: first)")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("metric", help="build and verify the adapted metric")
    _add_common(p, times=False)
    p.add_argument("--metric", help="optional metric override file")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("regularity", help="fit A, check envelopes, constants")
    _add_common(p)
    p.add_argument("--source", help="fit from this vertex's on-diagonal curve")
    p.add_argument("--profile", help="two-column CSV (t, f)")
    p.add_argument("--form", choices=("power", "exp", "stretched"),
                   help="closed-form profile instead of a fitted table")
    p.add_argument("--p", type=float, default=1.0, help="power exponent")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--envelope", choices=("none", *reg_mod.ENVELOPES),
                   default="none")
    p.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--beta-convention", choices=reg_mod.BETA_CONVENTIONS,
                   default="section3")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("bounds", help="bound-report sweep across theorems")
    _add_common(p)
    p.add_argument("--metric", help="optional metric override file")
    p.add_argument("--formula", choices=bounds_mod.FORMULAS, default="thm1.1")
    p.add_argument("--constants", choices=("paper", "empirical"),
                   default="paper")
    p.add_argument("--pairs", help="comma-separated id1:id2 pairs (default all)")
    # theorem parameters; unset, fit_sweep_setup's defaults apply
    for flag in _SETUP_FLAGS:
        p.add_argument(f"--{flag}", type=float)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("imp", help="membership and J-monotonicity checks")
    _add_common(p)
    p.add_argument("--metric", help="optional metric override file")
    p.add_argument("--source", help="origin vertex id (default: first)")
    p.add_argument("--family", choices=("lemma23", "drift", "gaussian"),
                   required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.25)
    p.add_argument("--bigd", type=float, default=5.0, help="Gaussian D parameter")
    p.add_argument("--R", type=float, default=1.0)
    p.set_defaults(func=_cmd_imp)

    p = sub.add_parser("simulate", help="Monte Carlo paths with explosion stats")
    _add_common(p, times=False)
    p.add_argument("--source", help="source vertex id (default: first)")
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jump-cap", type=int, default=10_000, dest="jump_cap")
    p.set_defaults(func=_cmd_simulate)
    return parser


# without --out, these print their JSON summary and the others their CSV
_SUMMARY_ON_STDOUT = ("metric", "regularity")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        g = graph_mod.load_graph_file(args.graph)
        loaded = time.perf_counter()
        header, columns, summary, status = args.func(g, args)
        done = time.perf_counter()
        if args.out or args.command not in _SUMMARY_ON_STDOUT:
            # _csv_lines checks the table before any output, and what it
            # does after, formatting floats and gathering checked codes,
            # cannot fail: a failed row writes none
            lines = _csv_lines(header, columns)
            if not args.out:
                sys.stdout.writelines(lines)
                return status
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(lines)
        summary.update(command=args.command, graph=args.graph)
        if args.command not in _SUMMARY_ON_STDOUT:
            # beside the CSV file, which is the report; metric's and
            # regularity's summary is their report, the same on every run
            summary["timings"] = {"load_s": loaded - start,
                                  "command_s": done - loaded,
                                  "csv_s": time.perf_counter() - done}
        print(json.dumps(_strict_json(summary), sort_keys=True))
        return status
    except (graph_mod.GraphFormatError, reg_mod.ProfileDomainError, ValueError,
            OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
