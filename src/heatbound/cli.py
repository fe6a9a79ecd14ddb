"""Batch driver: every subsystem exposed as a subcommand over graph files.

Subcommands are thin compositions of library calls -- no numeric logic lives
here.  Each takes the loaded graph and the parsed arguments and returns a
CSV header, its columns (plot-ready, diff-able), a JSON summary and an exit
status; ``main`` writes them under one rule.  With --out the CSV goes to the
file and the summary to stdout; without it stdout gets the summary for
``metric`` and ``regularity`` and the CSV for the other subcommands.  Every
CSV comes from one writer, ``_csv_lines``: what Python 3.13's
``csv.writer`` writes, byte for byte, each distinct value formatted once and
the rows streamed.  Exit codes: 0 all checks passed, 1 verification failures
present, 2 input error (machine-readable JSON on stderr, nothing on stdout).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import types

import numpy as np

from . import bounds as bounds_mod
from . import graph as graph_mod
from . import imp as imp_mod
from . import kernel as kernel_mod
from . import metric as metric_mod
from . import regularity as reg_mod


def _fmt_floats(values):
    """Each value of a float array to 12 significant digits (``%.12g``),
    formatting each distinct value (bit pattern) once."""
    u, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([f"{v:.12g}" for v in u.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def _csv_lines(header, columns):
    """The lines csv.writer(lineterminator="\\n") writes from the header and
    the rows of the columns, two or more: float64 arrays by _fmt_floats,
    other values by str, each distinct string quoted once, by csv itself, as
    Python 3.13 quotes it: a writer ending lines in "\\r\\n" also quotes a
    bare \\r, which one ending them in "\\n" does only from 3.13 on.  Every
    field is ready before the first line is read."""
    strings = [None if isinstance(c, np.ndarray) and c.dtype == np.float64 else
               list(map(str, c.tolist() if isinstance(c, np.ndarray) else c))
               for c in columns]
    distinct = dict.fromkeys(itertools.chain(header, *filter(None, strings)))
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append),
               lineterminator="\r\n").writerows((s, "") for s in distinct)
    text = dict(zip(distinct, (line[:-3] for line in lines)))  # less ",\r\n"
    fields = strings  # in place: each column's strings go as its fields come
    for k, (c, s) in enumerate(zip(columns, strings)):
        fields[k] = _fmt_floats(c) if s is None else list(map(text.__getitem__, s))
    template = ",".join(["%s"] * len(header)) + "\n"
    return itertools.chain([template % tuple(map(text.__getitem__, header))],
                           map(template.__mod__, zip(*fields)))


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
    results = [kernel_mod.heat_kernel(g, source, float(t), tol=args.tol)
               for t in _time_grid(args)]
    rows = [res for res in results for _ in g.vertex_ids]  # a time's n rows
    return (("source", "target", "t", "prob", "method", "err_bound"),
            ([r.source for r in rows], list(g.vertex_ids) * len(results),
             np.array([r.time for r in rows]),
             np.concatenate([r.probs for r in results]),
             [r.method for r in rows], np.array([r.err_bound for r in rows])),
            {"source": source, "rows": len(rows), "out": args.out}, 0)


def _cmd_metric(g, args):
    metric = _load_metric(g, args)
    report = metric_mod.verify_adapted(g, metric)
    if g.n <= 16:
        report["d_nu"] = {f"{a}|{b}": float(metric.dist[g.index(a), g.index(b)])
                           for k, a in enumerate(g.vertex_ids)
                           for b in g.vertex_ids[k + 1:]}
    vertices, slacks = zip(*sorted(report["vertex_slacks"].items()))
    return (("vertex", "constraint_slack"), (vertices, np.array(slacks)),
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
        columns = (grid, np.array([profile.value(t) for t in grid]))
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
    setup = None
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
    if spec.theorem:
        setup = bounds_mod.fit_sweep_setup(
            g, bounds_mod.all_pairs(g, pairs), times, tol=args.tol, **given)
    if args.constants == "empirical":
        ledger, rows = bounds_mod.empirical_sweep(
            g, metric, formula, times, pairs=pairs, setup=setup, tol=args.tol)
    else:
        ledger = bounds_mod.paper_constants()
        rows = bounds_mod.bound_sweep(g, metric, formula, times, pairs=pairs,
                                      ledger=ledger, setup=setup, tol=args.tol)
    summary = bounds_mod.summarize_rows(rows)
    summary.update(formula=formula, log_C1=ledger.log_C1,
                   provenance=ledger.provenance)
    if setup is not None:
        summary.update(A=setup.A, beta=setup.beta, alpha=setup.alpha,
                       gamma=setup.gamma, delta=setup.delta)
    return (("formula", "x1", "x2", "t", "d_nu", "p_computed", "log_bound",
             "log_ratio", "constants_provenance", "pass", "domain_flag"),
            (rows.formula, rows.x1, rows.x2, rows.t, rows.d_nu,
             rows.p_computed, rows.log_bound, rows.log_ratio,
             [rows.provenance] * len(rows), rows.passed,
             ["in" if v else "out" for v in rows.in_domain.tolist()]),
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
            (jrep.times, jrep.J, [edge] * len(jrep.times),
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
            (g.vertex_ids, res.counts, res.counts / res.n_paths), summary, 0)


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
    p.add_argument("--envelope", choices=("none", "exp", "stretched", "poly"),
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
        g = graph_mod.load_graph_file(args.graph)
        header, columns, summary, status = args.func(g, args)
        if args.out or args.command not in _SUMMARY_ON_STDOUT:
            # every field is ready before any output: a failed row writes none
            lines = _csv_lines(header, columns)
            if not args.out:
                sys.stdout.writelines(lines)
                return status
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(lines)
        summary.update(command=args.command, graph=args.graph)
        print(json.dumps(_strict_json(summary), sort_keys=True))
        return status
    except (graph_mod.GraphFormatError, reg_mod.ProfileDomainError, ValueError,
            OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
