"""Batch driver: every subsystem exposed as a subcommand over graph files.

Subcommands are thin compositions of library calls -- no numeric logic lives
here.  Reports are CSV (plot-ready, diff-able) plus a JSON summary on stdout.
Exit codes: 0 all checks passed, 1 verification failures present, 2 input
error (machine-readable JSON on stderr).

The environment variable HEATBOUND_THREADS changes nothing today: every
report is computed serially, and the value is only validated and echoed in
summaries.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import graph as graph_mod
from . import imp as imp_mod
from . import kernel as kernel_mod
from . import metric as metric_mod
from . import regularity as reg_mod


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, header, rows):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if path:
            out.close()


def _emit_summary(summary):
    print(json.dumps(summary, sort_keys=True, default=str))


def _threads():
    raw = os.environ.get("HEATBOUND_THREADS")
    if raw is None:
        return 1
    try:
        val = int(raw)
    except ValueError:
        raise ValueError(f"HEATBOUND_THREADS must be an integer, got {raw!r}")
    if val < 1:
        raise ValueError("HEATBOUND_THREADS must be at least 1")
    return val


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


def _load_graph(args):
    g = graph_mod.load_graph_file(args.graph)
    return g


def _load_metric(g, args):
    lengths = None
    if getattr(args, "metric", None):
        with open(args.metric, "r", encoding="utf-8") as fh:
            lengths = metric_mod.load_edge_lengths(g, fh.read())
    return metric_mod.shortest_path_metric(g, lengths)


def _add_common(p, times=True):
    p.add_argument("--graph", required=True, help="graph file (line format or JSON)")
    p.add_argument("--metric", help="optional metric override file")
    p.add_argument("--tol", type=float, default=kernel_mod.DEFAULT_TOL)
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    if times:
        p.add_argument("--tmin", type=float, default=0.01)
        p.add_argument("--tmax", type=float, default=10.0)
        p.add_argument("--tcount", type=int, default=25)
        p.add_argument("--tscale", choices=("linear", "log"), default="log")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_kernel(args):
    g = _load_graph(args)
    source = args.source or g.vertex_ids[0]
    rows = []
    for t in _time_grid(args):
        res = kernel_mod.heat_kernel(g, source, float(t), tol=args.tol,
                                     method=args.method)
        rows.extend(res.rows())
    _write_csv(args.out, ("source", "target", "t", "prob", "method",
                          "err_bound"), rows)
    if args.out:
        _emit_summary({"command": "kernel", "graph": args.graph,
                       "source": source, "rows": len(rows),
                       "threads": _threads(), "out": args.out})
    return 0


def _cmd_metric(args):
    g = _load_graph(args)
    metric = _load_metric(g, args)
    report = metric_mod.verify_adapted(g, metric)
    summary = {"command": "metric", "graph": args.graph, **report,
               "threads": _threads()}
    if g.n <= 16:
        summary["d_nu"] = {f"{a}|{b}": float(metric.dist[g.index(a), g.index(b)])
                           for k, a in enumerate(g.vertex_ids)
                           for b in g.vertex_ids[k + 1:]}
    if args.out:
        _write_csv(args.out, ("vertex", "constraint_slack"),
                   sorted(report["vertex_slacks"].items()))
    _emit_summary(summary)
    return 0 if report["pass"] else 1


def _build_profile(g, args):
    if args.profile:
        ts, fs = [], []
        with open(args.profile, "r", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#") or row[0] == "t":
                    continue
                ts.append(float(row[0]))
                fs.append(float(row[1]))
        return reg_mod.DecayProfile.from_table(ts, fs)
    if args.form:
        kind = args.form
        if kind == "power":
            return reg_mod.DecayProfile.power(args.p)
        if kind == "exp":
            return reg_mod.DecayProfile.exponential(args.delta)
        if kind == "stretched":
            return reg_mod.DecayProfile.stretched_exp(args.delta, args.eps)
        raise ValueError(f"unknown closed form {kind!r}")
    source = args.source or g.vertex_ids[0]
    grid = _time_grid(args)
    curve = kernel_mod.on_diagonal_curve(g, source, grid, tol=args.tol)
    return reg_mod.DecayProfile.from_on_diagonal(curve)


def _cmd_regularity(args):
    g = _load_graph(args)
    profile = _build_profile(g, args)
    interval = tuple(args.interval) if args.interval else profile.domain
    if not math.isfinite(interval[1]) and profile.kind != "table":
        interval = (max(interval[0], args.tmin), args.tmax)
    report = reg_mod.regularity_report(
        profile, args.gamma, interval, envelope_kind=args.envelope,
        delta=args.delta, eps=args.eps, beta_convention=args.beta_convention)
    report["command"] = "regularity"
    report["graph"] = args.graph
    report["threads"] = _threads()
    if args.out:
        if profile.kind == "table":
            rows = list(zip(profile.times, profile.values))
        else:
            grid = _time_grid(args)
            rows = [(t, profile.value(t)) for t in grid]
        _write_csv(args.out, ("t", "f"), rows)
    _emit_summary(report)
    env = report["envelope"]
    return 0 if env.get("holds", True) else 1


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


def _cmd_bounds(args):
    g = _load_graph(args)
    metric = _load_metric(g, args)
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
    _write_csv(args.out, ("formula", "x1", "x2", "t", "d_nu", "p_computed",
                          "log_bound", "log_ratio", "constants_provenance",
                          "pass", "domain_flag"),
               [r.as_csv() for r in rows])
    summary = bounds_mod.summarize_rows(rows)
    summary.update(command="bounds", graph=args.graph, formula=formula,
                   log_C1=ledger.log_C1, provenance=ledger.provenance,
                   threads=_threads())
    if setup is not None:
        summary.update(A=setup.A, beta=setup.beta, alpha=setup.alpha,
                       gamma=setup.gamma, delta=setup.delta)
    if args.out:
        _emit_summary(summary)
    return 1 if summary["failures_in_domain"] else 0


def _cmd_imp(args):
    g = _load_graph(args)
    metric = _load_metric(g, args)
    origin = args.source or g.vertex_ids[0]
    times = _time_grid(args)
    if args.family == "lemma23":
        rho = imp_mod.make_rho(metric, origin, args.R, variant="capped-dist")
        h = imp_mod.make_lemma23(args.tau, rho)
    elif args.family == "drift":
        rho = imp_mod.make_rho(metric, origin, args.R, variant="capped-dist")
        h = imp_mod.make_drift(args.a, rho)
    elif args.family == "gaussian":
        R = max(args.R, 1.0)
        rho = imp_mod.make_rho(metric, origin, R, variant="reflected")
        s = float(times[-1])
        h = imp_mod.make_gaussian(args.bigd, R, 24.0 * R / args.bigd, s, rho)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    membership = imp_mod.is_in_F(h, g, metric, times)
    evo = kernel_mod.KernelEvolution(g, origin, tol=args.tol)
    jrep = imp_mod.check_J_monotone(evo, h, times)
    _write_csv(args.out, ("t", "J", "worst_edge", "slack"),
               jrep.rows(membership))
    if not args.out:
        return 0 if (membership.passed and jrep.passed) else 1
    _emit_summary({
        "command": "imp", "graph": args.graph, "family": args.family,
        "origin": origin, "membership_pass": membership.passed,
        "worst_slack": membership.worst_slack,
        "worst_time": membership.worst_time,
        "J_monotone": jrep.passed, "J_tol": jrep.tol_used,
        "worst_J_ratio": jrep.worst_ratio, "threads": _threads(),
    })
    return 0 if (membership.passed and jrep.passed) else 1


def _cmd_simulate(args):
    g = _load_graph(args)
    source = args.source or g.vertex_ids[0]
    res = kernel_mod.simulate(g, source, args.tmax, args.paths, args.seed,
                              jump_cap=args.jump_cap)
    rows = [(v, int(c), c / res.n_paths)
            for v, c in zip(g.vertex_ids, res.counts)]
    _write_csv(args.out, ("vertex", "count", "prob"), rows)
    if not args.out:
        return 0
    _emit_summary({
        "command": "simulate", "graph": args.graph, "source": source,
        "t_max": res.t_max, "n_paths": res.n_paths, "seed": res.seed,
        "jump_cap": res.jump_cap, "exploded_fraction": res.exploded_fraction,
        "threads": _threads(),
    })
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatbound",
        description="heat kernels, adapted metrics and Gaussian upper-bound "
                    "verification on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="exact kernels over a time grid")
    _add_common(p)
    p.add_argument("--source", help="source vertex id (default: first)")
    p.add_argument("--method", choices=("uniformization", "ode"),
                   default="uniformization")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("metric", help="build and verify the adapted metric")
    _add_common(p, times=False)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (graph_mod.GraphFormatError, reg_mod.ProfileDomainError, ValueError,
            OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
