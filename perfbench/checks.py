"""Checks of every CSV row and JSON summary the benchmark's commands produce.

Each value is compared with the spectral oracle (``oracle.py``) or with a
property the method must have; no check compares with a stored copy of an
earlier output.  A checker returns a list of problems; an empty list means
the command's output is correct.

Tolerances (see README.md for the reasons):

- kernel values: the reported ``err_bound`` (``--tol`` where the CSV has no
  such column), plus ``2 * K * u`` for the rounding of K Poisson terms, plus
  the CSV's 12-digit rounding, plus the oracle's own error bound;
- thm1.1 ``log_bound``: ``INTERP_TOL`` for the program's log-log interpolated
  profile table, against the exact f(s) = 1 / p_s(x, x);
- everything else: rounding only.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque

import mpmath
import numpy as np

from oracle import U
from workloads import KERNEL_TOL

LOG_TOL = 1e-9      # the program's documented log-space pass/fail slack
CSV_REL = 5e-12     # relative rounding of a value printed with 12 digits
INTERP_TOL = 1e-3   # log-log profile interpolation, in log_bound
ROUNDING = 2.0      # allowance ROUNDING * K * u for rounding over K terms
THETA = 1e-7        # theta = theta2 / 2 of the paper's constant chain
GAMMA = 2.0         # the CLI's default --gamma
MAX_REPORTED = 5    # problems listed per check before the rest are counted


def paper_log_c1():
    """log C1 of the paper's explicit chain, in 50-digit arithmetic:
    C0 = e^(theta1 + 0.01) + e^-theta1 / (1 - e^-theta1) + 2 e^123,
    C1 = e^(4e6 theta2) + C0 sum_{j>=1} e^(-theta2 4^(j-1)) + C0."""
    with mpmath.workdps(50):
        th1 = mpmath.mpf("1e-6")
        th2 = th1 / 5
        c0 = (mpmath.exp(th1 + mpmath.mpf("0.01"))
              + mpmath.exp(-th1) / (1 - mpmath.exp(-th1))
              + 2 * mpmath.exp(123))
        tail = mpmath.fsum(mpmath.exp(-th2 * mpmath.mpf(4) ** (j - 1))
                           for j in range(1, 80))
        return float(mpmath.log(mpmath.exp(4 * 10 ** 6 * th2) + c0 * tail + c0))


def poisson_terms(lam_t):
    """K: more Poisson terms than any uniformization needs for a tail below
    1e-16 at mean lam_t (the right tail is below 1e-16 after about
    lam_t + 8.3 sqrt(lam_t) terms)."""
    return lam_t + 12.0 * np.sqrt(lam_t + 1.0) + 30.0


def hop_distances(graph):
    """All-pairs breadth-first-search hop counts."""
    adj = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    hops = np.full((graph.n, graph.n), -1, dtype=np.int64)
    for src in range(graph.n):
        hops[src, src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if hops[src, y] < 0:
                    hops[src, y] = hops[src, x] + 1
                    queue.append(y)
    return hops


class Context:
    """A workload's graph, oracle and derived tables, shared by all checks."""

    def __init__(self, graph, oracle):
        self.graph = graph
        self.oracle = oracle
        self.nu = np.array(graph.nu)
        self.lam = max(graph.rates())
        self.hops = hop_distances(graph)
        self._rows = {}

    def kernel(self, t):
        """(p, err) for every source at time t, cached."""
        if t not in self._rows:
            self._rows[t] = self.oracle.rows(np.arange(self.graph.n), t)
        return self._rows[t]

    def slack(self, t):
        """Allowed |computed - exact| per entry before the program's error
        bound: rounding over K terms plus the oracle's own error."""
        _, err = self.kernel(t)
        return ROUNDING * poisson_terms(self.lam * t) * U + err


class Problems:
    def __init__(self, label):
        self.label = label
        self.items = []
        self.count = 0

    def add(self, what, mask=None, detail=None):
        """Record a problem; with ``mask`` only when some entry is set."""
        if mask is not None:
            bad = np.flatnonzero(mask)
            if not len(bad):
                return
            what = f"{what}: {len(bad)} rows, first at row {bad[0]}"
            if detail is not None:
                what += f" ({detail(bad[0])})"
        self.count += 1
        if len(self.items) < MAX_REPORTED:
            self.items.append(f"{self.label}: {what}")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def column(rows, k, kind=float):
    return np.array([kind(r[k]) for r in rows])


def parse_summary(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else {}


BOUND_HEADER = ("formula", "x1", "x2", "t", "d_nu", "p_computed", "log_bound",
                "log_ratio", "constants_provenance", "pass", "domain_flag")


def _bound_rows(ctx, cmd, header, rows, formula, pb):
    """Shared structure of a bounds report: pairs outer, times inner."""
    if header != BOUND_HEADER:
        pb.add(f"header {header}")
        return None
    n = ctx.graph.n
    grid = cmd.grid()
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if len(rows) != len(pairs) * len(grid) or any(len(r) != 11 for r in rows):
        pb.add(f"{len(rows)} rows, expected {len(pairs) * len(grid)}")
        return None
    i1 = np.repeat([a for a, _ in pairs], len(grid))
    i2 = np.repeat([b for _, b in pairs], len(grid))
    tk = np.tile(np.arange(len(grid)), len(pairs))
    t = grid[tk]
    r = {
        "i1": i1, "i2": i2, "tk": tk, "t": t,
        "x1": column(rows, 1, str), "x2": column(rows, 2, str),
        "t_csv": column(rows, 3), "d": column(rows, 4),
        "p": column(rows, 5), "lb": column(rows, 6), "lr": column(rows, 7),
        "passed": column(rows, 9, str), "flag": column(rows, 10, str),
    }
    pb.add("formula column", column(rows, 0, str) != formula)
    pb.add("pair order", (r["x1"] != i1.astype(str)) | (r["x2"] != i2.astype(str)))
    pb.add("time column", np.abs(r["t_csv"] - t) > CSV_REL * t)
    hops = ctx.hops[i1, i2]
    pb.add("d_nu differs from the hop count", r["d"] != hops,
           lambda k: f"{r['d'][k]} vs {hops[k]}")
    pb.add("pass column", ~np.isin(r["passed"], ("True", "False")))
    r["pass"] = r["passed"] == "True"
    # log_ratio = log p - log_bound, as printed
    with np.errstate(divide="ignore"):
        lr = np.where(r["p"] > 0, np.log(np.maximum(r["p"], 1e-320)) - r["lb"],
                      -np.inf)
    finite = np.isfinite(lr)
    tol = 1e-11 * (1.0 + np.abs(r["lb"]) + np.abs(np.where(finite, lr, 0.0)))
    pb.add("log_ratio is not log p - log_bound",
           np.where(finite, np.abs(r["lr"] - lr) > tol, r["lr"] != lr))
    pb.add("pass flag disagrees with log_ratio <= LOG_TOL",
           r["pass"] != (r["lr"] <= LOG_TOL))
    return r


def _summary_counts(summary, r, pb):
    if summary.get("rows") != len(r["t"]):
        pb.add(f"summary rows {summary.get('rows')}")
    if summary.get("in_domain") != int((r["flag"] == "in").sum()):
        pb.add(f"summary in_domain {summary.get('in_domain')}")
    if summary.get("failures_in_domain") != 0:
        pb.add(f"summary failures_in_domain {summary.get('failures_in_domain')}")


def check_thm11(ctx, cmd, header, rows, summary, empirical):
    pb = Problems(cmd.label)
    r = _bound_rows(ctx, cmd, header, rows, "thm1.1", pb)
    if r is None:
        return pb
    i1, i2, tk, t = r["i1"], r["i2"], r["tk"], r["t"]
    grid = cmd.grid()

    exact = np.empty(len(t))
    slack = np.empty(len(t))
    for k, tv in enumerate(grid):
        sel = tk == k
        p, _ = ctx.kernel(float(tv))
        exact[sel] = p[i1[sel], i2[sel]]
        slack[sel] = ctx.slack(float(tv))[i1[sel], i2[sel]]
    allowed = KERNEL_TOL + slack + CSV_REL * np.abs(r["p"])
    pb.add("p_computed differs from the oracle", np.abs(r["p"] - exact) > allowed,
           lambda k: f"{float(r['p'][k])!r} vs {float(exact[k])!r}")

    provenance = "empirical-fit" if empirical else "paper-explicit"
    if summary.get("provenance") != provenance:
        pb.add(f"summary provenance {summary.get('provenance')}")
    pb.add("provenance column", column(rows, 8, str) != provenance)
    delta = max(1.0, max(ctx.graph.rates()))
    alpha = min(1.0 / (2.0 * GAMMA), 1.0 / (64.0 * delta))
    for key, want in (("gamma", GAMMA), ("delta", delta), ("alpha", alpha),
                      ("beta", math.ceil(math.log(2.0) / math.log(GAMMA)))):
        if not abs(summary.get(key, math.nan) - want) <= 1e-12 * max(1.0, want):
            pb.add(f"summary {key} {summary.get(key)}, expected {want}")
    a_const = summary.get("A", math.nan)
    if not a_const >= 1.0:
        pb.add(f"summary A {a_const} below 1")
    log_c1 = summary.get("log_C1", math.nan)
    if not empirical and abs(log_c1 - paper_log_c1()) > 1e-12 * abs(log_c1):
        pb.add(f"summary log_C1 {log_c1} differs from the paper chain")

    # the Theorem 1.1 display with the exact profile f(s) = 1 / p_s(x, x)
    diag, _ = ctx.oracle.diagonal(summary.get("alpha", alpha) * grid)
    log_f = -np.log(diag)
    d = ctx.hops[i1, i2]
    rest = (summary.get("beta", 1) * math.log(a_const)
            + 0.5 * (np.log(ctx.nu[i2]) - np.log(ctx.nu[i1]))
            - 0.5 * (log_f[tk, i1] + log_f[tk, i2]) - THETA * d * d / t)
    lb = log_c1 + rest
    pb.add("log_bound differs from the Theorem 1.1 display",
           np.abs(r["lb"] - lb) > INTERP_TOL + 1e-11 * np.abs(lb),
           lambda k: f"{float(r['lb'][k])!r} vs {float(lb[k])!r}")

    in_dom = t >= d
    pb.add("domain_flag is not 'in' exactly when t >= d",
           r["flag"] != np.where(in_dom, "in", "out"))
    pb.add("in-domain row fails", in_dom & ~r["pass"])
    # the bound really holds where the program says it does
    lower = exact - allowed
    with np.errstate(divide="ignore", invalid="ignore"):
        true_lr = np.where(lower > 0, np.log(np.maximum(lower, 1e-320)) - lb,
                           -np.inf)
    pb.add("oracle: bound violated in domain",
           in_dom & (true_lr > INTERP_TOL + LOG_TOL))

    if empirical:
        worst = float(r["lr"].max())
        if abs(worst) > LOG_TOL:
            pb.add(f"fitted constant is not the least one: max log_ratio {worst!r}")
        # least constant from the oracle: max over rows of log p - log bound|C1=1
        usable = exact > 2 * allowed
        fit = float(np.max(np.log(exact[usable]) - rest[usable]))
        if abs(fit - log_c1) > INTERP_TOL:
            pb.add(f"summary log_C1 {log_c1!r}, oracle least constant {fit!r}")
    _summary_counts(summary, r, pb)
    return pb


def _tail_tables(ctx, t):
    """Tail masses <u(t)^2, 1 - 1_B(o, R)> for every origin o and integer
    radius R, with u = nu_o^(1/2) p_t(o, .) / nu, and their allowed error."""
    p, err = ctx.kernel(t)
    delta = KERNEL_TOL + ctx.slack(t) + err
    w = ctx.nu[:, None] / ctx.nu[None, :]
    mass = w * p * p
    spread = w * delta * (2.0 * (np.abs(p) + err) + delta)
    radii = np.arange(ctx.hops.max() + 2)
    outside = ctx.hops[:, :, None] >= radii[None, None, :]
    return (np.einsum("oz,ozr->or", mass, outside),
            np.einsum("oz,ozr->or", spread, outside))


def check_prop26(ctx, cmd, header, rows, summary):
    pb = Problems(cmd.label)
    r = _bound_rows(ctx, cmd, header, rows, "prop2.6", pb)
    if r is None:
        return pb
    i1, tk, t = r["i1"], r["tk"], r["t"]
    d = ctx.hops[i1, r["i2"]]
    exact = np.empty(len(t))
    allowed = np.empty(len(t))
    for k, tv in enumerate(cmd.grid()):
        sel = tk == k
        tail, spread = _tail_tables(ctx, float(tv))
        exact[sel] = tail[i1[sel], d[sel]]
        allowed[sel] = spread[i1[sel], d[sel]]
    allowed += CSV_REL * np.abs(r["p"])
    pb.add("tail mass differs from the oracle", np.abs(r["p"] - exact) > allowed,
           lambda k: f"{float(r['p'][k])!r} vs {float(exact[k])!r}")
    # Proposition 2.6: -R^2/8t for t >= R, else -R log(1.01 R/t) + 120
    lb = np.where(t >= d, -d * d / (8.0 * t), -d * np.log(1.01 * d / t) + 120.0)
    pb.add("log_bound differs from Proposition 2.6",
           np.abs(r["lb"] - lb) > 1e-11 * (1.0 + np.abs(lb)))
    pb.add("domain_flag is not 'in'", r["flag"] != "in")
    pb.add("row fails", ~r["pass"])
    lower = exact - allowed
    with np.errstate(divide="ignore"):
        true_lr = np.where(lower > 0, np.log(np.maximum(lower, 1e-320)) - lb,
                           -np.inf)
    pb.add("oracle: tail bound violated", true_lr > LOG_TOL)
    if summary.get("provenance") != "paper-explicit":
        pb.add(f"summary provenance {summary.get('provenance')}")
    _summary_counts(summary, r, pb)
    return pb


KERNEL_HEADER = ("source", "target", "t", "prob", "method", "err_bound")


def check_kernel(ctx, cmd, header, rows, summary):
    pb = Problems(cmd.label)
    if header != KERNEL_HEADER:
        pb.add(f"header {header}")
        return pb
    n = ctx.graph.n
    grid = cmd.grid()
    source = int(cmd.arg("--source"))
    if len(rows) != n * len(grid) or any(len(r) != 6 for r in rows):
        pb.add(f"{len(rows)} rows, expected {n * len(grid)}")
        return pb
    tk = np.repeat(np.arange(len(grid)), n)
    t = grid[tk]
    target = np.tile(np.arange(n), len(grid))
    pb.add("source column", column(rows, 0, str) != str(source))
    pb.add("target order", column(rows, 1, str) != target.astype(str))
    t_csv = column(rows, 2)
    pb.add("time column", np.abs(t_csv - t) > CSV_REL * t)
    pb.add("method column", column(rows, 4, str) != "series-uniformization")
    prob = column(rows, 3)
    err_bound = column(rows, 5)
    pb.add("err_bound outside [0, tol]",
           ~((err_bound >= 0) & (err_bound <= KERNEL_TOL * (1 + CSV_REL))))
    exact = np.empty(len(t))
    slack = np.empty(len(t))
    for k, tv in enumerate(grid):
        sel = tk == k
        p, _ = ctx.kernel(float(tv))
        exact[sel] = p[source]
        slack[sel] = ctx.slack(float(tv))[source]
    allowed = err_bound + slack + CSV_REL * np.abs(prob)
    pb.add("prob differs from the oracle by more than err_bound + K*u",
           np.abs(prob - exact) > allowed,
           lambda k: f"{float(prob[k])!r} vs {float(exact[k])!r}, "
                     f"err_bound {float(err_bound[k])!r}")
    for k, tv in enumerate(grid):
        sel = tk == k
        deficit = abs(1.0 - math.fsum(prob[sel]))
        limit = (err_bound[sel].max() + ROUNDING * poisson_terms(ctx.lam * tv) * U
                 + CSV_REL * prob[sel].sum())
        if deficit > limit:
            pb.add(f"mass deficit {deficit:.3e} above err_bound + K*u "
                   f"at t={float(tv)!r}")
    if summary.get("rows") != len(rows):
        pb.add(f"summary rows {summary.get('rows')}")
    return pb


def _family(cmd, ctx, origin):
    """(log h, d/dt log h) of the imp test function the command builds."""
    family = cmd.arg("--family")
    radius = float(cmd.arg("--R"))
    d_o = ctx.hops[origin].astype(float)
    if family == "drift":
        a = float(cmd.arg("--a"))
        rho = np.minimum(d_o, radius)
        return (lambda t: a * rho - 0.5 * a * a * t,
                lambda t: np.full(len(rho), -0.5 * a * a))
    radius = max(radius, 1.0)
    big_d = float(cmd.arg("--bigd"))
    delta = 24.0 * radius / big_d
    s = float(cmd.grid()[-1])
    rho = np.maximum(radius - d_o, 1.0)
    return (lambda t: -rho * rho / (big_d * (s - t + delta)),
            lambda t: -rho * rho / (big_d * (s - t + delta) ** 2))


def check_imp(ctx, cmd, header, rows, summary):
    pb = Problems(cmd.label)
    if header != ("t", "J", "worst_edge", "slack"):
        pb.add(f"header {header}")
        return pb
    grid = cmd.grid()
    if len(rows) != len(grid) or any(len(r) != 4 for r in rows):
        pb.add(f"{len(rows)} rows, expected {len(grid)}")
        return pb
    origin = int(cmd.arg("--source"))
    log_h, dlog_h = _family(cmd, ctx, origin)
    pb.add("time column", np.abs(column(rows, 0) - grid) > CSV_REL * grid)
    j_csv = column(rows, 1)

    # J(t) = <u(t)^2, h(t)>, u = nu_o^(1/2) p_t(o, .) / nu
    j_exact = np.empty(len(grid))
    j_err = np.empty(len(grid))
    allowed = np.empty(len(grid))
    w = ctx.nu[origin] / ctx.nu
    for k, tv in enumerate(grid):
        p, err = ctx.kernel(float(tv))
        p, err = p[origin], err[origin]
        h = np.exp(log_h(tv))
        delta = KERNEL_TOL + ctx.slack(float(tv))[origin] + err
        j_exact[k] = float(np.sum(w * p * p * h))
        j_err[k] = float(np.sum(w * h * err * (2.0 * np.abs(p) + err)))
        allowed[k] = float(np.sum(w * h * delta * (2.0 * (np.abs(p) + err) + delta)))
    pb.add("J differs from the oracle", np.abs(j_csv - j_exact)
           > allowed + CSV_REL * np.abs(j_csv),
           lambda k: f"{float(j_csv[k])!r} vs {float(j_exact[k])!r}")
    pb.add("oracle J increases", np.diff(j_exact) > j_err[1:] + j_err[:-1])
    j_tol = summary.get("J_tol", math.nan)
    pb.add("reported J increases beyond J_tol",
           j_csv[1:] / j_csv[:-1] - 1.0 > j_tol + 2 * CSV_REL)
    # the summary prints J_monotone as the string "True" when the coupled
    # J tolerance is in force (a numpy bool); both spellings mean true
    if summary.get("J_monotone") not in (True, "True"):
        pb.add("summary J_monotone is not true")

    # edge-wise admissibility, both orientations:
    # sinh^2((log h(x) - log h(y)) / 2) <= -d(x, y)^2 d/dt log h(t, y)
    ei = np.array([e[0] for e in ctx.graph.edges])
    ej = np.array([e[1] for e in ctx.graph.edges])
    d_sq = ctx.hops[ei, ej].astype(float) ** 2
    violated = 0
    for tv in grid:
        lh, dl = log_h(tv), dlog_h(tv)
        lhs = np.sinh(0.5 * (lh[ei] - lh[ej])) ** 2
        for y in (ei, ej):
            rhs = -d_sq * dl[y]
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            violated += int(np.sum(lhs - rhs > 1e-9 * scale))
    if violated:
        pb.add(f"test function not admissible on {violated} edge-times")
    pb.add("reported membership slack below -1e-9", column(rows, 3) < -1e-9)
    if summary.get("membership_pass") is not True:
        pb.add("summary membership_pass is not true")
    return pb


def check_command(ctx, cmd, out_path, summary_text):
    """Problems of one command's output, as a Problems object."""
    header, rows = read_csv(out_path)
    summary = parse_summary(summary_text)
    if cmd.check == "thm1.1-paper":
        return check_thm11(ctx, cmd, header, rows, summary, empirical=False)
    if cmd.check == "thm1.1-empirical":
        return check_thm11(ctx, cmd, header, rows, summary, empirical=True)
    if cmd.check == "prop2.6":
        return check_prop26(ctx, cmd, header, rows, summary)
    if cmd.check == "kernel":
        return check_kernel(ctx, cmd, header, rows, summary)
    if cmd.check == "imp":
        return check_imp(ctx, cmd, header, rows, summary)
    raise ValueError(f"no checker {cmd.check!r}")
