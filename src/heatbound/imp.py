"""Integral maximum principle machinery: test-function classes and checks.

A positive space-time function h is admissible for the principle when, on
every edge and time,

    |h(t,x) - h(t,y)|^2 / (4 h(t,x) h(t,y))  <=  -d(x,y)^2 * d/dt log h(t,y),

with d an adapted metric.  For such h and any point-mass-normalized kernel
evolution u, the functional J(t) = <u(t,.)^2, h(t,.)> is non-increasing.
Three concrete families are provided (a logarithmic-drift profile, an
exponential drift, and a backward Gaussian), each carrying the analytic time
derivative of log h; finite differences are only a cross-check, because the
edge inequality is sensitive near the branch point of the logarithmic family.

All edge quantities are computed from log h:
|h(x)-h(y)|^2 / (4 h(x) h(y)) = sinh^2((log h(x) - log h(y))/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import VertexFunction
from .kernel import KernelEvolution

E4 = math.e / 4.0


# ---------------------------------------------------------------------------
# weight functions rho

def make_rho(metric, o, R, variant="capped-dist"):
    """Weight function with |rho(x) - rho(y)| <= d(x, y) on every edge.

    "capped-dist": rho = d(o, .) ^ R (the usual choice); "reflected":
    rho = (R - d(o, .)) v 1, which keeps rho in [1, R] as the Gaussian family
    requires.  The Lipschitz constraint is verified on all edges.
    """
    g = metric.graph
    d_o = metric.dist[g.index(o)]
    if R < 0:
        raise ValueError("R must be nonnegative")
    if variant == "capped-dist":
        vals = np.minimum(d_o, R)
    elif variant == "reflected":
        vals = np.maximum(R - d_o, 1.0)
    else:
        raise ValueError(f"unknown rho variant {variant!r}")
    rho = VertexFunction(g, vals)
    _verify_lipschitz(metric, rho)
    return rho


def _verify_lipschitz(metric, rho):
    g = metric.graph
    if not g.n_edges:
        return
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    gap = np.abs(rho.values[i] - rho.values[j]) - metric.dist[i, j]
    if gap.max() > 1e-9:
        k = int(np.argmax(gap))
        raise ValueError(
            f"rho violates the edge Lipschitz constraint at "
            f"{g.vertex_ids[i[k]]!r} -- {g.vertex_ids[j[k]]!r} by {gap[k]:.3e}")


# ---------------------------------------------------------------------------
# test functions

class TestFunction:
    """Positive space-time function given through log h and d/dt log h.

    ``log_h_fn`` and ``dlog_dt_fn`` map a time to an array over vertices.
    ``interval`` restricts admissible times (closed on both ends).
    """

    __test__ = False  # not a pytest class, despite the mathematical name

    def __init__(self, kind, rho, log_h_fn, dlog_dt_fn,
                 interval=(0.0, math.inf), params=None):
        self.kind = kind
        self.rho = rho
        self.interval = (float(interval[0]), float(interval[1]))
        self.params = dict(params or {})
        self._log_h = log_h_fn
        self._dlog = dlog_dt_fn

    def _check_time(self, t):
        lo, hi = self.interval
        if t < lo - 1e-12 or t > hi + 1e-12:
            raise ValueError(f"time {t} outside test-function interval "
                             f"[{lo:g}, {hi:g}]")

    def log_h(self, t):
        self._check_time(t)
        out = np.asarray(self._log_h(float(t)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError("test function is not positive/finite at t=%g" % t)
        return out

    def h(self, t):
        return np.exp(self.log_h(t))

    def dlog_dt(self, t):
        self._check_time(t)
        return np.asarray(self._dlog(float(t)), dtype=float)

    def __repr__(self):
        return f"TestFunction({self.kind}, {self.params})"


def make_lemma23(tau, rho):
    """Logarithmic-drift profile h(t,z) = exp{(rho(z) - m) log(1 v rho(z)/m) - t/tau}
    with m = (e/4)(t + tau): the radial class GClassFunction.from_lemma23
    applied to rho.

    The analytic derivative evaluates the max(1, .) branch first and uses the
    one-sided form at the branch point rho = m:
    -d/dt log h = 1/tau + (e/4) log(1 v rho/m) + ((rho - m) v 0)/(t + tau).
    """
    return GClassFunction.from_lemma23(tau)._applied(rho, "lemma23")


def make_drift(a, rho):
    """Exponential drift h(t,x) = exp(a rho(x) - a^2 t / 2), a in [0, 1/4]:
    the radial class GClassFunction.from_drift applied to rho."""
    return GClassFunction.from_drift(a)._applied(rho, "drift")


def make_gaussian(D, R, Delta, s, rho):
    """Backward Gaussian h(t,x) = exp(-rho(x)^2 / (D (s - t + Delta))) on [0, s].

    Requires D >= 5, R >= 1, Delta >= 24 R / D, s > 0 and rho in [1, R]
    everywhere.
    """
    if D < 5:
        raise ValueError("need D >= 5")
    if R < 1:
        raise ValueError("need R >= 1")
    if Delta < 24.0 * R / D - 1e-12:
        raise ValueError("need Delta >= 24 R / D")
    if s <= 0:
        raise ValueError("need s > 0")
    vals = rho.values
    if vals.min() < 1.0 - 1e-12 or vals.max() > R + 1e-12:
        raise ValueError("gaussian family needs 1 <= rho <= R everywhere")
    sq = vals * vals

    def log_h(t):
        return -sq / (D * (s - t + Delta))

    def dlog(t):
        u = s - t + Delta
        return -sq / (D * u * u)

    return TestFunction("gaussian", rho, log_h, dlog, interval=(0.0, s),
                        params={"D": D, "R": R, "Delta": Delta, "s": s})


# ---------------------------------------------------------------------------
# membership checks

@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    worst_slack: float
    worst_time: float
    worst_edge: tuple
    n_checks: int

    def __bool__(self):
        return self.passed


def is_in_F(h, g, metric, time_grid, rel_tol=1e-9):
    """Edge-wise admissibility check of h against the metric, on the grid.

    Both orientations of every edge are checked (the derivative is taken at
    the second vertex).  Slack is (RHS - LHS) / max(1, |LHS|, |RHS|); the
    report carries the worst (time, edge).
    """
    if not g.n_edges:
        return MembershipReport(True, math.inf, float("nan"), (), 0)
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    d_sq = metric.dist[i, j] ** 2
    worst = (math.inf, float("nan"), ())
    n_checks = 0
    for t in time_grid:
        lh = h.log_h(t)
        dl = h.dlog_dt(t)
        lhs = np.sinh(0.5 * (lh[i] - lh[j])) ** 2
        for y_idx, x_idx in ((j, i), (i, j)):
            rhs = -d_sq * dl[y_idx]
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            slack = (rhs - lhs) / scale
            k = int(np.argmin(slack))
            n_checks += len(slack)
            if slack[k] < worst[0]:
                worst = (float(slack[k]), float(t),
                         (g.vertex_ids[x_idx[k]], g.vertex_ids[y_idx[k]]))
    return MembershipReport(passed=worst[0] >= -rel_tol, worst_slack=worst[0],
                            worst_time=worst[1], worst_edge=worst[2],
                            n_checks=n_checks)


def check_condition_2_2(h, g, time_grid, rel_tol=1e-9):
    """Aggregated per-vertex admissibility:
    (1/nu_y) sum_x |h(x)-h(y)|^2/(4 h(x) h(y)) mu_xy <= -d/dt log h(t,y).

    This is the exact hypothesis the monotonicity theorem needs; the edge-wise
    check plus an adapted metric implies it.
    """
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    worst = (math.inf, float("nan"), None)
    for t in time_grid:
        lh = h.log_h(t)
        dl = h.dlog_dt(t)
        contrib = np.sinh(0.5 * (lh[i] - lh[j])) ** 2 * g.edge_mu
        agg = np.zeros(g.n)
        np.add.at(agg, i, contrib)
        np.add.at(agg, j, contrib)
        lhs = agg / g.nu
        rhs = -dl
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        slack = (rhs - lhs) / scale
        k = int(np.argmin(slack))
        if slack[k] < worst[0]:
            worst = (float(slack[k]), float(t), g.vertex_ids[k])
    return MembershipReport(passed=worst[0] >= -rel_tol, worst_slack=worst[0],
                            worst_time=worst[1], worst_edge=(worst[2],),
                            n_checks=len(time_grid) * g.n)


# ---------------------------------------------------------------------------
# J-monotonicity

@dataclass(frozen=True)
class JReport:
    passed: bool
    times: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)
    tol_used: float
    worst_ratio: float  # max of J(t_{i+1})/J(t_i) - 1

    def __bool__(self):
        return self.passed

    def rows(self, membership=None):
        """CSV-ready rows (t, J, worst_edge, slack) using a membership report."""
        edge = "|".join(membership.worst_edge) if membership else ""
        slack = membership.worst_slack if membership else float("nan")
        return [(float(t), float(jv), edge, slack)
                for t, jv in zip(self.times, self.J)]


def check_J_monotone(u, h, time_grid, base_tol=1e-8):
    """Check that J(t) = <u(t,.)^2, h(t,.)> is non-increasing on the grid.

    The tolerance couples to the kernel truncation error:
    tol = max(base_tol, 10 * err_bound / min J).  Raises when the kernel
    tolerance is too large for the J scale to make the check meaningful.
    """
    times = np.asarray(list(time_grid), dtype=float)
    if len(times) < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    g = u.graph
    u.fill(times)
    J = np.empty(len(times))
    max_err = 0.0
    for k, t in enumerate(times):
        vals = u.u(t)
        J[k] = float(np.dot(vals * vals * h.h(t), g.nu))
        max_err = max(max_err, u.err_bound(t))
    min_J = J.min()
    if min_J <= 0:
        raise ValueError("J vanished on the grid; refine the grid or the domain")
    tol = max(base_tol, 10.0 * max_err / min_J)
    if tol > 0.1:
        raise ValueError(
            f"kernel tolerance too coarse for this grid: coupled J tolerance "
            f"{tol:.2e} exceeds 0.1; tighten the kernel tol")
    ratios = J[1:] / J[:-1] - 1.0
    worst = float(ratios.max())
    return JReport(passed=worst <= tol, times=times, J=J, tol_used=tol,
                   worst_ratio=worst)


# ---------------------------------------------------------------------------
# radial profiles and the two-radius tail lemma

class GClassFunction:
    """Radial profile g(t, r), non-decreasing in r, composing to a test function.

    ``log_g_fn(t, r)`` and ``dlog_dt_fn(t, r)`` accept array r.  Composition
    substitutes r = d(o, .) ^ R.
    """

    def __init__(self, kind, log_g_fn, dlog_dt_fn, interval=(0.0, math.inf),
                 params=None):
        self.kind = kind
        self.interval = (float(interval[0]), float(interval[1]))
        self.params = dict(params or {})
        self._log_g = log_g_fn
        self._dlog = dlog_dt_fn

    def log_g(self, t, r):
        return self._log_g(float(t), np.asarray(r, dtype=float))

    def g(self, t, r):
        return np.exp(self.log_g(t, r))

    def _applied(self, rho, kind):
        """The test function h(t, x) = g(t, rho(x)), labelled ``kind``."""
        vals = rho.values
        return TestFunction(kind, rho, lambda t: self._log_g(t, vals),
                            lambda t: self._dlog(t, vals),
                            interval=self.interval, params=self.params)

    def compose(self, metric, o, R):
        rho = make_rho(metric, o, R, variant="capped-dist")
        return self._applied(rho, f"g-class:{self.kind}")

    @classmethod
    def from_lemma23(cls, tau):
        if tau <= 0:
            raise ValueError("tau must be positive")

        def log_g(t, r):
            m = E4 * (t + tau)
            ratio = np.maximum(r / m, 1.0)
            return (r - m) * np.log(ratio) - t / tau

        def dlog(t, r):
            m = E4 * (t + tau)
            ratio = np.maximum(r / m, 1.0)
            return -(1.0 / tau + E4 * np.log(ratio)
                     + np.maximum(r - m, 0.0) / (t + tau))

        return cls("lemma23", log_g, dlog, params={"tau": tau})

    @classmethod
    def from_drift(cls, a):
        if not 0.0 <= a <= 0.25:
            raise ValueError("drift parameter a must lie in [0, 1/4]")
        return cls("drift",
                   lambda t, r: a * r - 0.5 * a * a * t,
                   lambda t, r: np.full_like(np.asarray(r, float), -0.5 * a * a),
                   params={"a": a})


def check_g_class(gfun, metric, o, R, time_grid, r_grid=None, rel_tol=1e-9):
    """Membership gate for the radial class: monotone in r + composed membership."""
    if r_grid is None:
        r_grid = np.linspace(0.0, max(R, 1.0), 33)
    for t in time_grid:
        vals = gfun.log_g(t, r_grid)
        if np.any(np.diff(vals) < -rel_tol):
            return MembershipReport(False, float(np.diff(vals).min()), float(t),
                                    ("r-monotonicity",), len(r_grid))
    composed = gfun.compose(metric, o, R)
    return is_in_F(composed, metric.graph, metric, time_grid, rel_tol=rel_tol)


@dataclass(frozen=True)
class KeyLemmaReport:
    passed: bool
    lhs: float
    rhs: float
    norm_term: float
    tail_term: float

    def __bool__(self):
        return self.passed


def check_key_lemma(u, gfun, tau, T, r, R, metric, rel_tol=1e-9,
                    membership_grid=None):
    """Two-radius tail comparison for a kernel evolution u and radial g:

    <u(T,.)^2, 1-1_{B_R}>  <=  (g(tau,r)/g(T,R)) ||u(tau,.)||^2
                              + (g(tau,R)/g(T,R)) <u(tau,.)^2, 1-1_{B_r}>.

    g must pass the radial-class gate on [tau, T]; that failing is an error,
    not a report outcome.
    """
    if not (T >= tau >= 0):
        raise ValueError("need T >= tau >= 0")
    if not (R >= r >= 0):
        raise ValueError("need R >= r >= 0")
    if membership_grid is None:
        membership_grid = np.linspace(tau, T, 21) if T > tau else [tau]
    gate = check_g_class(gfun, metric, u.origin, R, membership_grid,
                         rel_tol=rel_tol)
    if not gate.passed:
        raise ValueError(f"radial profile failed the class gate "
                         f"(worst slack {gate.worst_slack:.3e} at "
                         f"t={gate.worst_time:g}, {gate.worst_edge})")
    outside_R = ~metric.ball(u.origin, R)
    outside_r = ~metric.ball(u.origin, r)
    lhs = u.tail_mass(T, outside_R)
    log_gTR = float(gfun.log_g(T, R))
    c_norm = math.exp(float(gfun.log_g(tau, r)) - log_gTR)
    c_tail = math.exp(float(gfun.log_g(tau, R)) - log_gTR)
    norm_term = c_norm * u.norm_sq(tau)
    tail_term = c_tail * u.tail_mass(tau, outside_r)
    rhs = norm_term + tail_term
    passed = lhs <= rhs * (1.0 + rel_tol) + 1e-300
    return KeyLemmaReport(passed=passed, lhs=lhs, rhs=rhs,
                          norm_term=norm_term, tail_term=tail_term)


# ---------------------------------------------------------------------------
# derivative cross-check

def gradient_check(h, times, vertex_indices, step=1e-5):
    """Max relative error of analytic d/dt log h against centered differences.

    Samples are (t, vertex) pairs; times too close to the interval ends are
    shifted inward by one step.
    """
    lo, hi = h.interval
    worst = 0.0
    for t, v in zip(times, vertex_indices):
        t = max(float(t), lo + step)
        if math.isfinite(hi):
            t = min(t, hi - step)
        fd = (h.log_h(t + step)[v] - h.log_h(t - step)[v]) / (2.0 * step)
        an = h.dlog_dt(t)[v]
        err = abs(fd - an) / max(1e-12, abs(an))
        worst = max(worst, err)
    return worst


def membership_suite(g, metric, families, time_grid, rel_tol=1e-9):
    """Run is_in_F for a list of built test functions; returns {label: report}."""
    out = {}
    for label, h in families:
        out[label] = is_in_F(h, g, metric, time_grid, rel_tol=rel_tol)
    return out


__all__ = [
    "make_rho", "TestFunction", "make_lemma23", "make_drift", "make_gaussian",
    "MembershipReport", "is_in_F", "check_condition_2_2", "JReport",
    "check_J_monotone", "GClassFunction", "check_g_class", "KeyLemmaReport",
    "check_key_lemma", "gradient_check", "membership_suite", "KernelEvolution",
]
