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

#: relative slack of the membership, condition (2.2) and key-lemma checks
REL_TOL = 1e-9
#: floor of the J-monotonicity tolerance, before the kernel error couples in
J_TOL = 1e-8
#: step of the centered differences in gradient_check
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# weight functions rho

def make_rho(metric, o, R, variant="capped-dist"):
    """Weight function with |rho(x) - rho(y)| <= d(x, y) on every edge.

    "capped-dist": rho = d(o, .) ^ R (the usual choice; R = inf leaves it
    uncapped); "reflected": rho = (R - d(o, .)) v 1 for finite R, which keeps
    rho in [1, R] as the Gaussian family requires.  The Lipschitz constraint
    is verified on all edges.
    """
    g = metric.graph
    d_o = metric.dist[g.index(o)]
    if not R >= 0:  # also rejects nan
        raise ValueError(f"R must be nonnegative, got {R!r}")
    if variant == "capped-dist":
        vals = np.minimum(d_o, R)
    elif variant == "reflected":
        if R == math.inf:
            raise ValueError("the reflected rho needs a finite R")
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
    """Positive space-time function h(t, x) = g(t, rho(x)) of a radial
    profile g (a GClassFunction) and a weight rho, given through log h and
    d/dt log h.  Its times are the profile's interval (closed on both ends).

    ``log_h``, ``h`` and ``dlog_dt`` take one time, giving one value per
    vertex, or an array of times, giving one row per time.
    """

    __test__ = False  # not a pytest class, despite the mathematical name

    def __init__(self, profile, rho, kind=None):
        self.profile = profile
        self.rho = rho
        self.kind = profile.kind if kind is None else kind

    interval = property(lambda self: self.profile.interval)
    params = property(lambda self: self.profile.params)

    def _rows(self, fn, t, what):
        """fn(t, rho) at the time or times t, which must lie in the interval;
        a value that is not finite is an error naming the first such time."""
        rows = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.interval
        outside = (rows < lo - 1e-12) | (rows > hi + 1e-12)
        if outside.any():
            raise ValueError(f"time {rows[outside][0]} outside test-function "
                             f"interval [{lo:g}, {hi:g}]")
        # an overflow is the finiteness error below, not a numpy warning
        with np.errstate(all="ignore"):
            out = fn(rows[:, None], self.rho.values)
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            raise ValueError(f"{what} at t={rows[bad][0]:g}")
        return out if np.ndim(t) else out[0]

    def log_h(self, t):
        return self._rows(self.profile._log_g, t,
                          "test function is not positive/finite")

    def h(self, t):
        return np.exp(self.log_h(t))

    def dlog_dt(self, t):
        return self._rows(self.profile._dlog, t, "d/dt log h is not finite")

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
    return TestFunction(GClassFunction.from_lemma23(tau), rho)


def make_drift(a, rho):
    """Exponential drift h(t,x) = exp(a rho(x) - a^2 t / 2), a in [0, 1/4]:
    the radial class GClassFunction.from_drift applied to rho."""
    return TestFunction(GClassFunction.from_drift(a), rho)


def make_gaussian(D, R, Delta, s, rho):
    """Backward Gaussian h(t,x) = exp(-rho(x)^2 / (D (s - t + Delta))) on [0, s].

    Requires finite D >= 5, R >= 1, Delta >= 24 R / D and s > 0, and rho in
    [1, R] everywhere.
    """
    if not all(map(math.isfinite, (D, R, Delta, s))):
        raise ValueError(f"D, R, Delta and s must be finite, got "
                         f"{(D, R, Delta, s)!r}")
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

    def log_g(t, r):
        return -(r * r) / (D * (s - t + Delta))

    def dlog(t, r):
        u = s - t + Delta
        return -(r * r) / (D * u * u)

    return TestFunction(GClassFunction(
        "gaussian", log_g, dlog, interval=(0.0, s),
        params={"D": D, "R": R, "Delta": Delta, "s": s}), rho)


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


def _slack(lhs, rhs):
    """Relative slack (rhs - lhs) / max(1, |lhs|, |rhs|) of lhs <= rhs."""
    return (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _membership(slack, times, g, *ends):
    """Report on a slack array with one row per time: the worst cell is the
    first least slack in row-major order (time first), and names the vertices
    ends[m][c] of its cell c within the row."""
    if not slack.size:
        return MembershipReport(True, math.inf, float("nan"), (), 0)
    k = int(np.argmin(slack))  # the first nan, if any: a nan fails
    t, c = divmod(k, slack.size // len(times))
    worst = float(slack.flat[k])
    return MembershipReport(passed=worst >= -REL_TOL, worst_slack=worst,
                            worst_time=float(times[t]),
                            worst_edge=tuple(g.vertex_ids[e[c]] for e in ends),
                            n_checks=slack.size)


def is_in_F(h, g, metric, time_grid):
    """Edge-wise admissibility check of h against the metric, on the grid.

    Both orientations of every edge are checked (the derivative is taken at
    the second vertex).  Slack is (RHS - LHS) / max(1, |LHS|, |RHS|); the
    report carries the worst (time, edge).
    """
    times = np.asarray(time_grid, dtype=float)
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    x, y = np.stack([i, j]), np.stack([j, i])  # the two orientations
    lh, dl = h.log_h(times), h.dlog_dt(times)
    lhs = np.sinh(0.5 * (lh[:, i] - lh[:, j])) ** 2
    rhs = -metric.dist[i, j] ** 2 * dl[:, y]
    return _membership(_slack(lhs[:, None], rhs), times, g,
                       x.ravel(), y.ravel())


def check_condition_2_2(h, g, time_grid):
    """Aggregated per-vertex admissibility:
    (1/nu_y) sum_x |h(x)-h(y)|^2/(4 h(x) h(y)) mu_xy <= -d/dt log h(t,y).

    This is the exact hypothesis the monotonicity theorem needs; the edge-wise
    check plus an adapted metric implies it.
    """
    times = np.asarray(time_grid, dtype=float)
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    lh, dl = h.log_h(times), h.dlog_dt(times)
    contrib = np.sinh(0.5 * (lh[:, i] - lh[:, j])) ** 2 * g.edge_mu
    agg = np.zeros_like(lh)
    # unbuffered, edge by edge: every i end, then every j end
    np.add.at(agg, (slice(None), np.concatenate([i, j])),
              np.concatenate([contrib, contrib], axis=1))
    return _membership(_slack(agg / g.nu, -dl), times, g, range(g.n))


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


def check_J_monotone(u, h, time_grid):
    """Check that J(t) = <u(t,.)^2, h(t,.)> is non-increasing on the grid.

    The tolerance couples to the kernel truncation error:
    tol = max(J_TOL, 10 * err_bound / min J).  Raises when the kernel
    tolerance is too large for the J scale to make the check meaningful
    (tol > 0.1, a vanishing J with a nonzero err_bound included), and when J
    vanishes with no kernel error.
    """
    times = np.asarray(list(time_grid), dtype=float)
    if len(times) < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    u.fill(times)
    vals = np.array([u.u(t) for t in times])
    w = vals * vals * h.h(times)
    # one (1 x n) @ (n x 1) product per row: the dot np.dot takes, bit for bit
    J = (w[:, None, :] @ u.graph.nu[:, None])[:, 0, 0]
    max_err = max(map(u.err_bound, times))
    min_J = float(J.min())
    # also when J vanishes where the kernel has an error: the clamped kernel
    # can read 0 there, which says nothing about J
    if 10.0 * max_err > 0.1 * min_J:
        raise ValueError(
            f"kernel tolerance too coarse for this grid: 10 * err_bound = "
            f"{10.0 * max_err:.2e} exceeds 0.1 * min J = {0.1 * min_J:.2e}; "
            f"tighten the kernel tol")
    if min_J <= 0:
        raise ValueError("J vanished on the grid; refine the grid or the domain")
    tol = max(J_TOL, 10.0 * max_err / min_J)
    ratios = J[1:] / J[:-1] - 1.0
    worst = float(ratios.max())
    return JReport(passed=bool(worst <= tol), times=times, J=J, tol_used=tol,
                   worst_ratio=worst)


# ---------------------------------------------------------------------------
# radial profiles and the two-radius tail lemma

class GClassFunction:
    """Radial profile g(t, r) composing to a test function; the key lemma's
    class also needs it non-decreasing in r, which check_g_class gates.

    ``log_g_fn(t, r)`` and ``dlog_dt_fn(t, r)`` take arrays t and r and
    return a value for each pair of their broadcast.  Composition
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
        return self._log_g(np.asarray(t, float), np.asarray(r, float))

    def g(self, t, r):
        return np.exp(self.log_g(t, r))

    def compose(self, metric, o, R):
        rho = make_rho(metric, o, R, variant="capped-dist")
        return TestFunction(self, rho, f"g-class:{self.kind}")

    @classmethod
    def from_lemma23(cls, tau):
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {tau!r}")

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
                   lambda t, r: np.full(np.broadcast(t, r).shape, -0.5 * a * a),
                   params={"a": a})


def check_g_class(gfun, metric, o, R, time_grid):
    """Membership gate for the radial class: monotone in r on 33 radii of
    [0, R v 1], and the composed function in F."""
    times = np.asarray(time_grid, dtype=float)
    r_grid = np.linspace(0.0, max(R, 1.0), 33)
    steps = np.diff(gfun.log_g(times[:, None], r_grid), axis=1)
    falls = np.any(steps < -REL_TOL, axis=1)
    if falls.any():
        k = int(np.argmax(falls))
        return MembershipReport(False, float(steps[k].min()), float(times[k]),
                                ("r-monotonicity",), len(r_grid))
    return is_in_F(gfun.compose(metric, o, R), metric.graph, metric, times)


@dataclass(frozen=True)
class KeyLemmaReport:
    passed: bool
    lhs: float
    rhs: float
    norm_term: float
    tail_term: float

    def __bool__(self):
        return self.passed


def check_key_lemma(u, gfun, tau, T, r, R, metric):
    """Two-radius tail comparison for a kernel evolution u and radial g:

    <u(T,.)^2, 1-1_{B_R}>  <=  (g(tau,r)/g(T,R)) ||u(tau,.)||^2
                              + (g(tau,R)/g(T,R)) <u(tau,.)^2, 1-1_{B_r}>.

    g must pass the radial-class gate on 21 times of [tau, T]; that failing
    is an error, not a report outcome.
    """
    if not (T >= tau >= 0):
        raise ValueError("need T >= tau >= 0")
    if not (R >= r >= 0):
        raise ValueError("need R >= r >= 0")
    membership_grid = np.linspace(tau, T, 21) if T > tau else [tau]
    gate = check_g_class(gfun, metric, u.origin, R, membership_grid)
    if not gate.passed:
        raise ValueError(f"radial profile failed the class gate "
                         f"(worst slack {gate.worst_slack:.3e} at "
                         f"t={gate.worst_time:g}, {gate.worst_edge})")
    u.fill([tau, T])
    outside_R = ~metric.ball(u.origin, R)
    outside_r = ~metric.ball(u.origin, r)
    lhs = u.tail_mass(T, outside_R)
    log_gTR = float(gfun.log_g(T, R))
    c_norm = math.exp(float(gfun.log_g(tau, r)) - log_gTR)
    c_tail = math.exp(float(gfun.log_g(tau, R)) - log_gTR)
    norm_term = c_norm * u.norm_sq(tau)
    tail_term = c_tail * u.tail_mass(tau, outside_r)
    rhs = norm_term + tail_term
    passed = lhs <= rhs * (1.0 + REL_TOL) + 1e-300
    return KeyLemmaReport(passed=passed, lhs=lhs, rhs=rhs,
                          norm_term=norm_term, tail_term=tail_term)


# ---------------------------------------------------------------------------
# derivative cross-check

def gradient_check(h, times, vertex_indices):
    """Max relative error of analytic d/dt log h against centered differences
    of step FD_STEP.

    Samples are (t, vertex) pairs; times too close to the interval ends are
    shifted inward by one step.
    """
    lo, hi = h.interval
    t = np.minimum(np.maximum(np.asarray(times, dtype=float), lo + FD_STEP),
                   hi - FD_STEP)
    cell = (np.arange(len(t)), np.asarray(vertex_indices, dtype=np.intp))
    fd = ((h.log_h(t + FD_STEP)[cell] - h.log_h(t - FD_STEP)[cell])
          / (2.0 * FD_STEP))
    an = h.dlog_dt(t)[cell]
    return float(np.max(np.abs(fd - an) / np.maximum(1e-12, np.abs(an)),
                        initial=0.0))


__all__ = [
    "make_rho", "TestFunction", "make_lemma23", "make_drift", "make_gaussian",
    "MembershipReport", "is_in_F", "check_condition_2_2", "JReport",
    "check_J_monotone", "GClassFunction", "check_g_class", "KeyLemmaReport",
    "check_key_lemma", "gradient_check", "KernelEvolution",
]
