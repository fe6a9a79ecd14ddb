"""Gaussian upper-bound formulas, traceable constants, and verification sweeps.

All bound arithmetic runs in log-space: the explicit constant assembled from
the proof chain contains a 2e^123 term, and the profile values f(t) can be
exponentially large, so linear-space floats would overflow long before the
mathematics does.

Constant chain (exact by construction):

    theta1 = 1e-6,   theta2 = theta1 / 5,   theta = theta2 / 2 = 1e-7,
    C0 = e^{theta1 + 0.01} + e^{-theta1} (1 - e^{-theta1})^{-1} + 2 e^{123},
    C1 = e^{4e6 * theta2} + C0 * sum_{j>=1} e^{-theta2 4^{j-1}} + C0.

These paper-explicit values are deliberately loose; the empirical fit of the
least working constant is an explicit opt-in reported side by side, never
silently substituted.

Every formula a sweep checks is one entry of the table ``FORMULAS``: the
displays of Theorems 1.1, 1.3, 5.1 and 5.2 (the ones carrying C1), the two
branches of Corollary 2.7 and the tail mass of Proposition 2.6.  An entry
gives the rows of one (pair, t) cell; bound_sweep is one loop over the cells.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .kernel import (DEFAULT_TOL, KernelEvolution, kernel_matrix,
                     on_diagonal_curves, point_mass_values, weighted_tail_mass)
from .regularity import (DecayProfile, alpha_constant, beta_constant,
                         minimal_regularity_constant)

LOG_TOL = 1e-9  # log-space comparison slack for pass/fail


# ---------------------------------------------------------------------------
# constants

@dataclass(frozen=True)
class ConstantLedger:
    """Bound constants with provenance; large ones live in log-space."""

    theta1: float
    theta2: float
    theta: float
    log_C0: float
    log_C1: float
    provenance: str  # "paper-explicit" | "empirical-fit"

    def with_empirical_C1(self, c1):
        if c1 <= 0:
            raise ValueError("empirical constant must be positive")
        return replace(self, log_C1=math.log(c1), provenance="empirical-fit")


def paper_constants():
    """The explicit constant chain assembled from the proof machinery."""
    theta1 = 1e-6
    theta2 = theta1 / 5.0
    theta = theta2 / 2.0
    log_c = math.log(2.0) + 123.0
    log_geometric = -theta1 - math.log(-math.expm1(-theta1))
    log_c0 = float(logsumexp([theta1 + 0.01, log_geometric, log_c]))
    tail = float(logsumexp(-theta2 * 4.0 ** np.arange(0, 64)))
    log_c1 = float(logsumexp([4e6 * theta2, log_c0 + tail, log_c0]))
    return ConstantLedger(theta1=theta1, theta2=theta2, theta=theta,
                          log_C0=log_c0, log_C1=log_c1,
                          provenance="paper-explicit")


# ---------------------------------------------------------------------------
# bound formulas (log-space)

def _gauss_exponent(theta, d, t):
    if d == 0.0:
        return 0.0
    if t <= 0.0:
        return -math.inf
    return -theta * d * d / t


def _log_gaussian_bound(f1, f2, nu1, nu2, d, t, log_C1, log_prefactor, theta):
    """Log of C1 P (nu2/nu1)^{1/2} / sqrt(f1 f2) * exp(-theta d^2 / t), the
    display of Theorems 1.1 and 1.3 (P = A^beta) and 5.1 and 5.2 (P = 1)."""
    if f1 <= 0 or f2 <= 0:
        raise ValueError("profile values must be positive")
    return (log_C1 + log_prefactor + 0.5 * (math.log(nu2) - math.log(nu1))
            - 0.5 * (math.log(f1) + math.log(f2))
            + _gauss_exponent(theta, d, t))


def interval_window_start(T1, alpha, d):
    """Interval-regular window start: (8 alpha^-2 T1^2) v d."""
    return max(8.0 * T1 * T1 / (alpha * alpha), d)


def subexp_window_start(delta, epsilon, T1, d):
    """Sub-exponential window start: (2^9 delta T1^{1+eps}) v d, for
    eps in [0, 1) and delta >= 0."""
    if not (0.0 <= epsilon < 1.0) or delta < 0:
        raise ValueError("need eps in [0,1) and delta >= 0")
    return max(2.0 ** 9 * delta * T1 ** (1.0 + epsilon), d)


def poly_window_start(epsilon, T1, d):
    """Polynomial window start: (2^10 eps T1 log(T1 v 1)) v d, for eps >= 0."""
    if epsilon < 0:
        raise ValueError("need eps >= 0")
    return max(2.0 ** 10 * epsilon * T1 * math.log(max(T1, 1.0)), d)


@dataclass(frozen=True)
class ShortLongBound:
    """Point-probability bounds: long-time and short-time branches.

    At t = r both branches are valid; verification takes the minimum.
    """

    log_long: float | None   # t >= r
    log_short: float | None  # r >= t
    branch: str

    def log_min(self):
        vals = [v for v in (self.log_long, self.log_short) if v is not None]
        return min(vals)


def bound_short_long(nu_o, nu_z, r, t):
    """(nu_z/nu_o)^{1/2} exp(-r^2/16t) for t >= r > 0;
    (nu_z/nu_o)^{1/2} exp(-(r/2) log(1.01 r/t) + 60) for r >= t > 0."""
    if r <= 0:
        raise ValueError("r must be positive; use on-diagonal machinery at r = 0")
    if t <= 0:
        raise ValueError("t must be positive")
    pref = 0.5 * (math.log(nu_z) - math.log(nu_o))
    log_long = pref - r * r / (16.0 * t) if t >= r else None
    log_short = (pref - 0.5 * r * math.log(1.01 * r / t) + 60.0) if r >= t else None
    branch = "both" if t == r else ("long" if t > r else "short")
    return ShortLongBound(log_long=log_long, log_short=log_short, branch=branch)


def log_tail_bound_short_time(R, t):
    """Tail-mass bound exponents: -R^2/8t for t >= R, else -R log(1.01R/t)+120."""
    if t >= R:
        return -R * R / (8.0 * t)
    return -R * math.log(1.01 * R / t) + 120.0


# ---------------------------------------------------------------------------
# elementary scaling inequalities

def elementary_inequality_slacks(eps_grid, x_grid):
    """Slacks of the two scaling inequalities behind the drift estimates:

        e^{ex} + e^{-ex} - 2 <= e^2 (e^x + e^{-x} - 2),
        1 - e^{-ex}          >= e (1 - e^{-x}),        e in [0,1], x >= 0.

    Returns two arrays of shape (len(eps_grid), len(x_grid)); both are
    nonnegative up to rounding.  Computed via 4 sinh^2(./2) and expm1 so the
    e = 1 and x = 0 edges are exact.
    """
    eps = np.asarray(eps_grid, dtype=float)[:, None]
    x = np.asarray(x_grid, dtype=float)[None, :]
    slack1 = eps * eps * 4.0 * np.sinh(0.5 * x) ** 2 - 4.0 * np.sinh(0.5 * eps * x) ** 2
    slack2 = eps * np.expm1(-x) - np.expm1(-eps * x)
    return slack1, slack2


# ---------------------------------------------------------------------------
# tail / weighted-norm checks

@dataclass(frozen=True)
class NormTailReport:
    origin: str
    R: float
    t: float
    tail_mass: float
    log_tail_bound: float          # log_tail_bound_short_time(R, t)
    tail_pass: bool
    weighted_norm: float           # <u^2, exp(theta2 (d ^ 2t)^2 / t)>
    log_weighted_bound: float      # C1 A^beta / f(2 alpha t)
    weighted_pass: bool
    log_tail_bound_regular: float  # C0 A^beta / f(2 alpha t) * exp(-theta1 R^2/t)
    regular_domain: bool           # t >= R >= 1e3
    regular_pass: bool


def norm_tail_bound_check(g, metric, o, R, t, profile, ledger, A=1.0,
                          gamma=2.0, delta=1.0, domain=None, tol=DEFAULT_TOL,
                          beta_convention="section3"):
    """Exact tail mass and weighted norm of the point-mass evolution vs bounds.

    The evolution u starts from the normalized point mass at o (killed on
    ``domain`` when given); B_R = {z : d(o, z) < R}.  All left sides are
    computed exactly on the finite graph and compared, in log-space, against
    the two-branch tail bound, the regular-profile tail bound (domain
    t >= R >= 1e3), and the weighted-norm bound.
    """
    if R <= 0 or t <= 0:
        raise ValueError("need R > 0 and t > 0")
    evo = KernelEvolution(g, o, domain=domain, tol=tol)
    outside = ~metric.ball(o, R)
    tail = evo.tail_mass(t, outside)

    log_tail = log_tail_bound_short_time(R, t)
    tail_pass = _log_le(tail, log_tail)

    alpha = alpha_constant(gamma, delta)
    beta = beta_constant(gamma, beta_convention)
    log_f = profile.log_value(2.0 * alpha * t)
    u_vals = evo.u(t)
    d_o = metric.dist[g.index(o)]
    weight = np.exp(ledger.theta2 * np.minimum(d_o, 2.0 * t) ** 2 / t)
    weighted = float(np.dot(u_vals * u_vals * weight, g.nu))
    log_weighted_bound = ledger.log_C1 + beta * math.log(A) - log_f
    weighted_pass = _log_le(weighted, log_weighted_bound)

    log_reg = (ledger.log_C0 + beta * math.log(A) - log_f
               - ledger.theta1 * R * R / t)
    reg_domain = bool(t >= R >= 1e3)
    reg_pass = _log_le(tail, log_reg)
    return NormTailReport(origin=evo.origin, R=float(R), t=float(t),
                          tail_mass=tail, log_tail_bound=log_tail,
                          tail_pass=tail_pass, weighted_norm=weighted,
                          log_weighted_bound=log_weighted_bound,
                          weighted_pass=weighted_pass,
                          log_tail_bound_regular=log_reg,
                          regular_domain=reg_domain, regular_pass=reg_pass)


def _log_le(value, log_bound):
    """value <= exp(log_bound), compared in log-space with LOG_TOL slack."""
    if value <= 0.0:
        return True
    return math.log(value) <= log_bound + LOG_TOL


# ---------------------------------------------------------------------------
# report sweeps

@dataclass(frozen=True)
class BoundRow:
    formula: str
    x1: str
    x2: str
    t: float
    d_nu: float
    p_computed: float
    log_bound: float
    log_ratio: float  # log p - log bound (<= 0 when the bound holds)
    provenance: str
    passed: bool
    in_domain: bool

    def as_csv(self):
        return (self.formula, self.x1, self.x2, self.t, self.d_nu,
                self.p_computed, self.log_bound, self.log_ratio,
                self.provenance, self.passed, "in" if self.in_domain else "out")


@dataclass(frozen=True)
class SweepSetup:
    """Everything a theorem sweep needs besides the time grid."""

    gamma: float
    delta: float
    epsilon: float | None
    A: float
    beta: int
    alpha: float
    T1: float
    T2: float
    profiles: dict  # vertex id -> DecayProfile


def fit_sweep_setup(g, pairs, times, gamma=2.0, delta=None, epsilon=None,
                    T1=0.0, T2=math.inf, tol=DEFAULT_TOL, profile_points=200,
                    beta_convention="section3"):
    """Fit on-diagonal decay profiles for every vertex appearing in pairs.

    delta defaults to max(1, holding rates of the paired vertices), which
    makes the exponential envelope hold with A = 1; A is the largest minimal
    regularity constant among the fitted profiles.  Parameters outside the
    theorems' ranges raise ValueError.
    """
    if not (math.isfinite(gamma) and gamma > 1):
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma!r}")
    if delta is not None and not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if epsilon is not None and not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    if not (math.isfinite(T1) and T1 >= 0):
        raise ValueError(f"T1 must be finite and nonnegative, got {T1!r}")
    if not T2 > T1:
        raise ValueError(f"T2 must exceed T1 = {T1!r}, got {T2!r}")
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise ValueError("sweep times must be positive")
    verts = sorted({v for pair in pairs for v in pair})
    if delta is None:
        delta = max(1.0, max(g.rates[g.index(v)] for v in verts))
    alpha = alpha_constant(gamma, delta)
    lo = alpha * times.min() * 0.5
    hi = times.max() * 1.05
    grid = np.geomspace(lo, hi, profile_points)
    curves = on_diagonal_curves(g, verts, grid, tol=tol)
    profiles = {v: DecayProfile.from_on_diagonal(curves[v]) for v in verts}
    A = max([1.0] + [minimal_regularity_constant(prof, gamma, prof.domain)
                     for prof in profiles.values()])
    beta = beta_constant(gamma, beta_convention)
    return SweepSetup(gamma=gamma, delta=delta, epsilon=epsilon, A=A,
                      beta=beta, alpha=alpha, T1=T1, T2=T2, profiles=profiles)


def all_pairs(g, pairs=None):
    """Normalize a pair spec: default is every unordered vertex pair."""
    if pairs is None:
        ids = g.vertex_ids
        return [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    return [(str(a), str(b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# the formula table

# One bound formula of bound_sweep.  cells(sweep, name, pair) does the
# formula's work for one pair, once, and returns cell(t): the rows of the
# (pair, t) cell, each a tuple (label, left side, log bound, in domain).
# theorem marks the displays that carry C1 and need a SweepSetup; options
# names the fit_sweep_setup parameters the formula reads.
Formula = namedtuple("Formula", "theorem options cells")

# one pair of a sweep, and the sweep around it: kernels maps each grid time
# to its kernel matrix; values caches profile values per vertex and time
_Pair = namedtuple("_Pair", "x1 x2 i1 i2 d nu1 nu2")
_Sweep = namedtuple("_Sweep", "g metric ledger setup kernels values")


def _theorem(window, window_options=(), growth=False):
    """A theorem display, p against

        C1 P (nu2/nu1)^{1/2} / sqrt(f1(s) f2(s)) * exp(-theta d^2 / t),

    in domain for t in [start, end) = window(setup, d), which reads the
    setup parameters ``window_options``.  Theorems 1.1 and 1.3 read the
    profiles at s = alpha t with P = A^beta; the ``growth`` variants,
    Theorems 5.1 and 5.2, at s = t / (2 gamma) with P = 1.  Every theorem
    reads gamma and delta, which fix alpha and so the profile fit.
    """
    def profile(sw, x):
        if x not in sw.values:
            su, prof = sw.setup, sw.setup.profiles[x]
            sw.values[x] = {t: prof.value(t / (2.0 * su.gamma) if growth
                                          else su.alpha * t)
                            for t in sw.kernels}
        return sw.values[x]

    def cells(sw, name, pr):
        su, led = sw.setup, sw.ledger
        start, end = window(su, pr.d)
        log_prefactor = 0.0 if growth else su.beta * math.log(su.A)
        f1, f2 = profile(sw, pr.x1), profile(sw, pr.x2)

        def cell(t):
            log_b = _log_gaussian_bound(f1[t], f2[t], pr.nu1, pr.nu2, pr.d, t,
                                        led.log_C1, log_prefactor, led.theta)
            return ((name, float(sw.kernels[t][pr.i1, pr.i2]), log_b,
                     bool(start <= t < end)),)
        return cell
    return Formula(theorem=True, options=("gamma", "delta") + window_options,
                   cells=cells)


def _short_long_cells(sw, name, pr):
    """Corollary 2.7: p against the long-time branch (t >= d) and the
    short-time branch (d >= t) of bound_short_long, a row for each.  The
    corollary needs d > 0: a pair at distance 0 gets one long-time row, out
    of domain, against the display's limit (nu2/nu1)^{1/2} as d -> 0."""
    def cell(t):
        p = float(sw.kernels[t][pr.i1, pr.i2])
        if pr.d == 0.0:
            return ((f"{name}-long", p,
                     0.5 * (math.log(pr.nu2) - math.log(pr.nu1)), False),)
        sl = bound_short_long(pr.nu1, pr.nu2, pr.d, t)
        return [(f"{name}-{branch}", p, log_b, True) for branch, log_b
                in (("long", sl.log_long), ("short", sl.log_short))
                if log_b is not None]
    return cell


def _tail_cells(sw, name, pr):
    """Proposition 2.6: the mass of P_{x1}(X_t = .) outside B(x1, d) against
    log_tail_bound_short_time(d, t)."""
    outside = ~sw.metric.ball(pr.x1, pr.d)

    def cell(t):
        # row i1 of the kernel matrix is P_{x1}(X_t = .)
        u = point_mass_values(sw.g, pr.i1, sw.kernels[t][pr.i1])
        return ((name, weighted_tail_mass(sw.g, u, outside),
                 log_tail_bound_short_time(pr.d, t), True),)
    return cell


# every formula bound_sweep evaluates, by name
FORMULAS = {
    "thm1.1": _theorem(lambda su, d: (d, math.inf)),
    "thm1.3": _theorem(lambda su, d: (interval_window_start(su.T1, su.alpha, d),
                                      su.T2), ("T1", "T2")),
    "thm5.1": _theorem(lambda su, d: (subexp_window_start(
        su.delta, su.epsilon or 0.0, su.T1, d), su.T2),
        ("epsilon", "T1", "T2"), growth=True),
    "thm5.2": _theorem(lambda su, d: (poly_window_start(
        su.epsilon or 0.0, su.T1, d), su.T2),
        ("epsilon", "T1", "T2"), growth=True),
    "cor2.7": Formula(theorem=False, options=(), cells=_short_long_cells),
    "prop2.6": Formula(theorem=False, options=(), cells=_tail_cells),
}


def bound_sweep(g, metric, formula, times, pairs=None, ledger=None,
                setup=None, tol=DEFAULT_TOL, **setup_kwargs):
    """Evaluate one bound formula over (pair, t) cells against exact kernels.

    Returns a list of BoundRow in grid order (pairs outer, times inner).
    ``setup`` (a SweepSetup) is required for the theorem formulas and ignored
    by "cor2.7" / "prop2.6"; when omitted it is fitted via fit_sweep_setup.
    """
    if formula not in FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; "
                         f"expected one of {tuple(FORMULAS)}")
    spec = FORMULAS[formula]
    if ledger is None:
        ledger = paper_constants()
    pair_list = all_pairs(g, pairs)
    times = [float(t) for t in times]
    if spec.theorem and setup is None:
        setup = fit_sweep_setup(g, pair_list, times, tol=tol, **setup_kwargs)
    kernels = {t: kernel_matrix(g, t, tol=tol) for t in sorted(set(times))}
    sweep = _Sweep(g, metric, ledger, setup, kernels, {})
    rows = []
    for x1, x2 in pair_list:
        i1, i2 = g.index(x1), g.index(x2)
        pair = _Pair(x1, x2, i1, i2, float(metric.dist[i1, i2]),
                     float(g.nu[i1]), float(g.nu[i2]))
        cell = spec.cells(sweep, formula, pair)
        for t in times:
            for label, lhs, log_b, in_domain in cell(t):
                rows.append(_mk_row(label, x1, x2, t, pair.d, lhs, log_b,
                                    ledger.provenance, in_domain))
    return rows


def _mk_row(formula, x1, x2, t, d, p, log_bound, provenance, in_domain):
    if p <= 0.0:
        log_ratio = -math.inf  # nothing to bound; avoids -inf minus -inf
    else:
        log_ratio = math.log(p) - log_bound
    return BoundRow(formula=formula, x1=x1, x2=x2, t=float(t), d_nu=float(d),
                    p_computed=float(p), log_bound=float(log_bound),
                    log_ratio=float(log_ratio), provenance=provenance,
                    passed=bool(log_ratio <= LOG_TOL), in_domain=in_domain)


def summarize_rows(rows):
    """Aggregate counts for the JSON side of a bounds report."""
    in_rows = [r for r in rows if r.in_domain]
    failures = [r for r in in_rows if not r.passed]
    worst = max((r.log_ratio for r in in_rows), default=-math.inf)
    return {
        "rows": len(rows),
        "in_domain": len(in_rows),
        "out_of_domain": len(rows) - len(in_rows),
        "failures_in_domain": len(failures),
        "worst_log_ratio": worst,
        "provenance": rows[0].provenance if rows else None,
    }


def least_constant(rows):
    """Least C1 making every row hold, for rows computed at C1 = 1: the
    exponential of their largest log_ratio, or 0 when no row has p > 0."""
    best = max((r.log_ratio for r in rows), default=-math.inf)
    return math.exp(best) if math.isfinite(best) else 0.0


def _unit_sweep(g, metric, formula, times, pairs, setup, tol, **setup_kwargs):
    """(ledger, rows) of a theorem sweep at C1 = 1, the rows the least C1 is
    read off; only the theorem displays carry a C1 to fit."""
    if formula not in FORMULAS or not FORMULAS[formula].theorem:
        raise ValueError(
            "empirical constants only apply to the theorem formulas; "
            f"{formula} carries fully explicit constants")
    unit = replace(paper_constants(), log_C1=0.0)
    return unit, bound_sweep(g, metric, formula, times, pairs=pairs,
                             ledger=unit, setup=setup, tol=tol, **setup_kwargs)


def empirical_sweep(g, metric, formula, times, pairs=None, setup=None,
                    tol=DEFAULT_TOL):
    """(ledger, rows) of a theorem sweep at the least C1 holding on the grid.

    The constant is read off one sweep at C1 = 1, whose rows then move to it
    by adding log C1 to log_bound, with no further kernel work.
    """
    unit, rows = _unit_sweep(g, metric, formula, times, pairs, setup, tol)
    ledger = unit.with_empirical_C1(max(least_constant(rows), 1e-300))
    return ledger, [_mk_row(r.formula, r.x1, r.x2, r.t, r.d_nu, r.p_computed,
                            r.log_bound + ledger.log_C1, ledger.provenance,
                            r.in_domain) for r in rows]


def fit_empirical_constant(g, metric, x1, x2, times, formula="thm1.1",
                           setup=None, tol=DEFAULT_TOL, **setup_kwargs):
    """Least C1 making the chosen bound hold on the grid: max of p / (bound|C1=1).

    Small-t cells with vanishing probability contribute 0.  Monotone
    non-decreasing under grid refinement by supersets.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("empty time grid")
    _, rows = _unit_sweep(g, metric, formula, times, [(x1, x2)], setup, tol,
                          **setup_kwargs)
    return least_constant(rows)
