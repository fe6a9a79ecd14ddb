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
branches of Corollary 2.7 and the tail mass of Proposition 2.6.  Each
display is written once, as a function that takes numbers or arrays alike
(_log_gaussian_bound, _short_long_logs, log_tail_bound_short_time), and an
entry calls it once on the whole (pair x time) grid.  bound_sweep takes the
kernels of every pair and time from one engine call, which a theorem's
profile fit shares, and returns the rows as columns (a BoundTable): a
sub-table of their strings and one of their numbers, a cell per distinct
set of numbers the formula works out, which rows share where they depend
on less than the pair (prop2.6 on x1, d, t).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import xlogy

from .kernel import (DEFAULT_TOL, KernelEvolution, kernel_rows,
                     point_mass_values, weighted_tail_mass)
from .regularity import (DecayProfile, alpha_constant, beta_constant,
                         minimal_regularity_constants, profile_values)

LOG_TOL = 1e-9  # log-space comparison slack for pass/fail
PROFILE_POINTS = 200  # times of each fitted on-diagonal profile


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


def _logsumexp(xs):
    """log sum_i e^{x_i}, shifted by the largest x_i."""
    m = max(xs)
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def paper_constants():
    """The explicit constant chain assembled from the proof machinery."""
    theta1 = 1e-6
    theta2 = theta1 / 5.0
    theta = theta2 / 2.0
    log_c = math.log(2.0) + 123.0
    log_geometric = -theta1 - math.log(-math.expm1(-theta1))
    log_c0 = _logsumexp([theta1 + 0.01, log_geometric, log_c])
    tail = _logsumexp([-theta2 * 4.0 ** j for j in range(64)])
    log_c1 = _logsumexp([4e6 * theta2, log_c0 + tail, log_c0])
    return ConstantLedger(theta1=theta1, theta2=theta2, theta=theta,
                          log_C0=log_c0, log_C1=log_c1,
                          provenance="paper-explicit")


# ---------------------------------------------------------------------------
# bound formulas (log-space); numbers and arrays alike, broadcasting

def _logs(values):
    """math.log of each value, in the shape of values, as one xlogy(1, x)
    call: that is the C library's log, the one math.log calls, where np.log
    differs from it in the last bit on a few values, and the rows of a sweep
    must equal the formulas at single cells bit for bit (tests/
    test_bounds.py, TestLogs, pins this).  A value <= 0 raises math.log's
    ValueError; nan passes through."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("math domain error")
    return xlogy(1.0, values)


def _log_sqrt_ratio(nu1, nu2):
    """log (nu2/nu1)^{1/2}, the factor every point display carries."""
    return 0.5 * (_logs(nu2) - _logs(nu1))


def _gauss_exponent(theta, d, t):
    """-theta d^2 / t: 0 at d = 0 whatever t, -inf at t <= 0 < d."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gauss = np.where(t > 0.0, -theta * d * d / t, -math.inf)
    return np.where(d == 0.0, 0.0, gauss)


def _log_gaussian_bound(log_f1, log_f2, nu1, nu2, d, t, log_C1,
                        log_prefactor, theta):
    """Log of C1 P (nu2/nu1)^{1/2} / sqrt(f1 f2) * exp(-theta d^2 / t), the
    display of Theorems 1.1 and 1.3 (P = A^beta) and 5.1 and 5.2 (P = 1),
    from the logs of the profile values f1 and f2."""
    return (log_C1 + log_prefactor + _log_sqrt_ratio(nu1, nu2)
            - 0.5 * (log_f1 + log_f2) + _gauss_exponent(theta, d, t))


def interval_window_start(T1, alpha, d):
    """Interval-regular window start: (8 alpha^-2 T1^2) v d."""
    return np.maximum(8.0 * T1 * T1 / (alpha * alpha), d)


def subexp_window_start(delta, epsilon, T1, d):
    """Sub-exponential window start: (2^9 delta T1^{1+eps}) v d, for
    eps in [0, 1) and delta >= 0."""
    if not (0.0 <= epsilon < 1.0) or delta < 0:
        raise ValueError("need eps in [0,1) and delta >= 0")
    return np.maximum(2.0 ** 9 * delta * T1 ** (1.0 + epsilon), d)


def poly_window_start(epsilon, T1, d):
    """Polynomial window start: (2^10 eps T1 log(T1 v 1)) v d, for eps >= 0."""
    if epsilon < 0:
        raise ValueError("need eps >= 0")
    return np.maximum(2.0 ** 10 * epsilon * T1 * math.log(max(T1, 1.0)), d)


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


def _short_long_logs(nu_o, nu_z, r, t):
    """The logs of the two displays of Corollary 2.7 at r > 0, the long-time
    one (valid for t >= r), then the short-time one (valid for r >= t)."""
    r, t = np.broadcast_arrays(r, t)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    pref = _log_sqrt_ratio(nu_o, nu_z)
    return (pref - r * r / (16.0 * t),
            pref - 0.5 * r * _logs(1.01 * r / t) + 60.0)


def bound_short_long(nu_o, nu_z, r, t):
    """(nu_z/nu_o)^{1/2} exp(-r^2/16t) for t >= r > 0;
    (nu_z/nu_o)^{1/2} exp(-(r/2) log(1.01 r/t) + 60) for r >= t > 0."""
    if r <= 0:
        raise ValueError("r must be positive; use on-diagonal machinery at r = 0")
    log_long, log_short = _short_long_logs(nu_o, nu_z, r, t)
    branch = "both" if t == r else ("long" if t > r else "short")
    return ShortLongBound(log_long=float(log_long) if t >= r else None,
                          log_short=float(log_short) if r >= t else None,
                          branch=branch)


def log_tail_bound_short_time(R, t):
    """Tail-mass bound exponents: -R^2/8t for t >= R, else -R log(1.01R/t)+120."""
    R, t = np.broadcast_arrays(R, t)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    out = np.asarray(-R * R / (8.0 * t))  # an array, also when 0-d
    short = t < R
    out[short] = -R[short] * _logs(1.01 * R[short] / t[short]) + 120.0
    return out[()]


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
                          gamma=2.0, delta=1.0, domain=None, tol=DEFAULT_TOL):
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

    alpha = alpha_constant(gamma, delta)
    beta = beta_constant(gamma)
    log_f = profile.log_value(2.0 * alpha * t)
    u_vals = evo.u(t)
    d_o = metric.dist[g.index(o)]
    weight = np.exp(ledger.theta2 * np.minimum(d_o, 2.0 * t) ** 2 / t)
    weighted = float(np.dot(u_vals * u_vals * weight, g.nu))
    log_weighted_bound = ledger.log_C1 + beta * math.log(A) - log_f

    log_reg = (ledger.log_C0 + beta * math.log(A) - log_f
               - ledger.theta1 * R * R / t)
    reg_domain = bool(t >= R >= 1e3)
    tail_pass, weighted_pass, reg_pass = (_log_ratio(
        [tail, weighted, tail], [log_tail, log_weighted_bound, log_reg])
        <= LOG_TOL).tolist()
    return NormTailReport(origin=evo.origin, R=float(R), t=float(t),
                          tail_mass=tail, log_tail_bound=log_tail,
                          tail_pass=tail_pass, weighted_norm=weighted,
                          log_weighted_bound=log_weighted_bound,
                          weighted_pass=weighted_pass,
                          log_tail_bound_regular=log_reg,
                          regular_domain=reg_domain, regular_pass=reg_pass)


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


def _log_ratio(p, log_bound):
    """log p - log bound, and -inf where p <= 0: there is nothing to bound,
    and it avoids -inf minus -inf."""
    p, log_bound = np.broadcast_arrays(p, log_bound)
    out = np.full(p.shape, -math.inf)
    some = ~(p <= 0.0)
    out[some] = _logs(p[some]) - log_bound[some]
    return out


# the strings of a sweep's rows, as codes: a key's formula is
# ``labels[label]`` (the formula's row labels), its x1 and x2 are ``ids[i1]``
# and ``ids[i2]`` (the graph's vertex ids); numpy arrays, one entry per key
BoundKeys = namedtuple("BoundKeys", "label i1 i2")


@dataclass(frozen=True, eq=False)
class BoundCells:
    """The numbers of a sweep's rows, one entry per cell: numpy arrays, of
    which ``log_ratio`` and ``passed`` follow from the others, worked out
    once per cell however many rows share it."""

    t: np.ndarray
    d_nu: np.ndarray
    p_computed: np.ndarray
    log_bound: np.ndarray
    in_domain: np.ndarray
    log_ratio: np.ndarray = field(init=False)
    passed: np.ndarray = field(init=False)

    def __post_init__(self):
        log_ratio = _log_ratio(self.p_computed, self.log_bound)
        object.__setattr__(self, "log_ratio", log_ratio)
        object.__setattr__(self, "passed", log_ratio <= LOG_TOL)


def _per_row(table, name):
    """The column ``name`` of a BoundTable's sub-table ``table`` ("keys" or
    "cells"), one entry per row, gathered by the rows' codes into it."""
    codes = table[:-1]
    return property(
        lambda self: getattr(getattr(self, table), name)[getattr(self, codes)],
        doc=f"{name} of each row's {codes}")


@dataclass(frozen=True, eq=False)
class BoundTable(Sequence):
    """The rows of a sweep in grid order, pairs outer, times inner and a
    cell's labels innermost, as two sub-tables and two codes per row: the
    row's strings are those of ``keys[key]`` (a BoundKeys: its formula
    label and pair), its numbers those of ``cells[cell]`` (a BoundCells:
    t, d_nu, the left side, the log bound and the domain flag).  A theorem's
    or cor2.7's rows have a cell each; the prop2.6 rows of one x1, d and t
    share theirs, the one tail mass outside that ball.  A theorem's table
    also holds the SweepSetup its bounds read, ``setup`` (None for the
    other formulas).  Each column of BoundRow but provenance is also a
    per-row attribute (label, i1, i2, t, ..., passed), a numpy array
    gathered from its sub-table.  Indexing and iteration give BoundRow,
    whose formula, x1 and x2 are strings.
    """

    labels: tuple
    ids: tuple
    keys: BoundKeys
    key: np.ndarray
    cells: BoundCells
    cell: np.ndarray
    provenance: str
    setup: SweepSetup | None = None

    label, i1, i2 = (_per_row("keys", f) for f in BoundKeys._fields)
    t, d_nu, p_computed, log_bound, in_domain, log_ratio, passed = (
        _per_row("cells", f.name) for f in fields(BoundCells))

    def __len__(self):
        return len(self.cell)

    def __getitem__(self, k):
        keys, cells, j, c = self.keys, self.cells, self.key[k], self.cell[k]
        return BoundRow(formula=self.labels[keys.label[j]],
                        x1=self.ids[keys.i1[j]], x2=self.ids[keys.i2[j]],
                        t=float(cells.t[c]), d_nu=float(cells.d_nu[c]),
                        p_computed=float(cells.p_computed[c]),
                        log_bound=float(cells.log_bound[c]),
                        log_ratio=float(cells.log_ratio[c]),
                        provenance=self.provenance,
                        passed=bool(cells.passed[c]),
                        in_domain=bool(cells.in_domain[c]))


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


def _setup_fit(g, verts, times, gamma=2.0, delta=None, epsilon=None,
               T1=0.0, T2=math.inf):
    """(grid, fit) of the profile fit of the sorted vertex ids ``verts``:
    the PROFILE_POINTS log-spaced times at which it reads their diagonals,
    and fit(diags), the SweepSetup of those return probabilities as a
    (verts, grid) array.  Parameters outside the theorems' ranges raise
    ValueError here, before any kernel is asked for."""
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
    if delta is None:
        delta = max([1.0] + [g.rates[g.index(v)] for v in verts])
    alpha = alpha_constant(gamma, delta)
    grid = np.geomspace(alpha * times.min() * 0.5, times.max() * 1.05,
                        PROFILE_POINTS)

    def fit(diags):
        fitted = DecayProfile.from_on_diagonal_rows(grid, diags)
        A = max([1.0] + minimal_regularity_constants(
            fitted, gamma, (float(grid[0]), float(grid[-1]))))
        return SweepSetup(gamma=gamma, delta=delta, epsilon=epsilon, A=A,
                          beta=beta_constant(gamma), alpha=alpha, T1=T1,
                          T2=T2, profiles=dict(zip(verts, fitted)))
    return grid, fit


def fit_sweep_setup(g, pairs, times, gamma=2.0, delta=None, epsilon=None,
                    T1=0.0, T2=math.inf, tol=DEFAULT_TOL):
    """Fit on-diagonal decay profiles, on PROFILE_POINTS log-spaced times, for
    every vertex appearing in pairs.

    The return probabilities of every such vertex come from one engine call
    as a (vertices, times) array, which DecayProfile.from_on_diagonal_rows
    checks and turns into profiles at once.  delta defaults to max(1,
    holding rates of the paired vertices), which makes the exponential
    envelope hold with A = 1; A is the largest minimal regularity constant
    among the fitted profiles, all computed in one pass
    (minimal_regularity_constants), and 1 when no vertex is paired.
    Parameters outside the theorems' ranges raise ValueError.  A theorem
    bound_sweep given no setup fits the same one, bit for bit, in the
    engine call of its rows (its table's ``setup``).
    """
    verts = sorted({v for pair in pairs for v in pair})
    grid, fit = _setup_fit(g, verts, times, gamma, delta, epsilon, T1, T2)
    return fit(kernel_rows(g, verts, grid, tol, diagonal=True)[0])


def all_pairs(g, pairs=None):
    """Normalize a pair spec: default is every unordered vertex pair."""
    if pairs is None:
        ids = g.vertex_ids
        return [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    return [(str(a), str(b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# the formula table

# One bound formula of bound_sweep.  cells(sweep) returns (group, parts),
# the cells of the whole grid at once, in groups of one row of times each:
# group[k] is the group of the k-th pair, whose rows are that group's cells,
# and parts holds, for each label, in the order of ``labels`` (suffixes of
# the formula's name), a tuple (has, left side, log bound, in domain) of
# arrays that broadcast to (groups, times); has marks the cells at which
# that label has a row.  A theorem's or cor2.7's groups are its pairs;
# prop2.6's pairs of one x1 and d share a group.  The pairs of a group
# share their distance.  The bounds come from the formulas above, each
# called once on the whole grid.  theorem marks the displays that carry C1
# and need a SweepSetup; options names the fit_sweep_setup parameters the
# formula reads.
Formula = namedtuple("Formula", "theorem options labels cells")

# a sweep's grid, pairs by times.  For the k-th pair (x1, x2): i1[k] and
# i2[k] index x1 and x2 in g, d[k, 0], nu1[k, 0] and nu2[k, 0] are its
# distance and measures (columns of shape (pairs, 1)), kernels[col[k], j]
# is P_{x1}(X_t = .) at the j-th grid time t, from the vertex
# sources[col[k]] = i1[k], and p[k, j] = P_{x1}(X_t = x2).
_Sweep = namedtuple("_Sweep", "g metric ledger setup times i1 i2 d nu1 nu2 "
                              "sources col kernels p")


def _log_profiles(sw, s):
    """log f1(s) and log f2(s) of each pair, (2, pairs, times), at the
    profile times s of the grid times: the profiles of every paired vertex
    read at once (profile_values, one domain check for those of one fit),
    then one _logs call, so each value has the bits of value(s) and
    math.log."""
    verts, at = np.unique(np.stack([sw.i1, sw.i2]), return_inverse=True)
    f = profile_values([sw.setup.profiles[sw.g.vertex_ids[v]]
                        for v in verts.tolist()], s)
    if np.any(f <= 0):
        raise ValueError("profile values must be positive")
    return _logs(f)[at.reshape(2, -1)]


def _theorem(window, window_options=(), growth=False):
    """A theorem display, p against

        C1 P (nu2/nu1)^{1/2} / sqrt(f1(s) f2(s)) * exp(-theta d^2 / t),

    in domain for t in [start, end) = window(setup, d), which reads the
    setup parameters ``window_options``.  Theorems 1.1 and 1.3 read the
    profiles at s = alpha t with P = A^beta; the ``growth`` variants,
    Theorems 5.1 and 5.2, at s = t / (2 gamma) with P = 1.  Every theorem
    reads gamma and delta, which fix alpha and so the profile fit.
    """
    def cells(sw):
        su, led, t = sw.setup, sw.ledger, sw.times
        start, end = window(su, sw.d)
        log_f1, log_f2 = _log_profiles(
            sw, t / (2.0 * su.gamma) if growth else su.alpha * t)
        log_b = _log_gaussian_bound(
            log_f1, log_f2, sw.nu1, sw.nu2, sw.d, t, led.log_C1,
            0.0 if growth else su.beta * math.log(su.A), led.theta)
        return np.arange(len(sw.i1)), ((True, sw.p, log_b,
                                        (start <= t) & (t < end)),)
    return Formula(theorem=True, options=("gamma", "delta") + window_options,
                   labels=("",), cells=cells)


def _short_long_cells(sw):
    """Corollary 2.7: p against the long-time display (t >= d) and the
    short-time display (d >= t), a row for each, the long one first.  The
    corollary needs d > 0: a pair at distance 0 gets one long-time row, out
    of domain, against the displays' limit (nu2/nu1)^{1/2} as d -> 0."""
    far = sw.d[:, 0] > 0.0
    log_long = np.repeat(_log_sqrt_ratio(sw.nu1, sw.nu2), len(sw.times), 1)
    log_short = np.zeros(log_long.shape)
    log_long[far], log_short[far] = _short_long_logs(
        sw.nu1[far], sw.nu2[far], sw.d[far], sw.times)
    return np.arange(len(sw.i1)), (
        (sw.times >= sw.d, sw.p, log_long, far[:, None]),
        (far[:, None] & (sw.times <= sw.d), sw.p, log_short, True))


def _tail_cells(sw):
    """Proposition 2.6: the mass of P_{x1}(X_t = .) outside B(x1, d) against
    log_tail_bound_short_time(d, t), a group of cells per distinct (x1, d),
    which every pair of that x1 and d shares: a tail per cell and a bound
    per distinct d and t.  weighted_tail_mass takes each source's kernel
    rows once, with the outside masks of all its keys, and sums each key's
    own vertices, so a tail has the bits of its own call."""
    radii, at_radius = np.unique(sw.d[:, 0], return_inverse=True)
    log_b = log_tail_bound_short_time(radii[:, None], sw.times)
    # first: a pair of each distinct (x1, d), in order of x1; at_key: each
    # pair's (x1, d)
    _, first, at_key = np.unique(np.column_stack([sw.i1, sw.d[:, 0]]), axis=0,
                                 return_index=True, return_inverse=True)
    x1, col = sw.i1[first], sw.col[first]
    outside = ~(sw.metric.dist[x1] < sw.d[first])  # ~metric.ball(x1, d)
    tails = np.empty((len(first), len(sw.times)))
    for c in np.unique(col).tolist():
        mine = col == c
        tails[mine] = weighted_tail_mass(
            sw.g, point_mass_values(sw.g, sw.sources[c], sw.kernels[c]),
            outside[mine])
    return at_key.ravel(), ((True, tails, log_b[at_radius[first]], True),)


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
    "cor2.7": Formula(theorem=False, options=(), labels=("-long", "-short"),
                      cells=_short_long_cells),
    "prop2.6": Formula(theorem=False, options=(), labels=("",),
                       cells=_tail_cells),
}


def _pair_indices(g, pairs):
    """(i1, i2): the vertex indices of the x1 and x2 of each pair of the
    spec, by default (None) every unordered pair in all_pairs order."""
    if pairs is None:
        return np.triu_indices(g.n, 1)
    ids = [g.index(v) for pair in all_pairs(g, pairs) for v in pair]
    return np.array(ids, dtype=np.intp).reshape(-1, 2).T


def _sweep_cells(spec, sw):
    """(group, count, label, cells) of the formula ``spec`` on the sweep sw:
    each pair's group, each group's count of cells, each cell's label, and
    the cells of the grid in C order of (group, time, label), the columns
    of a BoundCells but log_ratio and passed.  The (group, time, label)
    grids are freed when it returns, ahead of the cells' log_ratio and the
    rows' codes."""
    group, parts = spec.cells(sw)
    grid = (int(group.max()) + 1 if len(group) else 0, len(sw.times))
    # indexed (group, time, label)
    has, lhs, log_b, in_domain = (
        np.stack([np.broadcast_to(v, grid) for v in part], axis=2)
        for part in zip(*parts))
    del parts
    at_group, at_time, at_label = np.nonzero(has)
    d = np.zeros(grid[0])
    d[group] = sw.d[:, 0]
    return group, has.sum(axis=(1, 2)), at_label, (
        sw.times[at_time], d[at_group], lhs[has], log_b[has], in_domain[has])


def bound_sweep(g, metric, formula, times, pairs=None, ledger=None,
                setup=None, tol=DEFAULT_TOL, **setup_kwargs):
    """Evaluate one bound formula over (pair, t) cells against exact kernels.

    Returns a BoundTable in grid order (pairs outer, times inner), whose
    cells are the formula's groups by times and labels (a group per pair,
    or per distinct x1 and d for prop2.6), with log_ratio worked out once
    per cell.  The kernels come from one engine call, with a start column
    for each distinct x1 and every grid time, and each formula is
    evaluated once on the whole grid.  ``setup`` (a SweepSetup) is read by
    the theorem formulas and ignored by "cor2.7" / "prop2.6".  A theorem
    given none fits it in that same engine call: the call also reads out
    the diagonal of every paired vertex on the profile grid, and the setup
    has the bits of fit_sweep_setup's with setup_kwargs.  A theorem's table
    holds its setup.
    """
    if formula not in FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; "
                         f"expected one of {tuple(FORMULAS)}")
    spec = FORMULAS[formula]
    if ledger is None:
        ledger = paper_constants()
    i1, i2 = _pair_indices(g, pairs)
    times = [float(t) for t in times]
    sources, col = np.unique(i1, return_inverse=True)
    x1 = [g.vertex_ids[i] for i in sources.tolist()]
    if spec.theorem and setup is None:
        verts = sorted(g.vertex_ids[v] for v in np.union1d(i1, i2).tolist())
        grid, fit = _setup_fit(g, verts, times, **setup_kwargs)
        (diags, _), (kernels, _) = kernel_rows(g, verts, grid, tol,
                                               diagonal=True,
                                               more=[(x1, times, False)])
        setup = fit(diags)
    else:
        kernels, _ = kernel_rows(g, x1, times, tol=tol)
    group, count, at_label, cells = _sweep_cells(spec, _Sweep(
        g, metric, ledger, setup, np.array(times, dtype=float), i1, i2,
        metric.dist[i1, i2][:, None], g.nu[i1][:, None], g.nu[i2][:, None],
        sources, col, kernels, kernels[col, :, i2]))
    del kernels
    cells = BoundCells(*cells)
    # the rows: the cells of each pair's group in order, which are
    # consecutive; size[k] is the k-th pair's count of rows
    size = count[group]
    at_pair = np.repeat(np.arange(len(group)), size)
    cell = np.arange(len(at_pair)) + np.repeat(
        (np.cumsum(count) - count)[group] - (np.cumsum(size) - size), size)
    labels = len(spec.labels)
    return BoundTable(
        labels=tuple(formula + s for s in spec.labels), ids=g.vertex_ids,
        keys=BoundKeys(label=np.arange(len(group) * labels) % labels,
                       i1=np.repeat(i1, labels), i2=np.repeat(i2, labels)),
        key=at_pair * labels + at_label[cell], cells=cells, cell=cell,
        provenance=ledger.provenance,
        setup=setup if spec.theorem else None)


def summarize_rows(rows):
    """Aggregate counts of a BoundTable for the JSON side of a bounds report."""
    in_domain = rows.in_domain
    inside = rows.log_ratio[in_domain]
    return {
        "rows": len(rows),
        "in_domain": len(inside),
        "out_of_domain": len(rows) - len(inside),
        "failures_in_domain": int(np.count_nonzero(~rows.passed[in_domain])),
        "worst_log_ratio": float(inside.max()) if len(inside) else -math.inf,
        "provenance": rows.provenance if len(rows) else None,
    }


def least_constant(rows):
    """Least C1 making every row hold, for rows computed at C1 = 1: the
    exponential of their largest log_ratio, or 0 when no row has p > 0."""
    best = float(rows.log_ratio.max()) if len(rows) else -math.inf
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
                    tol=DEFAULT_TOL, **setup_kwargs):
    """(ledger, rows) of a theorem sweep at the least C1 holding on the grid.

    The constant is read off one sweep at C1 = 1 (bound_sweep, which fits
    the setup with setup_kwargs when none is given), whose rows then move
    to it by adding log C1 to log_bound, with no further kernel work.
    """
    unit, rows = _unit_sweep(g, metric, formula, times, pairs, setup, tol,
                             **setup_kwargs)
    c1 = least_constant(rows)
    if c1 == 0.0:
        raise ValueError("no row has p > 0 to fit the empirical C1 from")
    ledger = unit.with_empirical_C1(c1)
    cells = replace(rows.cells, log_bound=rows.cells.log_bound + ledger.log_C1)
    return ledger, replace(rows, cells=cells, provenance=ledger.provenance)


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
