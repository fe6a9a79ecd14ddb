"""Decay-profile analysis: doubling-type regularity, growth envelopes, constants.

A profile f is (A, gamma)-regular on [a, b) when it is non-decreasing and
f(gamma*s)/f(s) <= A * f(gamma*t)/f(t) for all a <= s < t < b/gamma.  This
module fits the least such A on a grid, checks growth envelopes (A times an
exponential, stretched or power DecayProfile), and computes the constants

    alpha = min{1/(2*gamma), 1/(64*delta)},    beta = ceil(log 2 / log gamma).

Every grid is cut from one window, a finite a < b (b may be inf) inside the
profile's domain; a non-finite interval start, A or t raises ValueError.

Two beta conventions are in circulation (see ``beta_constant``); the
``section3`` form, which guarantees gamma**beta >= 2, is the default, and
reports surface the discrepancy rather than hiding it.
"""

from __future__ import annotations

import math

import numpy as np

#: grid density for closed-form sweeps (points per decade of t)
POINTS_PER_DECADE = 512

#: relative slack of the regularity, envelope and halving checks
REL_TOL = 1e-9

#: sweep window substituted for unbounded closed-form intervals
CLOSED_FORM_FLOOR = 1e-6
CLOSED_FORM_CAP = 1e6

BETA_CONVENTIONS = ("section3", "theorem-statement")

BETA_NOTE = ("beta convention discrepancy: the interval-regularity machinery "
             "requires beta = ceil(log 2 / log gamma) (ensuring gamma^beta >= 2), "
             "while the headline bound statement prints ceil(log gamma / log 2); "
             "this report uses the '{used}' convention "
             "(section3={b3}, theorem-statement={bt}).")


def _tables(times, values, checks=()):
    """(t, log t, f, log f) of table profiles on one grid of times, one row
    of values per profile, shaped (profiles, times); f is made
    non-decreasing, absorbing rounding-level dips.

    ``checks`` are (bad, message) pairs that come ahead of the table's own,
    bad one flag for every row or one per row.  A row failing a check
    raises ValueError with the message of its first failing check, the
    first such row in order, as if each row were checked on its own.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.ndim != 1 or f.ndim != 2 or f.shape[1:] != t.shape or len(t) < 2:
        raise ValueError("table profile needs matching 1-d arrays, >= 2 points")
    with np.errstate(invalid="ignore"):  # inf - inf in a row failing anyway
        dips = np.diff(f, axis=1) < -1e-12 * np.abs(f[:, :-1])
    checks = [*checks,
              (not np.all((t > 0) & np.isfinite(t)),
               "table times must be finite and strictly positive"),
              (not np.all(np.diff(t) > 0),
               "table times must be strictly increasing"),
              (~np.all((f > 0) & np.isfinite(f), axis=1),
               "profile values must be finite and strictly positive"),
              (np.any(dips, axis=1),
               "profile is non-monotone; a decay profile must be "
               "non-decreasing")]
    bad = np.array([np.broadcast_to(b, len(f)) for b, _ in checks])
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        raise ValueError(checks[int(np.argmax(bad[:, row]))][1])
    f = np.maximum.accumulate(f, axis=1)
    return t, np.log(t), f, np.log(f)


class ProfileDomainError(ValueError):
    """Evaluation outside the profile's domain."""


class DecayProfile:
    """Positive non-decreasing profile, closed-form or tabulated.

    Closed forms: ``power(p)`` for t**p, ``exponential(delta)`` for
    exp(delta*t), ``stretched_exp(delta, eps)`` for exp(delta * t**eps).
    Tables interpolate linearly in log-log coordinates between sample points
    and refuse evaluation outside their grid.
    """

    def __init__(self, kind, params=None, times=None, values=None):
        self.kind = kind
        self.params = dict(params or {})
        if kind == "table":
            self.times, self._log_t, (self.values,), (self._log_f,) = (
                _tables(times, np.asarray(values, dtype=float)[None]))
        elif kind not in ("power", "exp", "stretched-exp"):
            raise ValueError(f"unknown profile kind {kind!r}")

    # constructors ---------------------------------------------------------

    @classmethod
    def power(cls, p):
        if not (math.isfinite(p) and p >= 0):
            raise ValueError(f"power exponent must be finite and "
                             f"nonnegative, got {p!r}")
        return cls("power", {"p": float(p)})

    @classmethod
    def exponential(cls, delta):
        if not (math.isfinite(delta) and delta >= 0):
            raise ValueError(f"delta must be finite and nonnegative, "
                             f"got {delta!r}")
        return cls("exp", {"delta": float(delta)})

    @classmethod
    def stretched_exp(cls, delta, eps):
        if not (math.isfinite(delta) and delta >= 0 and 0.0 <= eps < 1.0):
            raise ValueError("need finite delta >= 0 and eps in [0, 1)")
        return cls("stretched-exp", {"delta": float(delta), "eps": float(eps)})

    @classmethod
    def from_table(cls, times, values):
        return cls("table", times=times, values=values)

    @classmethod
    def from_on_diagonal(cls, curve):
        """Profile f(t) = 1 / P_x(X_t = x) from an on-diagonal curve, a
        sequence of (t, P_x(X_t = x)) pairs: from_on_diagonal_rows on its
        one row."""
        pts = np.asarray(list(curve), dtype=float).reshape(-1, 2)
        return cls.from_on_diagonal_rows(pts[:, 0], pts[None, :, 1])[0]

    @classmethod
    def from_on_diagonal_rows(cls, times, p):
        """Profiles f(t) = 1 / p[k, t], one per row of p, shaped (vertices,
        times): the on-diagonal curves of several vertices on one grid.

        The return probability is non-increasing on finite graphs, so 1/p is
        non-decreasing; a running maximum absorbs kernel-tolerance noise.
        Times t <= 0 are dropped (log-log table).  The profiles share their
        times array; one check covers every row, and a failing row raises
        the error its own profile would, the first such row in order.
        """
        t = np.asarray(times, dtype=float)
        p = np.asarray(p, dtype=float)
        if t.ndim != 1 or p.ndim != 2 or p.shape[1] != len(t):
            raise ValueError("need one row of probabilities per vertex, "
                             "one column per time")
        keep = t > 0
        if np.count_nonzero(keep) < 2:
            raise ValueError("need at least two positive-time samples")
        t, p = t[keep], p[:, keep]
        with np.errstate(divide="ignore"):
            f = np.maximum.accumulate(1.0 / p, axis=1)
        t, log_t, f, log_f = _tables(t, f, [(
            np.any(p <= 0, axis=1),
            "on-diagonal probabilities must be positive")])
        profiles = []
        for row, log_row in zip(f, log_f):
            prof = cls.__new__(cls)
            prof.kind, prof.params = "table", {}
            prof.times, prof._log_t, prof.values, prof._log_f = (
                t, log_t, row, log_row)
            profiles.append(prof)
        return profiles

    # evaluation -----------------------------------------------------------

    @property
    def domain(self):
        if self.kind == "table":
            return (float(self.times[0]), float(self.times[-1]))
        return (0.0, math.inf)

    def log_value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                out = self.params["p"] * np.log(t)
        elif self.kind == "exp":
            out = self.params["delta"] * t
        elif self.kind == "stretched-exp":
            out = self.params["delta"] * t ** self.params["eps"]
        else:
            tt = np.atleast_1d(t)
            self._check_domain(tt)
            out = np.interp(np.log(tt), self._log_t, self._log_f)
            if np.ndim(t) == 0:
                return float(out[0])
        return float(out) if np.ndim(t) == 0 else out

    def _check_domain(self, t):
        """ProfileDomainError unless every t lies in the table's domain."""
        lo, hi = self.domain
        if np.any(t < lo * (1 - 1e-12)) or np.any(t > hi * (1 + 1e-12)):
            raise ProfileDomainError(f"t outside table domain [{lo:g}, {hi:g}]")

    def value(self, t):
        """f(t); inf where f(t) is past the largest float64."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_value(t))

    def __repr__(self):
        if self.kind == "table":
            lo, hi = self.domain
            return f"DecayProfile(table, {len(self.times)} pts on [{lo:g}, {hi:g}])"
        return f"DecayProfile({self.kind}, {self.params})"


def profile_values(profiles, t):
    """f(t) of each profile at the 1-d times t, shaped (profiles, times),
    each row with the bits of its profile's value(t).  The table profiles
    that share one times array, as from_on_diagonal_rows makes them, take
    one domain check and one log t between them, then an np.interp each."""
    t = np.asarray(t, dtype=float)
    log_f = np.empty((len(profiles), len(t)))
    log_t = {}  # id of a shared times array: log t, once its domain passed
    for row, prof in zip(log_f, profiles):
        if prof.kind != "table":
            row[:] = prof.log_value(t)
            continue
        if id(prof.times) not in log_t:
            prof._check_domain(t)
            log_t[id(prof.times)] = np.log(t)
        row[:] = np.interp(log_t[id(prof.times)], prof._log_t, prof._log_f)
    with np.errstate(over="ignore"):
        return np.exp(log_f)


# ---------------------------------------------------------------------------
# regularity fitting

def _window(profile, interval):
    """The checked interval, cut to where the profile can be read."""
    a, b = interval
    if not (math.isfinite(a) and a < b):
        raise ValueError(f"need a finite start a < b, got interval {interval!r}")
    if profile.kind == "table":
        lo, hi = profile.domain
        return max(a, lo), min(b, hi * (1 + 1e-15))
    return (a if a > 0 else CLOSED_FORM_FLOOR,
            b if math.isfinite(b) else CLOSED_FORM_CAP)


def _log_grid(lo, hi, decades):
    """Log-spaced grid from lo to hi, POINTS_PER_DECADE points per decade."""
    count = max(int(decades * POINTS_PER_DECADE) + 1, 2)
    return np.geomspace(lo, hi, count)


def _sweep_grid(profile, gamma, interval):
    """Grid of admissible s values in [a, b/gamma) with gamma*s evaluable."""
    a, b = _window(profile, interval)
    upper = b / gamma
    if profile.kind == "table":
        pts, hi = profile.times, profile.domain[1]
        grid = pts[(pts >= a) & (pts < upper) & (pts * gamma <= hi * (1 + 1e-12))]
    elif upper <= a:
        grid = np.zeros(0)
    else:
        grid = _log_grid(a, upper, math.log10(upper / a))
        grid = grid[grid < upper * (1 - 1e-15) + 1e-300]
    if len(grid) < 2:
        raise ValueError("empty admissible pair set: grid too sparse for this "
                         "interval and gamma")
    return grid


def _least_constants(grid, log_r):
    """Least A of each row of log_r, the log ratios log f(gamma s) - log
    f(s) at the s values of grid along its last axis: the sup over i < j of
    r_i / r_j, clamped below at 1.  Returns the constants and witness(k),
    row k's worst pair (s, t); a constant past float range raises
    ValueError at its witness, the first such row in order."""
    log_r = np.atleast_2d(log_r)
    # sup_{i<j} r_i / r_j via suffix minima of log r
    suffix_min = np.minimum.accumulate(log_r[:, ::-1], axis=1)[:, ::-1]
    diffs = log_r[:, :-1] - suffix_min[:, 1:]
    at = np.argmax(diffs, axis=1)

    def witness(k):
        i = int(at[k])
        j = i + 1 + int(np.argmin(log_r[k, i + 1:]))
        return float(grid[i]), float(grid[j])

    constants = []
    for k, best in enumerate(diffs[np.arange(len(at)), at].tolist()):
        try:
            constants.append(math.exp(best) if best > 0 else 1.0)
        except OverflowError:
            s, t = witness(k)
            raise ValueError(f"the least regularity constant is e^{best:.6g}, "
                             f"past float range, at s = {s:.6g}, t = "
                             f"{t:.6g}") from None
    return constants, witness


def _check_gamma(gamma):
    if not 1 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and exceed 1, got {gamma!r}")


def minimal_regularity_constant(profile, gamma, interval,
                                return_witness=False):
    """Least A making the profile (A, gamma)-regular on the sweep grid.

    Returns sup over grid pairs s < t of [f(gamma s)/f(s)] / [f(gamma t)/f(t)],
    clamped below at 1, with the worst pair (s, t) when return_witness.
    Tables are swept at their own grid points; closed forms on a log-spaced
    grid of POINTS_PER_DECADE points per decade.  A constant past e^709
    raises ValueError naming the worst pair.
    """
    _check_gamma(gamma)
    grid = _sweep_grid(profile, gamma, interval)
    log_r = profile.log_value(gamma * grid) - profile.log_value(grid)
    [a_min], witness = _least_constants(grid, log_r)
    return (a_min, witness(0)) if return_witness else a_min


def minimal_regularity_constants(profiles, gamma, interval):
    """minimal_regularity_constant(profile, gamma, interval) of each table
    profile, as a list, for tables on one grid of times (as
    DecayProfile.from_on_diagonal_rows makes them): one sweep grid, each
    profile read by the np.interp call of its log_value, and the constants
    from one pass over the stacked log ratios, bit for bit those of the
    one-profile function; past e^709 the error is that of the first such
    profile."""
    _check_gamma(gamma)
    if not profiles:
        return []
    first = profiles[0]
    if not all(prof.kind == first.kind == "table"
               and (prof.times is first.times
                    or np.array_equal(prof.times, first.times))
               for prof in profiles):
        raise ValueError("need table profiles on one grid of times")
    grid = _sweep_grid(first, gamma, interval)
    # log_value's domain check holds on the sweep grid by construction
    at = np.concatenate([np.log(gamma * grid), np.log(grid)])
    log_f = np.array([np.interp(at, prof._log_t, prof._log_f)
                      for prof in profiles])
    return _least_constants(grid, log_f[:, :len(grid)]
                            - log_f[:, len(grid):])[0]


def check_regular(profile, A, gamma, interval):
    """(ok, witness): ok iff the minimal grid constant is at most A (within
    REL_TOL); on failure the witness is the violating (s, t) pair."""
    if not 0 < A < math.inf:
        raise ValueError(f"A must be finite and positive, got {A!r}")
    a_min, witness = minimal_regularity_constant(profile, gamma, interval,
                                                 return_witness=True)
    ok = a_min <= A * (1.0 + REL_TOL)
    return ok, (None if ok else witness)


#: growth envelopes of check_envelope, each with the parameters it reads
ENVELOPES = {"exp": ("delta",), "stretched": ("delta", "eps"), "poly": ("eps",)}


def check_envelope(profile, kind, A, interval, delta=None, eps=None):
    """Check f(t) <= A * envelope(t) at all grid points of the interval.

    kind: "exp" (A e^{delta t}, delta >= 1), "stretched"
    (A e^{delta t^eps}, delta >= 0, eps in [0,1)), or "poly" (A t^eps, eps >= 0).
    Returns (ok, witness) with witness the worst grid point on failure.
    """
    if not 1 <= A < math.inf:
        raise ValueError(f"A must be finite and at least 1, got {A!r}")
    if kind not in ENVELOPES:
        raise ValueError(f"unknown envelope kind {kind!r}")
    if kind == "exp":
        if delta is None or not 1 <= delta < math.inf:
            raise ValueError("exp envelope needs finite delta >= 1")
        law = DecayProfile.exponential(delta)
    elif kind == "stretched":
        if (delta is None or eps is None or not 0 <= delta < math.inf
                or not 0 <= eps < 1):
            raise ValueError("stretched envelope needs finite delta >= 0, "
                             "eps in [0,1)")
        law = DecayProfile.stretched_exp(delta, eps)
    else:
        if eps is None or not 0 <= eps < math.inf:
            raise ValueError("poly envelope needs finite eps >= 0")
        law = DecayProfile.power(eps)
    grid = _envelope_grid(profile, interval)
    log_f = np.atleast_1d(profile.log_value(grid))
    log_bound = math.log(A) + law.log_value(grid)
    slack = log_bound - log_f
    worst = int(np.argmin(slack))
    ok = bool(slack[worst] >= -REL_TOL)
    with np.errstate(over="ignore"):  # past e^709 the witness reads inf
        return ok, (None if ok else (float(grid[worst]),
                                     float(np.exp(log_f[worst])),
                                     float(np.exp(log_bound[worst]))))


def _envelope_grid(profile, interval):
    """[a, b] at a table's own points, or a closed form's log grid."""
    a, b = _window(profile, interval)
    if profile.kind == "table":
        grid = profile.times[(profile.times >= a) & (profile.times <= b)]
    else:
        grid = _log_grid(a, b, math.log10(max(b / a, 10.0)))
    if len(grid) == 0:
        raise ValueError("interval contains no evaluable grid points")
    return grid


# ---------------------------------------------------------------------------
# derived constants

def beta_constant(gamma, convention="section3"):
    """Doubling exponent for the regularity machinery.

    section3: ceil(log 2 / log gamma), the form the interval-chaining argument
    needs (gamma**beta >= 2).  theorem-statement: ceil(log gamma / log 2), as
    printed in the headline bound.  A 1e-12 ulp guard keeps exact integer
    ratios from rounding up.
    """
    _check_gamma(gamma)
    if convention == "section3":
        ratio = math.log(2.0) / math.log(gamma)
    elif convention == "theorem-statement":
        ratio = math.log(gamma) / math.log(2.0)
    else:
        raise ValueError(f"unknown beta convention {convention!r}; "
                         f"expected one of {BETA_CONVENTIONS}")
    return max(1, math.ceil(ratio - 1e-12))


def alpha_constant(gamma, delta):
    """min{1/(2 gamma), 1/(64 delta)}, delta >= 0, bit for bit (1/x is correctly
    rounded and monotone); Theorem 1.1 reads profiles at alpha t."""
    return 1.0 / max(2.0 * gamma, 64.0 * delta)


def derived_constants(gamma, delta):
    """(alpha_constant, beta_constant) for gamma > 1 and delta >= 1."""
    beta = beta_constant(gamma)
    if not 1 <= delta < math.inf:
        raise ValueError(f"delta must be finite and at least 1, got {delta!r}")
    return alpha_constant(gamma, delta), beta


def check_halving_lemma(profile, A, gamma, t, k_max):
    """Verify f(t / 2^k) >= (A^beta f(t)/f(gamma^-beta t))^{-k} f(t), k=1..k_max.

    Numerical confirmation of the halving consequence of (A, gamma)-regularity.
    """
    if not (0 < t < math.inf and 0 < A < math.inf):
        raise ValueError(f"t and A must be finite and positive: {t!r}, {A!r}")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    beta = beta_constant(gamma)
    lo, _ = profile.domain
    needed = min(t / 2.0 ** k_max, t * gamma ** (-beta)) if k_max else t
    if needed < lo * (1 - 1e-12):
        raise ProfileDomainError(
            f"halving chain needs t down to {needed:g}, below domain floor {lo:g}")
    k = np.arange(1, k_max + 1)
    # log f at t, gamma^-beta t and t/2^k, k = 1..k_max
    log_f = profile.log_value(
        np.concatenate(([t, t * gamma ** (-beta)], t / 2.0 ** k)))
    log_base = beta * math.log(A) + log_f[0] - log_f[1]
    return not np.any(log_f[2:] < -k * log_base + log_f[0] - REL_TOL)


# ---------------------------------------------------------------------------
# report

def regularity_report(profile, gamma, interval, envelope_kind="none",
                      delta=None, eps=None, beta_convention="section3"):
    """Fit A on the interval, check the requested envelope and derive
    (alpha, beta); a JSON-ready report that surfaces the beta-convention
    discrepancy exactly once."""
    A = minimal_regularity_constant(profile, gamma, interval)
    envelope = {"kind": envelope_kind}
    if envelope_kind != "none":
        # check_envelope rejects an unknown kind or out-of-range parameters
        envelope["holds"], _ = check_envelope(profile, envelope_kind, A,
                                              interval, delta=delta, eps=eps)
        envelope.update((name, {"delta": delta, "eps": eps}[name])
                        for name in ENVELOPES[envelope_kind])
    alpha = alpha_constant(gamma, delta if envelope_kind == "exp" else 0.0)
    b3 = beta_constant(gamma, "section3")
    bt = beta_constant(gamma, "theorem-statement")
    return {
        "A": A,
        "gamma": gamma,
        "interval": [float(interval[0]), float(interval[1])],
        "envelope": envelope,
        "alpha": alpha,
        "beta": beta_constant(gamma, beta_convention),
        "beta_convention": beta_convention,
        "beta_section3": b3,
        "beta_theorem_statement": bt,
        "beta_note": BETA_NOTE.format(used=beta_convention, b3=b3, bt=bt),
        "grid_points_per_decade": POINTS_PER_DECADE,
    }
