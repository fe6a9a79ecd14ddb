import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import heatbound as hb
from heatbound.regularity import (
    BETA_NOTE,
    CLOSED_FORM_CAP,
    CLOSED_FORM_FLOOR,
    ENVELOPES,
    POINTS_PER_DECADE,
    REL_TOL,
    DecayProfile,
    ProfileDomainError,
    alpha_constant,
    beta_constant,
    minimal_regularity_constants,
    regularity_report,
)


def brute_force_min_A(profile, gamma, grid):
    """Oracle: the sup over all grid pairs, computed by double loop."""
    ratios = [profile.value(gamma * s) / profile.value(s) for s in grid]
    best = 1.0
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            best = max(best, ratios[i] / ratios[j])
    return best


def reference_envelope(profile, kind, A, interval, delta=None, eps=None):
    """check_envelope as a loop: each envelope a lambda evaluated point by
    point with math, on a window computed here.  Valid input only; None
    when the window holds no grid point."""
    log_env = {"exp": lambda t: math.log(A) + delta * t,
               "stretched": lambda t: math.log(A) + delta * t ** eps,
               "poly": lambda t: math.log(A) + eps * math.log(t)}[kind]
    a, b = interval
    if profile.kind == "table":
        lo, hi = profile.domain
        a_eff, b_eff = max(a, lo), min(b, hi * (1 + 1e-15))
        grid = profile.times[(profile.times >= a_eff) & (profile.times <= b_eff)]
    else:
        a_eff = a if a > 0 else CLOSED_FORM_FLOOR
        b_eff = b if math.isfinite(b) else CLOSED_FORM_CAP
        decades = math.log10(max(b_eff / a_eff, 10.0))
        count = max(int(decades * POINTS_PER_DECADE) + 1, 2)
        grid = np.geomspace(a_eff, b_eff, count)
    if len(grid) == 0:
        return None
    log_f = np.atleast_1d(profile.log_value(grid))
    log_bound = np.array([log_env(float(t)) for t in grid])
    slack = log_bound - log_f
    worst = int(np.argmin(slack))
    ok = bool(slack[worst] >= -REL_TOL)
    return ok, (None if ok else (float(grid[worst]), float(np.exp(log_f[worst])),
                                 float(np.exp(log_bound[worst]))))


def reference_halving(profile, A, gamma, t, k_max):
    """check_halving_lemma as a loop over k with one log_value call per
    point.  Finite input only."""
    beta = beta_constant(gamma)
    needed = min(t / 2.0 ** k_max, t * gamma ** (-beta)) if k_max else t
    if needed < profile.domain[0] * (1 - 1e-12):
        raise ProfileDomainError("halving chain leaves the domain")
    log_base = (beta * math.log(A) + profile.log_value(t)
                - profile.log_value(t * gamma ** (-beta)))
    log_ft = profile.log_value(t)
    for k in range(1, k_max + 1):
        lhs = profile.log_value(t / 2.0 ** k)
        rhs = -k * log_base + log_ft
        if lhs < rhs - REL_TOL:
            return False
    return True


@st.composite
def tables(draw, max_points=60):
    """Table profiles: increasing times, non-decreasing positive values."""
    n = draw(st.integers(2, max_points))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1))
    times = draw(st.floats(1e-3, 10.0)) * np.exp(np.cumsum([0.0] + steps))
    values = draw(st.floats(1e-3, 1e3)) * np.exp(np.cumsum([0.0] + rises))
    return DecayProfile.from_table(times, values)


CLOSED_FORMS = st.one_of(
    st.floats(0.0, 5.0).map(DecayProfile.power),
    st.floats(0.0, 5.0).map(DecayProfile.exponential),
    st.builds(DecayProfile.stretched_exp, st.floats(0.0, 5.0),
              st.floats(0.0, 0.99)))

# (kind, delta, eps) inside each envelope's parameter range
ENVELOPE_PARAMS = st.one_of(
    st.tuples(st.just("exp"), st.floats(1.0, 10.0), st.none()),
    st.tuples(st.just("stretched"), st.floats(0.0, 5.0), st.floats(0.0, 0.99)),
    st.tuples(st.just("poly"), st.none(), st.floats(0.0, 5.0)))


@st.composite
def profiles_and_intervals(draw):
    """A table with an interval around its domain, or a closed form with an
    interval that may start at 0 or end at inf."""
    if draw(st.booleans()):
        prof = draw(tables())
        lo, hi = prof.domain
        a = lo * draw(st.floats(0.5, 2.0))
        b = draw(st.one_of(st.just(math.inf),
                           st.floats(0.5, 2.0).map(lambda v: hi * v)))
    else:
        prof = draw(CLOSED_FORMS)
        a = draw(st.one_of(st.just(0.0), st.floats(1e-4, 10.0)))
        b = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 100.0)))
    assume(a < b)
    return prof, (a, b)


def piecewise_profile(flat_first):
    """Table profile on [0.1, 10]: flat piece and t^2 piece in either order."""
    t = np.geomspace(0.1, 10.0, 400)
    if flat_first:
        vals = np.where(t <= 1.0, 1.0, t ** 2)
    else:
        vals = np.where(t <= 1.0, t ** 2, 1.0)
    return DecayProfile.from_table(t, vals)


class TestMinimalConstant:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    def test_power_law_is_one(self, p, gamma):
        prof = DecayProfile.power(p)
        a = hb.minimal_regularity_constant(prof, gamma, (0.01, 100.0))
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_pure_exponential_is_one(self):
        prof = DecayProfile.exponential(1.0)
        a = hb.minimal_regularity_constant(prof, 2.0, (0.01, 50.0))
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_against_brute_force(self):
        # the ratio f(2s)/f(s) must *decrease* somewhere for A > 1: that is
        # the quadratic-then-flat shape; flat-then-quadratic stays at A = 1
        for flat_first, expect_gt_one in ((True, False), (False, True)):
            prof = piecewise_profile(flat_first)
            grid = prof.times[prof.times < 10.0 / 2.0]
            a = hb.minimal_regularity_constant(prof, 2.0, (0.1, 10.0))
            oracle = brute_force_min_A(prof, 2.0, grid)
            assert a == pytest.approx(oracle, rel=1e-9)
            assert (a > 1.0 + 1e-6) == expect_gt_one

    def test_monotone_under_interval_inclusion(self):
        prof = piecewise_profile(flat_first=False)
        a_small = hb.minimal_regularity_constant(prof, 2.0, (0.4, 3.0))
        a_large = hb.minimal_regularity_constant(prof, 2.0, (0.1, 10.0))
        assert a_large >= a_small - 1e-12

    def test_empty_pair_set(self):
        prof = DecayProfile.from_table([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="empty admissible pair"):
            hb.minimal_regularity_constant(prof, 10.0, (1.0, 3.0))

    def test_non_monotone_table_rejected(self):
        with pytest.raises(ValueError, match="non-monotone"):
            DecayProfile.from_table([1.0, 2.0, 3.0], [1.0, 0.5, 2.0])

    @given(st.floats(0.1, 4.0), st.floats(1.2, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_power_law_property(self, p, gamma):
        prof = DecayProfile.power(p)
        a = hb.minimal_regularity_constant(prof, gamma, (0.1, 1000.0))
        assert a <= 1.0 + 1e-10


class TestCheckRegular:
    def test_square_with_a_one(self):
        ok, witness = hb.check_regular(DecayProfile.power(2.0), 1.0, 2.0,
                                       (0.1, 100.0))
        assert ok and witness is None

    def test_a_below_one_fails_with_witness(self):
        ok, witness = hb.check_regular(DecayProfile.power(2.0), 0.5, 2.0,
                                       (0.1, 100.0))
        assert not ok
        s, t = witness
        assert s < t

    def test_fitted_constant_self_consistent(self):
        prof = DecayProfile.stretched_exp(1.0, 0.5)
        a = hb.minimal_regularity_constant(prof, 2.0, (0.1, 100.0))
        ok, _ = hb.check_regular(prof, a, 2.0, (0.1, 100.0))
        assert ok

    def test_constant_past_float_range(self):
        # the ratio f(2s)/f(s) falls by e^1382 from s = 2 to s = 3
        t = np.arange(1.0, 9.0)
        prof = DecayProfile.from_table(t, np.where(t < 3, 1e-300, 1e300))
        with pytest.raises(ValueError, match="past float range, at s = 2, "
                                             "t = 3"):
            hb.minimal_regularity_constant(prof, 2.0, prof.domain)

    def test_piecewise_fitted(self):
        prof = piecewise_profile(flat_first=False)
        a = hb.minimal_regularity_constant(prof, 2.0, (0.1, 10.0))
        ok, _ = hb.check_regular(prof, a, 2.0, (0.1, 10.0))
        assert ok


class TestEnvelope:
    def test_csrw_on_diagonal_exp_envelope(self, two_state):
        grid = np.geomspace(1e-3, 20.0, 120)
        curve = hb.on_diagonal_curve(two_state, "a", grid, tol=1e-12)
        prof = DecayProfile.from_on_diagonal(curve)
        ok, witness = hb.check_envelope(prof, "exp", 1.0, prof.domain, delta=1.0)
        assert ok, witness

    def test_polynomial_under_stretched(self):
        # t^{kappa + d/2} / kappa against A exp(2^-9 t^eps), A fitted on grid
        kappa, d, eps = 2.0, 2.0, 0.5
        t = np.geomspace(1.0, 1e4, 300)
        prof = DecayProfile.from_table(t, t ** (kappa + d / 2) / kappa)
        need = np.max(np.log(prof.values) - 2.0 ** -9 * t ** eps)
        A = math.exp(need) * (1 + 1e-9)
        ok, _ = hb.check_envelope(prof, "stretched", A, prof.domain,
                                  delta=2.0 ** -9, eps=eps)
        assert ok
        ok_small, witness = hb.check_envelope(prof, "stretched", max(A / 10, 1.0),
                                              prof.domain, delta=2.0 ** -9,
                                              eps=eps)
        assert not ok_small and witness is not None

    def test_fast_exponential_fails(self):
        prof = DecayProfile.exponential(2.0)
        ok, witness = hb.check_envelope(prof, "exp", 1.0, (0.1, 10.0), delta=1.0)
        assert not ok
        t, f_val, bound_val = witness
        assert f_val > bound_val and t > 0

    def test_witness_past_float_range(self):
        # f = e^{3000 sqrt t} against e^{3000 t}: the worst point, t = 1/4,
        # has f = e^1500 and bound e^750, which read inf without a warning
        prof = DecayProfile.stretched_exp(3000.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, witness = hb.check_envelope(prof, "exp", 1.0, (0.01, 1.0),
                                            delta=3000.0)
        assert not ok
        t, f_val, bound_val = witness
        assert t == pytest.approx(0.25, rel=0.01)
        assert f_val == bound_val == math.inf

    def test_poly_envelope(self):
        prof = DecayProfile.power(1.0)
        ok, _ = hb.check_envelope(prof, "poly", 1.0, (1.0, 100.0), eps=2.0)
        assert ok

    def test_parameter_domains(self):
        prof = DecayProfile.power(1.0)
        with pytest.raises(ValueError, match="delta >= 1"):
            hb.check_envelope(prof, "exp", 1.0, (0.1, 1.0), delta=0.5)
        with pytest.raises(ValueError, match="eps in"):
            hb.check_envelope(prof, "stretched", 1.0, (0.1, 1.0), delta=1.0,
                              eps=1.0)
        with pytest.raises(ValueError, match="eps >= 0"):
            hb.check_envelope(prof, "poly", 1.0, (0.1, 1.0), eps=-1.0)


class TestDerivedConstants:
    def test_gamma2_delta1(self):
        assert hb.derived_constants(2.0, 1.0) == (1.0 / 64.0, 1)

    def test_gamma15(self):
        alpha, beta = hb.derived_constants(1.5, 1.0)
        assert beta == 2
        assert alpha == pytest.approx(1.0 / 64.0)

    def test_gamma4_delta2(self):
        assert hb.derived_constants(4.0, 2.0) == (1.0 / 128.0, 1)

    def test_conventions_disagree_at_15(self):
        assert beta_constant(1.5, "section3") == 2
        assert beta_constant(1.5, "theorem-statement") == 1
        assert beta_constant(2.0, "section3") == beta_constant(
            2.0, "theorem-statement") == 1

    def test_section3_guarantees_doubling(self):
        for gamma in (1.1, 1.3, 1.5, 2.0, 3.0, 7.0):
            beta = beta_constant(gamma, "section3")
            assert gamma ** beta >= 2.0 - 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hb.derived_constants(1.0, 1.0)
        with pytest.raises(ValueError):
            hb.derived_constants(2.0, 0.5)


class TestHalvingLemma:
    def test_power_law_chain(self):
        prof = DecayProfile.power(1.0)  # d/2 with d = 2
        assert hb.check_halving_lemma(prof, 1.0, 2.0, t=8.0, k_max=10)

    def test_k_zero_vacuous(self):
        prof = DecayProfile.power(2.0)
        assert hb.check_halving_lemma(prof, 1.0, 2.0, t=1.0, k_max=0)

    def test_fitted_profile(self, two_state):
        grid = np.geomspace(1e-3, 50.0, 200)
        prof = DecayProfile.from_on_diagonal(
            hb.on_diagonal_curve(two_state, "a", grid, tol=1e-12))
        a = hb.minimal_regularity_constant(prof, 2.0, prof.domain)
        assert hb.check_halving_lemma(prof, a, 2.0, t=1.0, k_max=5)

    def test_domain_underflow(self):
        prof = DecayProfile.from_table([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        with pytest.raises(ProfileDomainError):
            hb.check_halving_lemma(prof, 1.0, 2.0, t=4.0, k_max=6)

    def test_doubled_regularity_numerically(self):
        # (A, gamma)-regular implies (A^beta, gamma^beta)-regular, gamma^beta >= 2
        prof = piecewise_profile(flat_first=False)
        gamma = 1.5
        a = hb.minimal_regularity_constant(prof, gamma, (0.1, 10.0))
        beta = beta_constant(gamma)
        assert gamma ** beta >= 2.0
        a2 = hb.minimal_regularity_constant(prof, gamma ** beta, (0.1, 10.0))
        assert a2 <= a ** beta * (1 + 1e-9)


class TestReport:
    def test_note_appears_exactly_once(self):
        prof = DecayProfile.power(1.0)
        report = regularity_report(prof, 1.5, (0.1, 100.0))
        blob = json.dumps(report)
        assert blob.count("beta convention discrepancy") == 1
        assert report["beta_section3"] == 2
        assert report["beta_theorem_statement"] == 1
        assert report["beta"] == 2

    def test_convention_switch(self):
        prof = DecayProfile.power(1.0)
        report = regularity_report(prof, 1.5, (0.1, 100.0),
                                   beta_convention="theorem-statement")
        assert report["beta"] == 1
        assert BETA_NOTE.format(used="theorem-statement", b3=2, bt=1) == \
            report["beta_note"]

    def test_envelope_in_report(self, two_state):
        grid = np.geomspace(1e-2, 10.0, 80)
        prof = DecayProfile.from_on_diagonal(
            hb.on_diagonal_curve(two_state, "a", grid))
        report = regularity_report(prof, 2.0, prof.domain,
                                   envelope_kind="exp", delta=1.0)
        assert report["envelope"]["holds"]
        assert report["alpha"] == 1.0 / 64.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("A, t", [(1.0, math.nan), (1.0, math.inf),
                                      (math.nan, 8.0), (math.inf, 8.0),
                                      (-1.0, 8.0)])
    def test_halving_needs_finite_positive_t_and_A(self, A, t):
        with pytest.raises(ValueError, match="finite and positive"):
            hb.check_halving_lemma(DecayProfile.power(1.0), A, 2.0, t, 3)

    @pytest.mark.parametrize("interval", [(0.1, math.nan), (math.nan, 10.0),
                                          (10.0, 0.1)])
    def test_envelope_window_checked(self, interval):
        with pytest.raises(ValueError, match="finite start a < b"):
            hb.check_envelope(DecayProfile.power(1.0), "poly", 1.0, interval,
                              eps=1.0)

    @pytest.mark.parametrize("A", [math.inf, math.nan])
    def test_envelope_needs_finite_A(self, A):
        with pytest.raises(ValueError, match="A must be finite"):
            hb.check_envelope(DecayProfile.power(1.0), "poly", A, (0.1, 10.0),
                              eps=1.0)

    @pytest.mark.parametrize("A", [math.inf, math.nan])
    def test_regular_needs_finite_A(self, A):
        with pytest.raises(ValueError, match="A must be finite"):
            hb.check_regular(DecayProfile.power(2.0), A, 2.0, (0.1, 100.0))


class TestChecksEqualLoops:
    """The array checks against the per-point loops they replace."""

    @given(profiles_and_intervals(), ENVELOPE_PARAMS, st.floats(1.0, 1e3))
    @settings(max_examples=150, deadline=None)
    def test_envelope(self, prof_interval, params, A):
        prof, interval = prof_interval
        kind, delta, eps = params
        # a failing envelope's witness values may overflow to inf, in both
        with np.errstate(over="ignore"):
            ref = reference_envelope(prof, kind, A, interval, delta, eps)
            if ref is None:
                with pytest.raises(ValueError, match="no evaluable grid"):
                    hb.check_envelope(prof, kind, A, interval, delta=delta,
                                      eps=eps)
                return
            ok, witness = hb.check_envelope(prof, kind, A, interval,
                                            delta=delta, eps=eps)
        assert ok == ref[0]
        if not ok:
            # the envelope's value comes from numpy's pow and log, the
            # reference's from math's: they may differ in the last bits
            assert witness[:2] == ref[1][:2]
            assert math.isclose(witness[2], ref[1][2], rel_tol=1e-12)

    @given(st.one_of(tables(), CLOSED_FORMS), st.floats(1.0, 100.0),
           st.floats(1.05, 8.0), st.floats(0.0, 1.0), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_halving(self, prof, A, gamma, u, k_max):
        if prof.kind == "table":
            lo, hi = prof.domain
            t = min(lo * (hi / lo) ** u, hi)
        else:
            t = 10.0 ** (6.0 * u - 3.0)
        try:
            expected = reference_halving(prof, A, gamma, t, k_max)
        except ProfileDomainError:
            with pytest.raises(ProfileDomainError):
                hb.check_halving_lemma(prof, A, gamma, t, k_max)
            return
        assert hb.check_halving_lemma(prof, A, gamma, t, k_max) is expected

    @given(tables(max_points=30), st.floats(1.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_minimal_constant_against_brute_force(self, prof, gamma):
        grid = prof.times[prof.times < prof.domain[1] / gamma]
        assume(len(grid) >= 2)
        a = hb.minimal_regularity_constant(prof, gamma, prof.domain)
        assert a == pytest.approx(brute_force_min_A(prof, gamma, grid),
                                  rel=1e-9)

    @given(st.floats(1.0, math.inf, exclude_min=True, exclude_max=True),
           st.floats(0.0, math.inf, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_alpha_is_the_min_form(self, gamma, delta):
        assert alpha_constant(gamma, delta) == min(1.0 / (2.0 * gamma),
                                                   1.0 / (64.0 * delta))

    @pytest.mark.parametrize("kind", ["none", *ENVELOPES])
    def test_report_names_the_envelope_parameters(self, kind):
        report = regularity_report(DecayProfile.power(1.0), 2.0, (0.1, 100.0),
                                   envelope_kind=kind, delta=1.0, eps=0.5)
        names = {"holds", *ENVELOPES[kind]} if kind != "none" else set()
        assert set(report["envelope"]) == {"kind"} | names


# ---------------------------------------------------------------------------
# stacked tables: one check and one least-ratio pass for many profiles

def parent_table(times, values):
    """(t, f) of the table branch of DecayProfile.__init__ as it was before
    the check was shared with the stacked constructor."""
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or len(t) < 2:
        raise ValueError("table profile needs matching 1-d arrays, >= 2 points")
    if not np.all((t > 0) & np.isfinite(t)):
        raise ValueError("table times must be finite and strictly positive")
    if not np.all(np.diff(t) > 0):
        raise ValueError("table times must be strictly increasing")
    if not np.all((f > 0) & np.isfinite(f)):
        raise ValueError("profile values must be finite and strictly positive")
    if np.any(np.diff(f) < -1e-12 * np.abs(f[:-1])):
        raise ValueError("profile is non-monotone; a decay profile must be "
                         "non-decreasing")
    return t, np.maximum.accumulate(f)


def parent_on_diagonal(curve):
    """(t, f) of DecayProfile.from_on_diagonal as it was before it became a
    call of from_on_diagonal_rows."""
    pts = [(t, p) for t, p in curve if t > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive-time samples")
    t = np.array([q[0] for q in pts])
    p = np.array([q[1] for q in pts])
    if np.any(p <= 0):
        raise ValueError("on-diagonal probabilities must be positive")
    return parent_table(t, np.maximum.accumulate(1.0 / p))


def outcome(build):
    """The bytes of the (t, f, log t, log f) arrays build() returns, or the
    type and message of the ValueError it raises."""
    try:
        return tuple(a.tobytes() for a in build())
    except ValueError as exc:
        return type(exc), str(exc)


def arrays(prof):
    return prof.times, prof.values, prof._log_t, prof._log_f


def parent_arrays(parent):
    """The arrays of a profile built from the parent's (t, f)."""
    t, f = parent
    return t, f, np.log(t), np.log(f)


def reciprocal(values):
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(values, dtype=float)


# (times, values) of a table; the on-diagonal routes read p = 1 / values
TABLE_CASES = {
    "one point": ([1.0], [2.0]),
    "no points": ([], []),
    "lengths differ": ([1.0, 2.0, 3.0], [1.0, 2.0]),
    "zero time": ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
    "negative time": ([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
    "infinite time": ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
    "nan time": ([1.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
    "times not increasing": ([1.0, 3.0, 2.0], [1.0, 2.0, 3.0]),
    "repeated time": ([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
    "zero value": ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
    "negative value": ([1.0, 2.0, 3.0], [-1.0, 1.0, 2.0]),
    "infinite value": ([1.0, 2.0, 3.0], [1.0, 2.0, math.inf]),
    "nan value": ([1.0, 2.0, 3.0], [1.0, math.nan, 2.0]),
    "non-monotone": ([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]),
    "rounding dip": ([1.0, 2.0, 3.0], [1.0, 1.0 - 1e-14, 2.0]),
    "valid": ([0.5, 1.0, 4.0], [1.0, 2.0, 8.0]),
}


class TestTableChecks:
    """DecayProfile("table"), from_table, from_on_diagonal and
    from_on_diagonal_rows share one table check; each raises the parent's
    error, type and message, or builds the parent's arrays bit for bit."""

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_table_routes(self, case):
        times, values = TABLE_CASES[case]
        want = outcome(lambda: parent_arrays(parent_table(times, values)))
        assert outcome(lambda: arrays(DecayProfile(
            "table", times=times, values=values))) == want
        assert outcome(lambda: arrays(
            DecayProfile.from_table(times, values))) == want

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_on_diagonal_routes(self, case):
        times, values = TABLE_CASES[case]
        curve = list(zip(times, reciprocal(values).tolist()))
        want = outcome(lambda: parent_arrays(parent_on_diagonal(curve)))
        assert outcome(lambda: arrays(
            DecayProfile.from_on_diagonal(curve))) == want
        t = [q[0] for q in curve]
        p = [q[1] for q in curve]
        assert outcome(lambda: arrays(
            DecayProfile.from_on_diagonal_rows(t, [p])[0])) == want

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_stacked_rows(self, case):
        # a failing row raises its own error wherever it stands; a valid
        # row beside it changes nothing
        times, values = TABLE_CASES[case]
        curve = list(zip(times, reciprocal(values).tolist()))
        t = [q[0] for q in curve]
        bad = [q[1] for q in curve]
        good = [1.0 / (1.0 + k) for k in range(len(t))]
        want = outcome(lambda: parent_arrays(parent_on_diagonal(curve)))
        for rows, k in (([good, bad], 1), ([bad, good], 0),
                        ([good, bad, good], 1)):
            assert outcome(lambda: arrays(
                DecayProfile.from_on_diagonal_rows(t, rows)[k])) == want

    def test_first_failing_row_names_its_first_failing_check(self):
        # row 0 has a nan value (the table check), row 1 a zero value (the
        # on-diagonal check, which comes first within a row): row 0's
        # error is raised, and row 1's when the rows swap
        t = [1.0, 2.0, 3.0]
        nan_row, zero_row = [1.0, math.nan, 0.5], [1.0, 0.0, 0.5]
        for rows in ([nan_row, zero_row], [zero_row, nan_row]):
            want = outcome(lambda: parent_arrays(
                parent_on_diagonal(list(zip(t, rows[0])))))
            assert outcome(lambda: arrays(
                DecayProfile.from_on_diagonal_rows(t, rows)[0])) == want
        with pytest.raises(ValueError, match="one row of probabilities"):
            DecayProfile.from_on_diagonal_rows(t, [1.0, 0.5, 0.25])

    @given(st.lists(st.lists(st.floats(1e-300, 1e300), min_size=12,
                             max_size=12), min_size=1, max_size=5),
           st.floats(1.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_stacked_fit_equals_one_profile_fits(self, rows, gamma):
        # profiles, constants and witnesses equal the one-profile functions'
        # bit for bit, or both raise the same error (p spans 1381 e-folds,
        # so some least constants are past e^709)
        t = np.geomspace(0.01, 100.0, 12)
        profiles = DecayProfile.from_on_diagonal_rows(t, rows)
        assert len(profiles) == len(rows)
        single = []
        for prof, p in zip(profiles, rows):
            one = DecayProfile.from_on_diagonal(zip(t.tolist(), p))
            assert outcome(lambda: arrays(prof)) == outcome(
                lambda: arrays(one))
            single.append(outcome_of_constant(one, gamma, one.domain))
        stacked = outcome_of_constants(profiles, gamma, profiles[0].domain)
        errors = [s for s in single if isinstance(s[0], type)]
        if errors:
            assert stacked == errors[0]
        else:
            assert stacked == [a for a, _ in single]


def outcome_of_constant(prof, gamma, interval):
    try:
        return hb.minimal_regularity_constant(prof, gamma, interval,
                                              return_witness=True)
    except ValueError as exc:
        return type(exc), str(exc)


def outcome_of_constants(profiles, gamma, interval):
    try:
        return minimal_regularity_constants(profiles, gamma, interval)
    except ValueError as exc:
        return type(exc), str(exc)


class TestStackedConstants:
    def test_past_float_range_first_such_row(self):
        # f jumps from 1e-300 to 1e300 at t = 3 in row 1 and at t = 4 in row
        # 2; row 0 is regular.  Both functions raise row 1's error, and row
        # 2's without row 1
        t = np.arange(1.0, 11.0)
        rows = [1.0 / t, np.where(t < 3, 1e300, 1e-300),
                np.where(t < 4, 1e300, 1e-300)]
        profiles = DecayProfile.from_on_diagonal_rows(t, rows)
        with pytest.raises(ValueError) as one:
            hb.minimal_regularity_constant(profiles[1], 2.0,
                                           profiles[1].domain)
        assert "past float range, at s = 2, t = 3" in str(one.value)
        with pytest.raises(ValueError) as stacked:
            minimal_regularity_constants(profiles, 2.0, profiles[0].domain)
        assert type(stacked.value) is type(one.value)
        assert str(stacked.value) == str(one.value)
        with pytest.raises(ValueError, match="at s = 2, t = 4"):
            minimal_regularity_constants(profiles[::2], 2.0,
                                         profiles[0].domain)

    def test_tables_on_different_times_rejected(self):
        a = DecayProfile.from_table([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        b = DecayProfile.from_table([1.0, 2.0, 5.0], [1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="one grid of times"):
            minimal_regularity_constants([a, b], 2.0, a.domain)
        with pytest.raises(ValueError, match="one grid of times"):
            minimal_regularity_constants([DecayProfile.power(1.0)], 2.0,
                                            (1.0, 4.0))
        assert minimal_regularity_constants([], 2.0, (1.0, 4.0)) == []
        with pytest.raises(ValueError, match="gamma must be finite"):
            minimal_regularity_constants([], 1.0, (1.0, 4.0))
