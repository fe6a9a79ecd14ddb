import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatbound as hb
from heatbound.regularity import (
    BETA_NOTE,
    DecayProfile,
    ProfileDomainError,
    beta_constant,
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
