import math
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

import heatbound as hb
from heatbound.bounds import (
    FORMULAS,
    LOG_TOL,
    PROFILE_POINTS,
    BoundRow,
    SweepSetup,
    _log_gaussian_bound,
    _logs,
    all_pairs,
    bound_sweep,
    empirical_sweep,
    fit_sweep_setup,
    interval_window_start,
    log_tail_bound_short_time,
    paper_constants,
    poly_window_start,
    subexp_window_start,
    summarize_rows,
)
from heatbound.kernel import KernelEvolution
from heatbound.regularity import DecayProfile, alpha_constant, beta_constant

from conftest import ENGINE_SUITE, random_suite


@pytest.fixture(scope="module")
def ledger():
    return paper_constants()


class TestConstantLedger:
    def test_theta_chain_exact(self, ledger):
        assert ledger.theta1 == 1e-6
        assert ledger.theta2 == ledger.theta1 / 5 == 2e-7
        assert ledger.theta == ledger.theta2 / 2 == 1e-7

    def test_log_c0_dominated_by_proof_constant(self, ledger):
        # C0 = e^{theta1+0.01} + e^{-theta1}(1-e^{-theta1})^{-1} + 2 e^{123};
        # the last term dwarfs the others by ~47 orders of magnitude
        assert ledger.log_C0 == pytest.approx(123.0 + math.log(2.0), abs=1e-9)
        small = math.exp(ledger.theta1 + 0.01) + \
            math.exp(-ledger.theta1) / (-math.expm1(-ledger.theta1))
        oracle = 123.0 + math.log(2.0) + math.log1p(
            small * math.exp(-123.0) / 2.0)
        assert ledger.log_C0 == pytest.approx(oracle, abs=1e-12)

    def test_log_c1_oracle(self, ledger):
        tail = sum(math.exp(-ledger.theta2 * 4.0 ** (j - 1))
                   for j in range(1, 200))
        oracle = math.log(math.exp(4e6 * ledger.theta2 - ledger.log_C0)
                          + tail + 1.0) + ledger.log_C0
        assert ledger.log_C1 == pytest.approx(oracle, rel=1e-12)

    def test_equals_scipy_logsumexp(self, ledger):
        # the chain as scipy.special.logsumexp computes it, field for field
        from scipy.special import logsumexp
        theta1 = 1e-6
        theta2 = theta1 / 5.0
        log_c0 = float(logsumexp([theta1 + 0.01,
                                  -theta1 - math.log(-math.expm1(-theta1)),
                                  math.log(2.0) + 123.0]))
        tail = float(logsumexp(-theta2 * 4.0 ** np.arange(0, 64)))
        log_c1 = float(logsumexp([4e6 * theta2, log_c0 + tail, log_c0]))
        assert astuple(ledger) == (theta1, theta2, theta2 / 2.0, log_c0,
                                   log_c1, "paper-explicit")

    def test_provenance_switch(self, ledger):
        emp = ledger.with_empirical_C1(3.5)
        assert emp.provenance == "empirical-fit"
        assert emp.log_C1 == pytest.approx(math.log(3.5))
        assert ledger.provenance == "paper-explicit"
        with pytest.raises(ValueError):
            ledger.with_empirical_C1(0.0)


class TestLogs:
    @pytest.mark.parametrize("values", [
        np.float64(0.3), np.array([]), np.zeros((0, 3)),
        np.array([[5e-324, 0.1, 1.0], [2.0, 1e300, math.inf]]),
        np.random.default_rng(4).random((7, 11)) * 1e3],
        ids=["0-d", "empty", "empty-2d", "special", "random"])
    def test_each_value_is_math_log(self, values):
        # the bits of math.log, value by value, in the shape of values
        logs = _logs(values)
        assert logs.shape == np.shape(values) and logs.dtype == np.float64
        expected = [math.log(v) for v in np.ravel(values).tolist()]
        assert np.array(expected).tobytes() == logs.ravel().tobytes()

    def test_xlogy_is_math_log(self):
        # _logs is xlogy(1, x), whose log is the C library's, the one
        # math.log calls; np.log differs from it in the last bit on some of
        # these values.  Subnormals up to 1e308, the powers of two, values
        # near 1, and inf and nan
        rng = np.random.default_rng(28)
        tiny = np.finfo(float).tiny
        values = np.concatenate([
            np.exp(rng.uniform(math.log(5e-324), math.log(1e308), 100_000)),
            rng.uniform(0.0, tiny, 2_000) + 5e-324,
            np.ldexp(1.0, np.arange(-1074, 1024)),
            1.0 + rng.uniform(-1e-3, 1e-3, 5_000),
            np.nextafter(1.0, 2.0) ** np.arange(-64, 65),
            [1.0, tiny, np.finfo(float).max, math.inf, math.nan]])
        expected = np.array([math.log(v) for v in values.tolist()])
        assert xlogy(1.0, values).tobytes() == expected.tobytes()
        assert _logs(values).tobytes() == expected.tobytes()
        assert not np.array_equal(np.log(values), expected, equal_nan=True)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -5e-324, -1.0, -math.inf])
    def test_non_positive_value_raises_as_math_log(self, bad):
        with pytest.raises(ValueError):
            math.log(bad)
        for values in (bad, np.array([[2.0, math.nan], [bad, 1.0]])):
            with pytest.raises(ValueError, match="^math domain error$"):
                _logs(values)


class TestBoundFormulas:
    def test_zero_distance_drops_gaussian_factor(self, p3_csrw, ledger):
        lb = _log_gaussian_bound(math.log(2.0), math.log(8.0), 1.0, 4.0,
                                 d=0.0, t=1.0,
                                 log_C1=ledger.log_C1,
                                 log_prefactor=2 * math.log(1.5),
                                 theta=ledger.theta)
        expected = (ledger.log_C1 + 2 * math.log(1.5)
                    + 0.5 * math.log(4.0)
                    - 0.5 * (math.log(2.0) + math.log(8.0)))
        assert lb == pytest.approx(expected, rel=1e-14)
        # a sweep row of a vertex with itself has d = 0 and is in domain
        g = p3_csrw
        m = hb.shortest_path_metric(g)
        setup = fit_sweep_setup(g, [("0", "0")], [1.0], gamma=2.0, delta=1.0)
        (row,) = bound_sweep(g, m, "thm1.1", [1.0], pairs=[("0", "0")],
                             ledger=ledger, setup=setup)
        f = setup.profiles["0"].value(setup.alpha * 1.0)
        assert row.d_nu == 0.0 and row.in_domain
        assert row.log_bound == pytest.approx(
            ledger.log_C1 + setup.beta * math.log(setup.A) - math.log(f),
            rel=1e-14)

    def test_doubling_distance_adds_three_theta(self, ledger):
        args = dict(log_f1=0.0, log_f2=0.0, nu1=1.0, nu2=1.0,
                    log_C1=ledger.log_C1, log_prefactor=0.0,
                    theta=ledger.theta)
        t = 5.0
        lb1 = _log_gaussian_bound(d=1.0, t=t, **args)
        lb2 = _log_gaussian_bound(d=2.0, t=t, **args)
        assert lb2 - lb1 == pytest.approx(-3.0 * ledger.theta / t, rel=1e-9)

    def test_domain_flag(self, p5_csrw, ledger):
        g = p5_csrw
        m = hb.shortest_path_metric(g)
        rows = bound_sweep(g, m, "thm1.1", [1.0, 2.5, 4.0], ledger=ledger,
                           gamma=2.0, delta=1.0)
        assert all(r.in_domain == (r.t >= r.d_nu) for r in rows)
        (far,) = [r for r in rows if (r.x1, r.x2, r.t) == ("0", "4", 1.0)]
        assert far.d_nu == 4.0 and not far.in_domain

    def test_p3_csrw_holds_at_small_multiples(self, p3_csrw, ledger):
        g = p3_csrw
        m = hb.shortest_path_metric(g)
        d = m.d("0", "2")
        times = [d, 2 * d, 10 * d]
        setup = fit_sweep_setup(g, [("0", "2")], times, gamma=2.0, delta=1.0)
        rows = bound_sweep(g, m, "thm1.1", times, pairs=[("0", "2")],
                           ledger=ledger, setup=setup)
        assert all(r.passed and r.in_domain for r in rows)

    def test_interval_window(self):
        assert interval_window_start(0.0, 1.0 / 64, 3.0) == 3.0
        assert interval_window_start(2.0, 1.0 / 64, 3.0) == 8 * 4096 * 4

    def test_subexp_window(self):
        assert subexp_window_start(1.0, 0.5, 4.0, 1.0) == 2 ** 9 * 8.0
        assert subexp_window_start(0.0, 0.5, 4.0, 1.5) == 1.5  # delta = 0

    def test_poly_window(self):
        assert poly_window_start(3.0, 0.5, 2.0) == 2.0  # T1 <= 1
        assert poly_window_start(3.0, math.e, 1.0) == pytest.approx(
            2 ** 10 * 3 * math.e, rel=1e-12)

    def test_parameter_validation(self, k4_csrw, ledger):
        g = k4_csrw
        m = hb.shortest_path_metric(g)
        # power(400) read at s = alpha t = 1e-3 underflows to f = 0
        setup = fit_sweep_setup(g, [("0", "1")], [1.0], gamma=2.0, delta=1.0)
        setup = replace(setup, profiles={v: DecayProfile.power(400.0)
                                         for v in setup.profiles})
        with pytest.raises(ValueError, match="profile values must be positive"):
            bound_sweep(g, m, "thm1.1", [1e-3 / setup.alpha],
                        pairs=[("0", "1")], ledger=ledger, setup=setup)
        for formula, epsilon in (("thm5.1", 1.0), ("thm5.2", -0.5)):
            setup = fit_sweep_setup(g, [("0", "1")], [2.0], gamma=2.0,
                                    delta=1.0, epsilon=epsilon)
            with pytest.raises(ValueError, match="need eps"):
                bound_sweep(g, m, formula, [2.0], pairs=[("0", "1")],
                            ledger=ledger, setup=setup)


class TestShortLong:
    def test_branch_point_values(self):
        sl = hb.bound_short_long(1.0, 1.0, r=16.0, t=16.0)
        assert sl.branch == "both"
        assert sl.log_long == pytest.approx(-1.0)  # r^2/(16 t) = 1 at t = r
        assert sl.log_short == pytest.approx(-8.0 * math.log(1.01) + 60.0)
        assert sl.log_min() == sl.log_long

    def test_branch_selection(self):
        assert hb.bound_short_long(1.0, 1.0, 2.0, 8.0).branch == "long"
        assert hb.bound_short_long(1.0, 1.0, 8.0, 2.0).branch == "short"
        assert hb.bound_short_long(1.0, 1.0, 2.0, 8.0).log_short is None

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError, match="on-diagonal"):
            hb.bound_short_long(1.0, 1.0, 0.0, 1.0)

    def test_short_branch_tightens_as_t_shrinks(self):
        r = 4.0
        vals = [hb.bound_short_long(1.0, 1.0, r, t).log_short
                for t in np.geomspace(r, r * 1e-90, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # -(r/2) log(1.01 r/t) + 60 eventually swamps the +60 offset
        assert vals[-1] < -300

    def test_kernel_oracle_on_random_graphs(self):
        for g in random_suite(4, 10, seed0=500, nu_range=(0.2, 5),
                              mu_range=(0.2, 5)):
            m = hb.shortest_path_metric(g)
            o = g.vertex_ids[0]
            z = g.vertex_ids[int(np.argmax(m.dist[g.index(o)]))]
            r = m.d(o, z)
            nu_o, nu_z = g.nu[g.index(o)], g.nu[g.index(z)]
            for t in (r / 4, r, 4 * r):
                p = hb.heat_kernel(g, o, t, tol=1e-12).prob(z)
                sl = hb.bound_short_long(nu_o, nu_z, r, t)
                log_p = math.log(p) if p > 0 else -math.inf
                for log_b in (sl.log_long, sl.log_short):
                    if log_b is not None:
                        assert log_p <= log_b + LOG_TOL


class TestElementaryInequalities:
    def test_dense_grid(self):
        eps = np.linspace(0.0, 1.0, 200)
        x = np.linspace(0.0, 50.0, 200)
        s1, s2 = hb.elementary_inequality_slacks(eps, x)
        assert s1.min() >= -1e-12
        assert s2.min() >= -1e-12

    def test_equality_edges_exact(self):
        s1, s2 = hb.elementary_inequality_slacks([0.0, 1.0], [0.0, 1.0, 50.0])
        assert np.all(s1[0] == 0.0) and np.all(s2[0] == 0.0)  # eps = 0
        assert np.all(s1[1] == 0.0) and np.all(s2[1] == 0.0)  # eps = 1

    @given(st.floats(0.0, 1.0), st.floats(0.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_pointwise_property(self, eps, x):
        s1, s2 = hb.elementary_inequality_slacks([eps], [x])
        # terms reach ~5e21 at x = 50, so the first slack is only meaningful
        # relative to the term scale when eps sits within ulps of 1
        scale = max(1.0, eps * eps * 4.0 * np.sinh(0.5 * x) ** 2)
        assert s1[0, 0] >= -1e-12 * scale
        assert s2[0, 0] >= -1e-12


class TestNormTail:
    def test_radius_beyond_diameter(self, p5_csrw, ledger):
        g = p5_csrw
        m = hb.shortest_path_metric(g)
        prof = DecayProfile.power(1.0)
        rep = hb.norm_tail_bound_check(g, m, "2", R=10.0, t=2.0, profile=prof,
                                       ledger=ledger)
        assert rep.tail_mass == 0.0 and rep.tail_pass and rep.weighted_pass

    def test_two_state_first_branch_grid(self, two_state, ledger):
        g = two_state
        m = hb.shortest_path_metric(g)
        R = m.d("a", "b")
        prof = DecayProfile.power(0.5)
        for t in np.geomspace(R, 50 * R, 12):
            rep = hb.norm_tail_bound_check(g, m, "a", R=R, t=float(t),
                                           profile=prof, ledger=ledger)
            # oracle: tail = u(t,b)^2 nu_b with u = sqrt(nu_a)/nu_b P(a->b)
            p_ab = hb.heat_kernel(g, "a", float(t), tol=1e-12).prob("b")
            assert rep.tail_mass == pytest.approx(p_ab ** 2, rel=1e-8)
            assert rep.tail_mass <= math.exp(-R * R / (8 * t)) + 1e-12
            assert rep.tail_pass

    def test_weighted_norm_bound_p5(self, p5_csrw, ledger):
        g = p5_csrw
        m = hb.shortest_path_metric(g)
        grid = np.geomspace(1e-3, 30.0, 150)
        prof = DecayProfile.from_on_diagonal(
            hb.on_diagonal_curve(g, "2", grid, tol=1e-12))
        A = hb.minimal_regularity_constant(prof, 2.0, prof.domain)
        for t in (0.5, 2.0, 8.0):
            rep = hb.norm_tail_bound_check(g, m, "2", R=1.0, t=t, profile=prof,
                                           ledger=ledger, A=A, gamma=2.0,
                                           delta=1.0)
            assert rep.weighted_pass
            assert rep.weighted_norm >= rep.tail_mass  # weight >= indicator
            assert not rep.regular_domain  # needs t >= R >= 1e3

    def test_killed_domain_variant(self, p5_csrw, ledger):
        g = p5_csrw
        m = hb.shortest_path_metric(g)
        prof = DecayProfile.power(1.0)
        rep = hb.norm_tail_bound_check(g, m, "2", R=1.5, t=1.0, profile=prof,
                                       ledger=ledger, domain=["1", "2", "3"])
        assert rep.tail_pass


class TestSweeps:
    def test_cor27_random_suite_all_pass(self, ledger):
        for g in random_suite(5, 12, seed0=620, csrw=True):
            m = hb.shortest_path_metric(g)
            rows = bound_sweep(g, m, "cor2.7", [0.4, 1.0, 3.0], ledger=ledger)
            assert rows and all(r.passed for r in rows)
            summary = summarize_rows(rows)
            assert summary["failures_in_domain"] == 0

    def test_prop26_rows_pass(self, p5_csrw, ledger):
        g = p5_csrw
        m = hb.shortest_path_metric(g)
        rows = bound_sweep(g, m, "prop2.6", [0.5, 1.0, 5.0], ledger=ledger)
        assert rows and all(r.passed for r in rows)
        assert {r.formula for r in rows} == {"prop2.6"}

    def test_thm11_p3_enormous_slack(self, p3_csrw, ledger):
        g = p3_csrw
        m = hb.shortest_path_metric(g)
        times = np.geomspace(1.0, 20.0, 8)
        rows = bound_sweep(g, m, "thm1.1", times, ledger=ledger, gamma=2.0,
                           delta=1.0)
        in_rows = [r for r in rows if r.in_domain]
        assert in_rows and all(r.passed for r in in_rows)
        assert max(r.log_ratio for r in in_rows) < -100.0

    def test_thm13_window_flags(self, p3_csrw, ledger):
        g = p3_csrw
        m = hb.shortest_path_metric(g)
        times = [1.0, 10.0]
        setup = fit_sweep_setup(g, [("0", "2")], times, gamma=2.0, delta=1.0,
                                T1=1.0, T2=math.inf)
        rows = bound_sweep(g, m, "thm1.3", times, pairs=[("0", "2")],
                           ledger=ledger, setup=setup)
        # window start 8 alpha^-2 T1^2 = 32768: both grid times out of window
        assert all(not r.in_domain for r in rows)

    def test_thm13_in_window_passes(self, p3_csrw, ledger):
        g = p3_csrw
        m = hb.shortest_path_metric(g)
        times = [4.0, 7.0, 10.0]
        # T1 = 0.01 puts the window start at 8 * 4096 * 1e-4 = 3.28
        setup = fit_sweep_setup(g, [("0", "2")], times, gamma=2.0, delta=1.0,
                                T1=0.01, T2=math.inf)
        rows = bound_sweep(g, m, "thm1.3", times, pairs=[("0", "2")],
                           ledger=ledger, setup=setup)
        assert all(r.in_domain and r.passed for r in rows)

    def test_thm51_example_scenario(self, k4_csrw, ledger):
        # polynomial-type on-diagonal profiles under a stretched envelope
        g = k4_csrw
        m = hb.shortest_path_metric(g)
        times = np.geomspace(20.0, 45.0, 6)
        setup = fit_sweep_setup(g, all_pairs(g), times, gamma=2.0, delta=1.0,
                                epsilon=0.5, T1=0.1, T2=50.0)
        rows = bound_sweep(g, m, "thm5.1", times, ledger=ledger, setup=setup)
        in_rows = [r for r in rows if r.in_domain]
        assert in_rows and all(r.passed for r in in_rows)
        # window start 2^9 * 0.1^1.5 = 16.19 < 20, so the grid is in-window
        assert len(in_rows) == len(rows)

    def test_thm52_windows(self, k4_csrw, ledger):
        g = k4_csrw
        m = hb.shortest_path_metric(g)
        times = [2.0, 5.0]
        setup = fit_sweep_setup(g, [("0", "1")], times, gamma=2.0, delta=1.0,
                                epsilon=2.0, T1=0.9, T2=10.0)
        rows = bound_sweep(g, m, "thm5.2", times, pairs=[("0", "1")],
                           ledger=ledger, setup=setup)
        assert all(r.in_domain and r.passed for r in rows)  # log(T1 v 1) = 0
        setup2 = fit_sweep_setup(g, [("0", "1")], times, gamma=2.0, delta=1.0,
                                 epsilon=2.0, T1=2.0, T2=10.0)
        rows2 = bound_sweep(g, m, "thm5.2", times, pairs=[("0", "1")],
                            ledger=ledger, setup=setup2)
        assert all(not r.in_domain for r in rows2)  # start = 2839 >> grid

    def test_unknown_formula(self, p3_csrw):
        m = hb.shortest_path_metric(p3_csrw)
        with pytest.raises(ValueError, match="unknown formula"):
            bound_sweep(p3_csrw, m, "thm9.9", [1.0])

    def test_scale_invariance_numeric(self, ledger):
        g = hb.load_graph("v a 1\nv b 2\nv c 4\ne a b 2\ne b c 1\ne a c 3\n")
        times = [0.5, 2.0]
        rows = {}
        for c in (1.0, 0.1, 10.0):
            gc = g.rescaled(c)
            mc = hb.shortest_path_metric(gc)
            rows[c] = bound_sweep(gc, mc, "thm1.1", times, ledger=ledger,
                                  gamma=2.0, delta=None)
        for c in (0.1, 10.0):
            for r1, r2 in zip(rows[1.0], rows[c]):
                assert r1.p_computed == pytest.approx(r2.p_computed, rel=1e-9)
                assert r1.log_bound == pytest.approx(r2.log_bound, rel=1e-9)
                assert r1.d_nu == pytest.approx(r2.d_nu, rel=1e-12)


class TestEmpiricalFit:
    def test_two_state_fit_finite_and_small(self, two_state):
        g = two_state
        m = hb.shortest_path_metric(g)
        times = np.geomspace(1.0, 10.0, 10)
        fitted = hb.fit_empirical_constant(g, m, "a", "b", times,
                                           formula="thm1.1", gamma=2.0,
                                           delta=1.0)
        assert 0.0 < fitted < 1e3
        assert math.log(fitted) < paper_constants().log_C1 - 50

    def test_monotone_under_superset_refinement(self, two_state):
        g = two_state
        m = hb.shortest_path_metric(g)
        coarse = list(np.geomspace(1.0, 10.0, 6))
        mids = [math.sqrt(a * b) for a, b in zip(coarse, coarse[1:])]
        fine = sorted(coarse + mids)
        setup = fit_sweep_setup(g, [("a", "b")], fine, gamma=2.0, delta=1.0)
        f_coarse = hb.fit_empirical_constant(g, m, "a", "b", coarse,
                                             setup=setup)
        f_fine = hb.fit_empirical_constant(g, m, "a", "b", fine, setup=setup)
        assert f_fine >= f_coarse - 1e-15

    def test_small_t_cells_contribute_tiny(self, two_state):
        g = two_state
        m = hb.shortest_path_metric(g)
        setup = fit_sweep_setup(g, [("a", "b")], [1e-4, 1.0], gamma=2.0,
                                delta=1.0)
        tiny = hb.fit_empirical_constant(g, m, "a", "b", [1e-4], setup=setup)
        ref = hb.fit_empirical_constant(g, m, "a", "b", [1.0], setup=setup)
        assert tiny < ref

    def test_theorem_flag_is_what_empirical_sweep_accepts(self, two_state):
        g = two_state
        m = hb.shortest_path_metric(g)
        accepted = set()
        for formula in FORMULAS:
            try:
                empirical_sweep(g, m, formula, [1.0, 2.0])
            except ValueError as exc:
                assert "only apply to the theorem formulas" in str(exc)
            else:
                accepted.add(formula)
        assert accepted == {f for f, spec in FORMULAS.items() if spec.theorem}
        assert accepted == {"thm1.1", "thm1.3", "thm5.1", "thm5.2"}

    @pytest.mark.parametrize("formula", ["cor2.7", "prop2.6"])
    def test_explicit_formulas_rejected(self, formula):
        g = hb.path_graph(4)
        m = hb.shortest_path_metric(g)
        match = "only apply to the theorem formulas"
        with pytest.raises(ValueError, match=match):
            hb.fit_empirical_constant(g, m, "0", "3", [1.0, 4.0],
                                      formula=formula)
        with pytest.raises(ValueError, match=match):
            empirical_sweep(g, m, formula, [1.0, 4.0])

    def test_empirical_ledger_bounds_hold_on_fit_grid(self, two_state):
        g = two_state
        m = hb.shortest_path_metric(g)
        times = list(np.geomspace(1.0, 10.0, 8))
        setup = fit_sweep_setup(g, [("a", "b")], times, gamma=2.0, delta=1.0)
        fitted = hb.fit_empirical_constant(g, m, "a", "b", times, setup=setup)
        emp = paper_constants().with_empirical_C1(fitted * (1 + 1e-12))
        rows = bound_sweep(g, m, "thm1.1", times, pairs=[("a", "b")],
                           ledger=emp, setup=setup)
        assert all(r.passed for r in rows)
        assert any(r.log_ratio > -1e-6 for r in rows)  # fit is tight somewhere


# the in-domain window [start, end) of each theorem display
WINDOWS = {
    "thm1.1": lambda su, d: (d, math.inf),
    "thm1.3": lambda su, d: (interval_window_start(su.T1, su.alpha, d),
                             su.T2),
    "thm5.1": lambda su, d: (subexp_window_start(su.delta, su.epsilon, su.T1,
                                                 d), su.T2),
    "thm5.2": lambda su, d: (poly_window_start(su.epsilon, su.T1, d), su.T2),
}


def reference_rows(g, m, formula, times, pairs, setup, ledger):
    """The rows of bound_sweep rebuilt cell by cell, in grid order, from a
    kernel matrix per time and the scalar bound formulas."""
    matrices = {t: hb.kernel_matrix(g, t) for t in times}
    rows = []
    for x1, x2 in pairs:
        i1, i2 = g.index(x1), g.index(x2)
        d = float(m.dist[i1, i2])
        nu1, nu2 = float(g.nu[i1]), float(g.nu[i2])
        evo = KernelEvolution(g, x1)
        for t in times:
            p = float(matrices[t][i1, i2])
            if formula == "prop2.6":
                cells = [(formula, evo.tail_mass(t, ~m.ball(x1, d)),
                          log_tail_bound_short_time(d, t), True)]
            elif formula == "cor2.7" and d == 0.0:
                cells = [("cor2.7-long", p,
                          0.5 * (math.log(nu2) - math.log(nu1)), False)]
            elif formula == "cor2.7":
                sl = hb.bound_short_long(nu1, nu2, d, t)
                cells = [(f"cor2.7-{branch}", p, log_b, True)
                         for branch, log_b in (("long", sl.log_long),
                                               ("short", sl.log_short))
                         if log_b is not None]
            else:
                growth = formula in ("thm5.1", "thm5.2")
                s = t / (2.0 * setup.gamma) if growth else setup.alpha * t
                prefactor = 0.0 if growth else setup.beta * math.log(setup.A)
                log_b = _log_gaussian_bound(
                    math.log(setup.profiles[x1].value(s)),
                    math.log(setup.profiles[x2].value(s)), nu1, nu2, d, t,
                    ledger.log_C1, prefactor, ledger.theta)
                start, end = WINDOWS[formula](setup, d)
                cells = [(formula, p, log_b, start <= t < end)]
            for label, lhs, log_b, in_domain in cells:
                ratio = -math.inf if lhs <= 0.0 else math.log(lhs) - log_b
                rows.append(BoundRow(
                    formula=label, x1=x1, x2=x2, t=t, d_nu=d, p_computed=lhs,
                    log_bound=log_b, log_ratio=ratio,
                    provenance=ledger.provenance, passed=ratio <= LOG_TOL,
                    in_domain=in_domain))
    return rows


def reference_summary(rows):
    """summarize_rows of a list of BoundRow, a row at a time."""
    inside = [r for r in rows if r.in_domain]
    return {"rows": len(rows), "in_domain": len(inside),
            "out_of_domain": len(rows) - len(inside),
            "failures_in_domain": sum(not r.passed for r in inside),
            "worst_log_ratio": max((r.log_ratio for r in inside),
                                   default=-math.inf),
            "provenance": rows[0].provenance if rows else None}


def assert_per_row_columns(table, rows):
    """Each per-row column of a BoundTable holds, bit for bit, the field of
    BoundRow it stands for in the list rows."""
    strings = {"label": (table.labels, "formula"), "i1": (table.ids, "x1"),
               "i2": (table.ids, "x2")}
    for name, (names, field) in strings.items():
        column = getattr(table, name)
        assert column.dtype.kind in "iu"
        assert [names[k] for k in column.tolist()] == [getattr(r, field)
                                                       for r in rows]
    for f in fields(BoundRow):
        if f.name in ("formula", "x1", "x2", "provenance"):
            continue
        column = getattr(table, f.name)
        want = np.array([getattr(r, f.name) for r in rows],
                        dtype=column.dtype)
        assert column.shape == want.shape
        assert column.tobytes() == want.tobytes(), f.name


class TestReference:
    """bound_sweep computes each formula on whole columns; its rows, its
    per-row columns and its summary must equal, bit for bit, the
    cell-by-cell reference.  A prop2.6 table holds a cell per x1, d and t,
    the others one per row."""

    @pytest.mark.parametrize("formula", list(FORMULAS))
    def test_rows_equal_cell_by_cell(self, formula, ledger):
        for g in ENGINE_SUITE:
            m = hb.shortest_path_metric(g)
            ids = g.vertex_ids
            # every pair, after one whose x1 is out of index order; both
            # orders of a pair, a pair at distance 0, and the first pair
            # again
            pairs = ([(ids[-1], ids[0])] + all_pairs(g)
                     + [(ids[1], ids[0]), (ids[0], ids[0]), (ids[-1], ids[0])])
            d = m.d(ids[0], ids[1])
            # unsorted, with repeats, and a time equal to a pair's distance,
            # where cor2.7 has both branches
            times = [2.0, d, 0.3, 2.0, 0.05, d]
            setup = None
            if FORMULAS[formula].theorem:
                setup = fit_sweep_setup(g, pairs, times, epsilon=0.5,
                                        T1=0.01, T2=1.5)
            rows = bound_sweep(g, m, formula, times, pairs=pairs,
                               ledger=ledger, setup=setup)
            ref = reference_rows(g, m, formula, times, pairs, setup, ledger)
            assert list(rows) == ref
            assert_per_row_columns(rows, ref)
            assert summarize_rows(rows) == reference_summary(ref)
            cells = len(rows.cells.t)
            if formula == "prop2.6":
                balls = {(r.x1, r.d_nu) for r in ref}
                assert cells == len(balls) * len(times) < len(ref)
            else:
                assert cells == len(ref)
            if formula == "cor2.7":
                both = [r.formula for r in rows
                        if (r.x1, r.x2, r.t) == (ids[0], ids[1], d)]
                assert both == ["cor2.7-long", "cor2.7-short"] * 2
            if setup is not None:
                # the rows at C1 = 1, moved by log C1 of the least constant
                unit = reference_rows(g, m, formula, times, pairs, setup,
                                      replace(ledger, log_C1=0.0))
                fitted = max(math.exp(r.log_ratio) for r in unit)
                emp_ledger, emp_rows = empirical_sweep(
                    g, m, formula, times, pairs=pairs, setup=setup)
                assert emp_ledger.log_C1 == math.log(fitted)
                moved = []
                for r in unit:
                    log_b = r.log_bound + emp_ledger.log_C1
                    ratio = (-math.inf if r.p_computed <= 0.0
                             else math.log(r.p_computed) - log_b)
                    moved.append(replace(
                        r, log_bound=log_b, log_ratio=ratio,
                        provenance="empirical-fit", passed=ratio <= LOG_TOL))
                assert list(emp_rows) == moved
                assert_per_row_columns(emp_rows, moved)
                assert summarize_rows(emp_rows) == reference_summary(moved)


# a graph whose ids need CSV quoting: a comma, a quote, a percent sign, a
# digit and a bare carriage return
QUOTED_IDS = hb.WeightedGraph(
    ["a,b", 'q"x', "50%", "7", "c\rd"], [2.0] * 5,
    [("a,b", 'q"x'), ('q"x', "50%"), ("50%", "7"), ("7", "a,b"),
     ("7", "c\rd")], [1.0] * 5)


def object_list_rows(rows):
    """Each row of a BoundTable as a tuple of BoundRow's fields, from the
    per-row object lists the table held before its string columns became
    codes: formula, x1 and x2 gathered from object arrays of the labels and
    ids, one list each."""
    labels = np.array(rows.labels, dtype=object)
    ids = np.array(rows.ids, dtype=object)
    return list(zip(
        labels[rows.label].tolist(), ids[rows.i1].tolist(),
        ids[rows.i2].tolist(), rows.t.tolist(), rows.d_nu.tolist(),
        rows.p_computed.tolist(), rows.log_bound.tolist(),
        rows.log_ratio.tolist(), [rows.provenance] * len(rows.label),
        rows.passed.tolist(), rows.in_domain.tolist()))


class TestCodedStringColumns:
    """A BoundTable holds its formula, x1 and x2 columns as codes; its rows
    must be those of the object lists, with str fields, and the rows of the
    cell-by-cell reference on ids that need quoting."""

    GRAPHS = [hb.random_connected_graph(7, seed=41, csrw=True), QUOTED_IDS]

    @pytest.mark.parametrize("formula", list(FORMULAS))
    def test_rows_equal_object_lists(self, formula, ledger):
        for g in self.GRAPHS:
            m = hb.shortest_path_metric(g)
            pairs = all_pairs(g) + [(g.vertex_ids[-1], g.vertex_ids[0])]
            times = [0.5, 2.0, 6.0]
            setup = None
            if FORMULAS[formula].theorem:
                setup = fit_sweep_setup(g, pairs, times, epsilon=0.5,
                                        T1=0.01, T2=1.5)
            rows = bound_sweep(g, m, formula, times, pairs=pairs,
                               ledger=ledger, setup=setup)
            tables = [rows]
            if setup is not None:
                tables.append(empirical_sweep(g, m, formula, times,
                                              pairs=pairs, setup=setup)[1])
            for table in tables:
                ref = object_list_rows(table)
                assert len(table) == len(ref) > 0
                assert [astuple(r) for r in table] == ref
                assert {type(v) for r in table
                        for v in (r.formula, r.x1, r.x2)} == {str}
            if g is QUOTED_IDS:
                assert list(rows) == reference_rows(g, m, formula, times,
                                                    pairs, setup, ledger)


def reference_setup(g, pairs, times, gamma=2.0, delta=None, epsilon=None,
                    T1=0.0, T2=math.inf):
    """fit_sweep_setup as it was before it fitted every vertex at once: an
    on-diagonal curve per vertex, then one from_on_diagonal and one
    minimal_regularity_constant call per vertex."""
    times = np.asarray(times, dtype=float)
    verts = sorted({v for pair in pairs for v in pair})
    if delta is None:
        delta = max([1.0] + [g.rates[g.index(v)] for v in verts])
    alpha = alpha_constant(gamma, delta)
    grid = np.geomspace(alpha * times.min() * 0.5, times.max() * 1.05,
                        PROFILE_POINTS)
    curves = hb.on_diagonal_curves(g, verts, grid)
    profiles = {v: DecayProfile.from_on_diagonal(curves[v]) for v in verts}
    A = max([1.0] + [hb.minimal_regularity_constant(prof, gamma, prof.domain)
                     for prof in profiles.values()])
    return SweepSetup(gamma=gamma, delta=delta, epsilon=epsilon, A=A,
                      beta=beta_constant(gamma), alpha=alpha, T1=T1, T2=T2,
                      profiles=profiles)


def setup_bytes(setup):
    """A SweepSetup's fields, each profile as the bytes of its arrays."""
    out = {f.name: getattr(setup, f.name) for f in fields(setup)}
    out["profiles"] = {
        v: (prof.kind, prof.params, prof.domain,
            *(a.tobytes() for a in (prof.times, prof.values, prof._log_t,
                                    prof._log_f)))
        for v, prof in setup.profiles.items()}
    return out


def fit_outcome(fit, *args, **kwargs):
    try:
        return setup_bytes(fit(*args, **kwargs))
    except ValueError as exc:
        return type(exc), str(exc)


class TestStackedFit:
    """fit_sweep_setup fits every paired vertex from one (vertices, times)
    array; A, every profile array and every field equal the per-vertex
    fit's bit for bit, and its errors are the per-vertex fit's."""

    GRAPHS = (random_suite(3, 9, seed0=900, csrw=True)
              + random_suite(3, 9, seed0=910, nu_range=(1e-3, 10),
                             mu_range=(0.1, 10)))

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("delta", [None, 3.0])
    def test_equals_per_vertex_fit(self, gamma, delta):
        for g in self.GRAPHS:
            ids = g.vertex_ids
            for pairs in (all_pairs(g), [(ids[-1], ids[-1])]):
                times = [0.2, 1.0, 7.5]
                kwargs = dict(gamma=gamma, delta=delta, epsilon=0.5, T1=0.01,
                              T2=5.0)
                got = setup_bytes(fit_sweep_setup(g, pairs, times, **kwargs))
                ref = setup_bytes(reference_setup(g, pairs, times, **kwargs))
                assert got == ref
                assert sorted(got["profiles"]) == sorted(
                    {v for pair in pairs for v in pair})

    def test_no_pairs(self):
        g = hb.load_graph("v a 1\n")
        setup = fit_sweep_setup(g, all_pairs(g), [1.0, 2.0])
        assert setup.A == 1.0 and setup.profiles == {}
        assert setup_bytes(setup) == setup_bytes(
            reference_setup(g, [], [1.0, 2.0]))

    @staticmethod
    def outcomes(monkeypatch, g, change):
        """The outcome of fit_sweep_setup and of the reference fit, then of
        a thm1.1 bound_sweep given no setup, with change(diags) applied to
        the engine's array of diagonals: alone, or as the first readout of
        the sweep's one call."""
        real = hb.kernel.kernel_rows

        def doctored(*args, **kwargs):
            out = real(*args, **kwargs)
            (diags, err), *rows = out if kwargs.get("more") else [out]
            diags = change(diags.copy())
            return [(diags, err), *rows] if rows else (diags, err)

        monkeypatch.setattr(hb.kernel, "kernel_rows", doctored)
        monkeypatch.setattr(hb.bounds, "kernel_rows", doctored)
        pairs, times = all_pairs(g), [0.5, 2.0]
        m = hb.shortest_path_metric(g)
        try:
            swept = setup_bytes(bound_sweep(g, m, "thm1.1", times).setup)
        except ValueError as exc:
            swept = type(exc), str(exc)
        return (fit_outcome(fit_sweep_setup, g, pairs, times),
                fit_outcome(reference_setup, g, pairs, times), swept)

    @pytest.mark.parametrize("rows", [
        # a zero, a negative and a nan diagonal value, each in the second
        # row; then a nan row ahead of a zero row, and the reverse
        {1: 0.0}, {1: -1e-300}, {1: math.nan}, {1: math.nan, 2: 0.0},
        {1: 0.0, 2: math.nan}])
    def test_non_positive_diagonal_value(self, monkeypatch, rows):
        # the engine's diagonal array, with one value of the given rows set
        def change(diags):
            for k, value in rows.items():
                diags[k, 50] = value
            return diags

        got, ref, swept = self.outcomes(monkeypatch, self.GRAPHS[0], change)
        assert got == ref == swept
        assert got[0] is ValueError

    def test_constant_past_float_range(self, monkeypatch):
        # the diagonal of the second and third vertex falls by e^1382 at a
        # grid time, the third's earlier: the error names the second
        # vertex's witness pair, as the per-vertex fit does
        def change(diags):
            for k, at in ((1, 120), (2, 100)):
                diags[k] = np.where(np.arange(diags.shape[1]) < at, 1e300,
                                    1e-300)
            return diags

        got, ref, swept = self.outcomes(monkeypatch, self.GRAPHS[0], change)
        assert got == ref == swept
        assert got[0] is ValueError and "past float range" in got[1]


def sweep_columns(table):
    """The bytes of each per-row column of a BoundTable."""
    return {name: getattr(table, name).tobytes() for name in (
        "label", "i1", "i2", "t", "d_nu", "p_computed", "log_bound",
        "in_domain", "log_ratio", "passed")}


class TestSharedFit:
    """A theorem sweep given no setup makes one engine call, whose diagonals
    on the profile grid fit the setup and whose full rows are the sweep's:
    the setup (profiles, A and every field) is fit_sweep_setup's and the
    rows are those of a sweep given it, bit for bit, and so is the
    empirical sweep."""

    GRAPHS = (random_suite(2, 9, seed0=940, csrw=True)
              + random_suite(2, 9, seed0=950, nu_range=(1e-3, 10),
                             mu_range=(0.1, 10))
              + [hb.load_graph("v a 2\n")])

    @pytest.mark.parametrize("formula", [f for f in FORMULAS
                                         if FORMULAS[f].theorem])
    def test_one_call_equals_fit_then_sweep(self, formula, monkeypatch):
        calls = []
        real = hb.kernel._chebyshev

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hb.kernel, "_chebyshev", counting)
        kwargs = dict(gamma=3.0, epsilon=0.5, T1=0.01, T2=1.5)
        times = [2.0, 0.3, 2.0, 0.05, 5.0]
        for g in self.GRAPHS:
            m = hb.shortest_path_metric(g)
            ids = g.vertex_ids
            # the default spec; no pair; a subset out of index order, with
            # a pair at distance 0 and a vertex only ever an x2
            for pairs in (None, [], [(ids[-1], ids[0]), (ids[0], ids[0])]
                          + all_pairs(g)[1::3]):
                calls.clear()
                rows = bound_sweep(g, m, formula, times, pairs=pairs,
                                   **kwargs)
                assert len(calls) == 1
                setup = fit_sweep_setup(g, all_pairs(g, pairs), times,
                                        **kwargs)
                assert setup_bytes(rows.setup) == setup_bytes(setup)
                assert list(rows.setup.profiles) == list(setup.profiles)
                ref = bound_sweep(g, m, formula, times, pairs=pairs,
                                  setup=setup)
                assert len(rows) == len(ref)
                assert sweep_columns(rows) == sweep_columns(ref)
                assert rows.cells.t.tobytes() == ref.cells.t.tobytes()
                if not len(rows):
                    continue
                calls.clear()
                ledger, emp = empirical_sweep(g, m, formula, times,
                                              pairs=pairs, **kwargs)
                assert len(calls) == 1
                ref_ledger, emp_ref = empirical_sweep(
                    g, m, formula, times, pairs=pairs, setup=setup)
                assert ledger == ref_ledger
                assert setup_bytes(emp.setup) == setup_bytes(setup)
                assert sweep_columns(emp) == sweep_columns(emp_ref)


class TestSweepMemory:
    def test_lattice_cor27_peak_per_row(self):
        # a 6 x 6 CSRW lattice's cor2.7 table, a cell per row (15,810): the
        # (group, time, label) grids and their index arrays are freed before
        # the rows' codes are built, and the kernels before the cells'
        # log_ratio, so the sweep peaks at about 120 bytes a row (195 while
        # they all stayed alive)
        side = 6
        ids = [f"{i}_{j}" for i in range(side) for j in range(side)]
        edges = ([(f"{i}_{j}", f"{i + 1}_{j}") for i in range(side - 1)
                  for j in range(side)]
                 + [(f"{i}_{j}", f"{i}_{j + 1}") for i in range(side)
                    for j in range(side - 1)])
        g = hb.csrw_normalized(hb.WeightedGraph(ids, [1.0] * len(ids), edges,
                                                [1.0] * len(edges)))
        m = hb.shortest_path_metric(g)
        times = np.geomspace(1.0, 20.0, 25)
        bound_sweep(g, m, "cor2.7", times)
        tracemalloc.start()
        try:
            rows = bound_sweep(g, m, "cor2.7", times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 15_810
        assert peak <= 150 * len(rows)
