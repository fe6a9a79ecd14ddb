import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatbound as hb
from heatbound.bounds import (
    LOG_TOL,
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
from heatbound.regularity import DecayProfile

from conftest import random_suite


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

    def test_provenance_switch(self, ledger):
        emp = ledger.with_empirical_C1(3.5)
        assert emp.provenance == "empirical-fit"
        assert emp.log_C1 == pytest.approx(math.log(3.5))
        assert ledger.provenance == "paper-explicit"
        with pytest.raises(ValueError):
            ledger.with_empirical_C1(0.0)


class TestBoundFormulas:
    def test_zero_distance_drops_gaussian_factor(self, ledger):
        lb, ok = hb.bound_main(2.0, 8.0, 1.0, 4.0, d=0.0, t=1.0, A=1.5,
                               beta=2, log_C1=ledger.log_C1,
                               theta=ledger.theta)
        expected = (ledger.log_C1 + 2 * math.log(1.5)
                    + 0.5 * math.log(4.0)
                    - 0.5 * (math.log(2.0) + math.log(8.0)))
        assert ok and lb == pytest.approx(expected, rel=1e-14)

    def test_doubling_distance_adds_three_theta(self, ledger):
        args = dict(f1_at_alpha_t=1.0, f2_at_alpha_t=1.0, nu1=1.0, nu2=1.0,
                    A=1.0, beta=1, log_C1=ledger.log_C1, theta=ledger.theta)
        t = 5.0
        lb1, _ = hb.bound_main(d=1.0, t=t, **args)
        lb2, _ = hb.bound_main(d=2.0, t=t, **args)
        assert lb2 - lb1 == pytest.approx(-3.0 * ledger.theta / t, rel=1e-9)

    def test_domain_flag(self, ledger):
        _, ok = hb.bound_main(1.0, 1.0, 1.0, 1.0, d=4.0, t=1.0, A=1.0, beta=1,
                              log_C1=ledger.log_C1, theta=ledger.theta)
        assert not ok

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

    def test_parameter_validation(self, ledger):
        with pytest.raises(ValueError):
            hb.bound_subexp(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, ledger.log_C1,
                            ledger.theta, delta=1.0, epsilon=1.0, T1=0.0)
        with pytest.raises(ValueError):
            hb.bound_poly(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, ledger.log_C1,
                          ledger.theta, epsilon=-0.5, T1=0.0)
        with pytest.raises(ValueError):
            hb.bound_main(0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1,
                          ledger.log_C1, ledger.theta)


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
