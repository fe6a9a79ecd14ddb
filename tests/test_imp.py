import math

import numpy as np
import pytest

import heatbound as hb
from heatbound.imp import (
    GClassFunction,
    TestFunction,
    check_g_class,
    check_condition_2_2,
    J_TOL,
)
from heatbound.kernel import KernelEvolution

from conftest import random_suite


def metric_of(g):
    return hb.shortest_path_metric(g)


def constant_in_time_increasing():
    """Spatially constant but increasing in t: outside the admissible class."""

    def build(g):
        rho = hb.VertexFunction.constant(g, 0.0)
        return TestFunction(GClassFunction("custom", lambda t, r: t + 0.0 * r,
                                           lambda t, r: 1.0 + 0.0 * (t + r)),
                            rho)
    return build


# the per-time loops that is_in_F, check_condition_2_2 and check_J_monotone
# ran before they took the whole grid at once, kept as their reference:
# each gives (worst_slack, worst_time, worst_edge, n_checks) or the J array

def loop_is_in_F(h, g, metric, time_grid):
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
    return worst + (n_checks,)


def loop_condition_2_2(h, g, time_grid):
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
    return worst[0], worst[1], (worst[2],), len(time_grid) * g.n


def loop_J(u, h, times):
    u.fill(times)
    return np.array([float(np.dot(u.u(t) * u.u(t) * h.h(t), u.graph.nu))
                     for t in times])


def report_tuple(rep):
    return rep.worst_slack, rep.worst_time, rep.worst_edge, rep.n_checks


class TestGridEqualsLoops:
    @staticmethod
    def families(m, o, s):
        span = max(m.diameter, 1.0)
        rho = hb.make_rho(m, o, span)
        refl = hb.make_rho(m, o, span, variant="reflected")
        return [hb.make_lemma23(0.5, rho), hb.make_lemma23(5.0, rho),
                hb.make_drift(0.25, rho),
                hb.make_gaussian(5.0, span, 24.0 * span / 5.0, s, refl)]

    def test_membership_on_random_graphs(self):
        grid = np.linspace(0.0, 3.0, 13)
        for g in random_suite(6, 14, seed0=500, nu_range=(0.1, 10),
                              mu_range=(0.1, 10)):
            adapted = metric_of(g)
            # edges a third as long: a metric the families fail against
            short = hb.shortest_path_metric(
                g, hb.default_edge_lengths(g) / 3.0)
            for h in self.families(adapted, g.vertex_ids[-1], 3.0):
                rep = check_condition_2_2(h, g, grid)
                assert report_tuple(rep) == loop_condition_2_2(h, g, grid)
                for m in (adapted, short):
                    rep = hb.is_in_F(h, g, m, grid)
                    assert report_tuple(rep) == loop_is_in_F(h, g, m, grid)
                    assert rep.passed == (rep.worst_slack >= -1e-9)

    def test_ties_across_times_go_to_the_first(self, k4_csrw):
        # the drift family's slack does not depend on t: every time ties
        m = metric_of(k4_csrw)
        h = hb.make_drift(0.25, hb.make_rho(m, "0", 1.0))
        grid = [2.0, 0.5, 1.0, 0.5]
        for rep, ref in ((hb.is_in_F(h, k4_csrw, m, grid),
                          loop_is_in_F(h, k4_csrw, m, grid)),
                         (check_condition_2_2(h, k4_csrw, grid),
                          loop_condition_2_2(h, k4_csrw, grid))):
            assert report_tuple(rep) == ref
            assert rep.worst_time == 2.0

    def test_J_on_random_graphs(self):
        grid = np.linspace(0.0, 2.0, 21)
        for g in random_suite(4, 12, seed0=540, csrw=True):
            m = metric_of(g)
            o = g.vertex_ids[0]
            for h in self.families(m, o, 2.0):
                for u in (KernelEvolution(g, o, tol=1e-12),
                          KernelEvolution(g, o, domain=g.vertex_ids[:3],
                                          tol=1e-12)):
                    rep = hb.check_J_monotone(u, h, grid)
                    assert np.array_equal(rep.J, loop_J(u, h, grid))


class TestRho:
    def test_capped_r_zero(self, p5_csrw):
        m = metric_of(p5_csrw)
        rho = hb.make_rho(m, "0", 0.0)
        assert np.all(rho.values == 0.0)

    def test_capped_two_vertex(self):
        g = hb.load_graph("v a 1\nv b 1\ne a b 4\n")
        m = metric_of(g)  # edge length 1/2
        rho = hb.make_rho(m, "a", 1.0)
        assert rho.as_dict() == {"a": 0.0, "b": 0.5}

    def test_reflected_p5(self, p5_csrw):
        m = metric_of(p5_csrw)  # unit lengths, hop distance
        rho = hb.make_rho(m, "0", 2.0, variant="reflected")
        assert list(rho.values) == [2.0, 1.0, 1.0, 1.0, 1.0]

    def test_lipschitz_enforced(self, p5_csrw):
        with pytest.raises(ValueError, match="unknown rho variant"):
            hb.make_rho(metric_of(p5_csrw), "0", 1.0, variant="nope")


class TestFamilies:
    def test_lemma23_at_origin_time_zero(self, p3_csrw):
        m = metric_of(p3_csrw)
        rho = hb.make_rho(m, "0", 5.0)
        h = hb.make_lemma23(1.0, rho)
        assert h.h(0.0)[p3_csrw.index("0")] == 1.0  # rho = 0 kills the log term

    def test_radial_profile_at_origin(self):
        g2 = GClassFunction.from_lemma23(tau=0.7)
        assert float(g2.g(0.0, np.array(0.0))) == 1.0

    def test_drift_a_zero_is_one(self, p3_csrw):
        m = metric_of(p3_csrw)
        h = hb.make_drift(0.0, hb.make_rho(m, "0", 2.0))
        assert np.all(h.h(3.0) == 1.0)

    def test_drift_closed_form_two_vertex(self):
        g = hb.load_graph("v a 1\nv b 1\ne a b 4\n")
        m = metric_of(g)
        rho = hb.make_rho(m, "a", 1.0)  # (0, 1/2)
        a = 0.25
        h = hb.make_drift(a, rho)
        d = m.d("a", "b")
        b = a * (rho["b"] - rho["a"])
        lhs = (math.exp(b) + math.exp(-b) - 2.0) / 4.0
        rhs = d * d * a * a / 2.0
        assert lhs <= rhs
        rep = hb.is_in_F(h, g, m, [0.0, 1.0, 5.0])
        assert rep.passed

    def test_parameter_domains(self, p3_csrw):
        m = metric_of(p3_csrw)
        rho = hb.make_rho(m, "0", 2.0)
        refl = hb.make_rho(m, "0", 2.0, variant="reflected")
        with pytest.raises(ValueError):
            hb.make_drift(0.3, rho)
        with pytest.raises(ValueError):
            hb.make_lemma23(0.0, rho)
        with pytest.raises(ValueError):
            hb.make_gaussian(4.0, 2.0, 24.0 * 2.0 / 4.0, 1.0, refl)  # D < 5
        with pytest.raises(ValueError, match="Delta"):
            hb.make_gaussian(5.0, 2.0, 9.0, 1.0, refl)  # Delta < 24R/D = 9.6
        with pytest.raises(ValueError, match="rho"):
            hb.make_gaussian(5.0, 2.0, 9.6, 1.0, rho)  # capped rho hits 0 < 1

    def test_gaussian_interval_enforced(self, p3_csrw):
        m = metric_of(p3_csrw)
        refl = hb.make_rho(m, "0", 2.0, variant="reflected")
        h = hb.make_gaussian(5.0, 2.0, 9.6, 1.0, refl)
        with pytest.raises(ValueError, match="interval"):
            h.log_h(2.0)


class TestMembership:
    def test_constant_one_in_class(self, k4_csrw):
        m = metric_of(k4_csrw)
        h = hb.make_drift(0.0, hb.make_rho(m, "0", 1.0))
        rep = hb.is_in_F(h, k4_csrw, m, np.linspace(0, 5, 11))
        assert rep.passed and rep.worst_slack >= 0.0

    def test_time_increasing_constant_fails(self, k4_csrw):
        m = metric_of(k4_csrw)
        h = constant_in_time_increasing()(k4_csrw)
        rep = hb.is_in_F(h, k4_csrw, m, [0.5, 1.0])
        assert not rep.passed
        rep2 = check_condition_2_2(h, k4_csrw, [0.5, 1.0])
        assert not rep2.passed

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_derivative_rejected(self, bad):
        g = hb.csrw_normalized(hb.path_graph(4))
        m = metric_of(g)
        h = TestFunction(GClassFunction(
            "bad", lambda t, r: 0.0 * (t + r),
            lambda t, r: np.full(np.broadcast(t, r).shape, bad)),
            hb.make_rho(m, "0", 2.0))
        with pytest.raises(ValueError, match="d/dt log h is not finite"):
            hb.is_in_F(h, g, m, [0.0, 1.0])
        with pytest.raises(ValueError, match="d/dt log h is not finite"):
            check_condition_2_2(h, g, [0.0, 1.0])

    def test_overflowing_edge_term_fails(self, p3_csrw):
        # rho from a first edge 1e4 long: sinh^2 of the drift's log-ratio
        # there overflows, and the nan slack fails rather than being passed
        long = hb.shortest_path_metric(p3_csrw, np.array([1e4, 1.0]))
        h = hb.make_drift(0.25, hb.make_rho(long, "0", 1e5))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = hb.is_in_F(h, p3_csrw, metric_of(p3_csrw), [0.0, 1.0])
        assert not rep.passed and rep.worst_edge == ("0", "1")

    def test_drift_quarter_on_random_graphs(self):
        for g in random_suite(5, 15, seed0=300, nu_range=(0.1, 10),
                              mu_range=(0.1, 10)):
            m = metric_of(g)
            h = hb.make_drift(0.25, hb.make_rho(m, g.vertex_ids[0], 3.0))
            rep = hb.is_in_F(h, g, m, np.linspace(0, 4, 9))
            assert rep.passed, (rep.worst_slack, rep.worst_edge)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_lemma23_membership_k4(self, tau, k4_csrw):
        m = metric_of(k4_csrw)
        h = hb.make_lemma23(tau, hb.make_rho(m, "0", 4.0))
        rep = hb.is_in_F(h, k4_csrw, m, np.linspace(0.0, 5.0, 21))
        assert rep.passed, rep.worst_slack

    def test_gaussian_boundary_parameters(self, p3_csrw):
        m = metric_of(p3_csrw)
        R = 2.0
        refl = hb.make_rho(m, "0", R, variant="reflected")
        h = hb.make_gaussian(5.0, R, 24.0 * R / 5.0, 1.0, refl)
        rep = hb.is_in_F(h, p3_csrw, m, np.linspace(0.0, 1.0, 21))
        assert rep.passed, rep.worst_slack

    def test_edgewise_implies_aggregated(self):
        for g in random_suite(4, 12, seed0=350, nu_range=(0.5, 2),
                              mu_range=(0.5, 2)):
            m = metric_of(g)
            grid = np.linspace(0.0, 3.0, 7)
            for h in (hb.make_drift(0.2, hb.make_rho(m, g.vertex_ids[0], 2.0)),
                      hb.make_lemma23(1.0, hb.make_rho(m, g.vertex_ids[0], 2.0))):
                assert hb.is_in_F(h, g, m, grid).passed
                assert check_condition_2_2(h, g, grid).passed


class TestJMonotone:
    def test_h_one_gives_norm_decay(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        h = hb.make_drift(0.0, hb.make_rho(m, "2", 1.0))
        u = KernelEvolution(g, "2", tol=1e-12)
        rep = hb.check_J_monotone(u, h, np.linspace(0.0, 5.0, 51))
        assert rep.passed
        assert np.all(np.diff(rep.J) <= 1e-12)

    def test_two_vertex_drift_101_points(self, two_state):
        m = metric_of(two_state)
        h = hb.make_drift(0.25, hb.make_rho(m, "a", 1.0))
        u = KernelEvolution(two_state, "a", tol=1e-12)
        rep = hb.check_J_monotone(u, h, np.linspace(0.0, 5.0, 101))
        assert rep.passed

    def test_killed_kernel_lemma23(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        h = hb.make_lemma23(1.0, hb.make_rho(m, "2", 3.0))
        u = KernelEvolution(g, "2", domain=["1", "2", "3"], tol=1e-12)
        rep = hb.check_J_monotone(u, h, np.linspace(0.0, 4.0, 101))
        assert rep.passed

    def test_passed_is_a_bool(self, p5_csrw):
        # here the coupled tolerance 10 err_bound / min J, a numpy float,
        # exceeds J_TOL
        m = metric_of(p5_csrw)
        h = hb.make_drift(0.25, hb.make_rho(m, "2", 1.0))
        u = KernelEvolution(p5_csrw, "2", domain=["1", "2", "3"])
        rep = hb.check_J_monotone(u, h, np.linspace(0.0, 4.0, 41))
        assert rep.tol_used > J_TOL
        assert rep.passed is True and bool(rep) is True

    def test_grid_validation(self, two_state):
        m = metric_of(two_state)
        h = hb.make_drift(0.1, hb.make_rho(m, "a", 1.0))
        u = KernelEvolution(two_state, "a")
        with pytest.raises(ValueError, match="increasing"):
            hb.check_J_monotone(u, h, [1.0, 0.5])

    def test_coarse_kernel_tolerance_reported(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        h = hb.make_drift(0.0, hb.make_rho(m, "0", 1.0))
        u = KernelEvolution(g, "0", domain=["0"], tol=1e-3)
        with pytest.raises(ValueError, match="tolerance too coarse"):
            hb.check_J_monotone(u, h, np.linspace(5.0, 30.0, 11))


class TestKeyLemma:
    def test_p5_reference_cell(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        u = KernelEvolution(g, "2", tol=1e-12)
        gfun = GClassFunction.from_lemma23(tau=1.0)
        rep = hb.check_key_lemma(u, gfun, tau=0.0, T=1.0, r=0.5, R=1.5,
                                 metric=m)
        assert rep.passed
        # oracle: recompute all four inner products from raw kernels
        d_o = m.dist[g.index("2")]
        nu = g.nu
        w = np.sqrt(nu[g.index("2")]) / nu
        u_T = hb.heat_kernel(g, "2", 1.0, tol=1e-12).probs * w
        u_0 = np.zeros(g.n)
        u_0[g.index("2")] = 1.0 / math.sqrt(nu[g.index("2")])
        lhs = float(np.dot(u_T ** 2 * (d_o >= 1.5), nu))
        norm0 = float(np.dot(u_0 ** 2, nu))
        tail0 = float(np.dot(u_0 ** 2 * (d_o >= 0.5), nu))
        gv = lambda t, r: float(gfun.g(t, np.array(r)))
        rhs = (gv(0, 0.5) / gv(1, 1.5)) * norm0 + (gv(0, 1.5) / gv(1, 1.5)) * tail0
        assert lhs == pytest.approx(rep.lhs, rel=1e-10, abs=1e-13)
        assert rhs == pytest.approx(rep.rhs, rel=1e-10)
        assert lhs <= rhs

    def test_radius_collapse(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        u = KernelEvolution(g, "2", tol=1e-12)
        gfun = GClassFunction.from_drift(0.25)
        rep = hb.check_key_lemma(u, gfun, tau=0.2, T=1.0, r=1.5, R=1.5, metric=m)
        assert rep.passed

    def test_time_collapse(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        u = KernelEvolution(g, "2", tol=1e-12)
        gfun = GClassFunction.from_lemma23(tau=0.5)
        rep = hb.check_key_lemma(u, gfun, tau=0.7, T=0.7, r=0.5, R=1.5, metric=m)
        assert rep.passed

    def test_gate_rejects_bad_radial(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        u = KernelEvolution(g, "2", tol=1e-12)
        bad = GClassFunction("decreasing", lambda t, r: 0.0 * t - r,
                             lambda t, r: 0.0 * (t + r))
        with pytest.raises(ValueError, match="class gate"):
            hb.check_key_lemma(u, bad, tau=0.0, T=1.0, r=0.5, R=1.5, metric=m)

    def test_g_class_gate(self, p5_csrw):
        m = metric_of(p5_csrw)
        rep = check_g_class(GClassFunction.from_lemma23(1.0), m, "2", 2.0,
                            np.linspace(0, 2, 9))
        assert rep.passed


class TestGradientCheck:
    def test_families_match_finite_differences(self, p5_csrw):
        g = p5_csrw
        m = metric_of(g)
        rng = np.random.default_rng(9)
        capped = hb.make_rho(m, "2", 3.0)
        refl = hb.make_rho(m, "2", 2.0, variant="reflected")
        fams = [hb.make_lemma23(0.7, capped),
                hb.make_drift(0.2, capped),
                hb.make_gaussian(5.0, 2.0, 9.6, 2.0, refl)]
        for h in fams:
            hi = h.interval[1] if math.isfinite(h.interval[1]) else 5.0
            ts = rng.uniform(0.01, hi - 0.01, size=60)
            vs = rng.integers(0, g.n, size=60)
            assert hb.gradient_check(h, ts, vs) < 1e-6
