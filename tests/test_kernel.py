import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

import heatbound as hb
from heatbound import kernel as kernel_mod
from heatbound.bounds import all_pairs, fit_sweep_setup
from heatbound.kernel import (DEFAULT_TOL, KernelEvolution, _chebyshev,
                              _chebyshev_cut, point_mass_values, rate_matrix)

from conftest import ENGINE_SUITE, STIFF, random_suite


def expm_oracle(g, source, t):
    """Independent route: dense matrix exponential of the rate matrix."""
    q = rate_matrix(g).toarray()
    return expm(q * t)[g.index(source)]


def two_state_exact(t, mu=1.0):
    # eigendecomposition of [[-mu, mu], [mu, -mu]]: eigenvalues 0 and -2 mu
    return 0.5 * (1.0 + np.exp(-2.0 * mu * t))


class TestHeatKernel:
    def test_t_zero_point_mass(self, p5_csrw):
        r = hb.heat_kernel(p5_csrw, "2", 0.0)
        assert r.prob("2") == 1.0 and r.total_mass() == 1.0
        assert r.err_bound == 0.0

    def test_two_state_closed_form(self, two_state):
        for t in (0.1, 1.0, 7.5):
            r = hb.heat_kernel(two_state, "a", t, tol=1e-12)
            assert r.prob("a") == pytest.approx(two_state_exact(t), abs=1e-12)

    def test_conservation(self):
        for g in random_suite(5, 15, seed0=21, csrw=True):
            r = hb.heat_kernel(g, g.vertex_ids[0], 5.0, tol=1e-10)
            assert abs(r.total_mass() - 1.0) <= r.err_bound + 1e-15
            assert np.all(r.probs >= 0.0) and np.all(r.probs <= 1.0)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_expm_oracle(self, seed):
        g = hb.random_connected_graph(8, seed=seed, nu_range=(0.5, 2),
                                      mu_range=(0.5, 2))
        for t in (0.3, 2.0):
            r = hb.heat_kernel(g, g.vertex_ids[1], t, tol=1e-12)
            assert np.allclose(r.probs, expm_oracle(g, g.vertex_ids[1], t),
                               atol=1e-10)

    def test_input_validation(self, two_state):
        with pytest.raises(ValueError):
            hb.heat_kernel(two_state, "a", -1.0)
        with pytest.raises(ValueError):
            hb.heat_kernel(two_state, "a", 1.0, tol=0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, two_state, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            hb.heat_kernel(two_state, "a", t)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 2.0, 1.0, -1e-3])
    def test_tol_outside_unit_interval_rejected(self, two_state, tol):
        # the cut never meets tol = nan
        with pytest.raises(ValueError, match="0 < tol < 1"):
            hb.heat_kernel(two_state, "a", 1.0, tol=tol)

    def test_every_entry_point_validates(self, p5_csrw):
        g = p5_csrw
        calls = [lambda: hb.kernel_matrix(g, math.nan),
                 lambda: hb.kernel_matrix(g, 1.0, tol=math.nan),
                 lambda: hb.killed_kernel(g, ["1", "2"], "2", math.inf),
                 lambda: hb.killed_kernel(g, ["1", "2"], "2", 1.0, tol=2.0),
                 lambda: hb.on_diagonal_curve(g, "2", [0.5, math.inf]),
                 lambda: hb.on_diagonal_curve(g, "2", [0.5, -1.0]),
                 lambda: hb.on_diagonal_curve(g, "2", [0.5], tol=math.inf),
                 lambda: KernelEvolution(g, "2", tol=math.nan).u(1.0)]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_reversibility(self):
        for g in random_suite(4, 12, seed0=60, nu_range=(0.2, 5),
                              mu_range=(0.2, 5)):
            t = 1.5
            mat = hb.kernel_matrix(g, t, tol=1e-12)
            # P_x(X_t=y)/nu_y symmetric in (x, y)
            p_norm = mat / g.nu[None, :]
            assert np.allclose(p_norm, p_norm.T, atol=1e-10)

    def test_semigroup(self):
        g = hb.random_connected_graph(7, seed=11, csrw=True)
        tol = 1e-10
        m1 = hb.kernel_matrix(g, 0.7, tol=tol)
        m2 = hb.kernel_matrix(g, 1.1, tol=tol)
        m3 = hb.kernel_matrix(g, 1.8, tol=tol)
        assert np.allclose(m1 @ m2, m3, atol=10 * tol)

    def test_norm_identity(self):
        # <u(t,.), u(t,.)> = P_o(X_{2t} = o) for the point-mass evolution
        for g in random_suite(4, 10, seed0=90, nu_range=(0.2, 5),
                              mu_range=(0.2, 5)):
            o = g.vertex_ids[0]
            evo = KernelEvolution(g, o, tol=1e-12)
            for t in (0.4, 1.3):
                direct = hb.heat_kernel(g, o, 2 * t, tol=1e-12).prob(o)
                assert evo.norm_sq(t) == pytest.approx(direct, abs=1e-9)


class TestKilledKernel:
    def test_full_domain_matches_heat_kernel(self, p5_csrw):
        g = p5_csrw
        t = 1.2
        kk = hb.killed_kernel(g, g.vertex_ids, "2", t, tol=1e-12)
        hk = hb.heat_kernel(g, "2", t, tol=1e-12)
        assert np.allclose(kk.probs, hk.probs, atol=1e-10)

    def test_normalized_weighting(self, p5_csrw):
        g = p5_csrw
        evo = KernelEvolution(g, "2", domain=["1", "2", "3"])
        raw = hb.killed_kernel(g, ["1", "2", "3"], "2", 0.9)
        w = np.sqrt(g.nu[g.index("2")]) / g.nu
        assert np.allclose(evo.u(0.9), raw.probs * w)

    def test_single_vertex_survival(self, two_state):
        for t in (0.5, 2.0):
            kk = hb.killed_kernel(two_state, ["a"], "a", t, tol=1e-12)
            assert kk.prob("a") == pytest.approx(np.exp(-t), abs=1e-12)
            assert kk.prob("b") == 0.0

    def test_monotone_in_domain(self):
        for g in random_suite(4, 9, seed0=140, csrw=True):
            ids = list(g.vertex_ids)
            b1, b2 = ids[:max(2, g.n // 2)], ids
            k1 = hb.killed_kernel(g, b1, ids[0], 1.0, tol=1e-12)
            k2 = hb.killed_kernel(g, b2, ids[0], 1.0, tol=1e-12)
            assert np.all(k1.probs <= k2.probs + 1e-10)

    def test_dominated_by_full_kernel(self, p5_csrw):
        g = p5_csrw
        kk = hb.killed_kernel(g, ["1", "2", "3"], "2", 1.5, tol=1e-12)
        hk = hb.heat_kernel(g, "2", 1.5, tol=1e-12)
        assert np.all(kk.probs <= hk.probs + 1e-10)
        assert kk.total_mass() <= 1.0 + 1e-12
        assert kk.domain == {"1", "2", "3"} and hk.domain is None
        outside = [v for v in g.vertex_ids if v not in kk.domain]
        assert all(kk.prob(v) == 0.0 for v in outside)

    def test_origin_must_be_inside(self, p5_csrw):
        with pytest.raises(ValueError, match="not in the killed domain"):
            hb.killed_kernel(p5_csrw, ["0", "1"], "4", 1.0)


class TestOnDiagonal:
    def test_t_zero_is_one(self, p3_csrw):
        curve = hb.on_diagonal_curve(p3_csrw, "1", [0.0, 0.5])
        assert curve[0] == (0.0, 1.0)

    def test_no_jump_lower_bound(self):
        # P_x(X_t = x) >= exp(-(mu_x/nu_x) t)
        for g in random_suite(6, 12, seed0=200, nu_range=(0.2, 5),
                              mu_range=(0.2, 5)):
            x = g.vertex_ids[0]
            rate = g.rates[g.index(x)]
            for t, p in hb.on_diagonal_curve(g, x, np.linspace(0.1, 3, 7),
                                             tol=1e-12):
                assert p >= np.exp(-rate * t) - 1e-9

    def test_two_state_curve(self, two_state):
        grid = np.linspace(0.0, 4.0, 9)
        curve = hb.on_diagonal_curve(two_state, "a", grid, tol=1e-12)
        for t, p in curve:
            assert p == pytest.approx(two_state_exact(t), abs=1e-11)


class TestEngine:
    """Every entry point is one call to the same recurrence, so their
    values agree bit for bit, not just within tol."""

    SUITE = ENGINE_SUITE

    def test_on_diagonal_equals_heat_kernel(self):
        grid = [0.0, 0.05, 0.7, 0.7, 3.0, 11.0]
        for g in self.SUITE:
            for x in g.vertex_ids[:3]:
                curve = hb.on_diagonal_curve(g, x, grid)
                assert [t for t, _ in curve] == grid
                for t, p in curve:
                    assert p == hb.heat_kernel(g, x, t).prob(x)

    def test_kernel_matrix_rows_equal_heat_kernel(self):
        for g in self.SUITE:
            for t in (0.0, 0.4, 2.5):
                mat = hb.kernel_matrix(g, t)
                assert mat.shape == (g.n, g.n) and mat.flags.c_contiguous
                for i, x in enumerate(g.vertex_ids):
                    row = hb.heat_kernel(g, x, t).probs
                    assert np.array_equal(mat[i], row)

    def test_grid_with_zero(self, p5_csrw):
        curve = hb.on_diagonal_curve(p5_csrw, "2", [1.0, 0.0, 2.0])
        assert curve[1] == (0.0, 1.0)
        assert np.array_equal(hb.kernel_matrix(p5_csrw, 0.0), np.eye(5))
        r = hb.heat_kernel(p5_csrw, "2", 0.0)
        assert r.err_bound == 0.0 and not r.probs.flags.writeable

    def test_block_of_sources_over_a_grid(self, p5_csrw):
        g = p5_csrw
        times = [2.5, 0.0, 0.4, 2.5]
        values, err = _chebyshev(rate_matrix(g), g.rates.max(), g.nu,
                                 np.eye(g.n), times, DEFAULT_TOL)
        assert values.shape == (len(times), g.n, g.n)
        assert err.shape == (len(times),)
        for t, block, tail in zip(times, values, err):
            assert np.array_equal(block.T, hb.kernel_matrix(g, t))
            assert tail == hb.heat_kernel(g, "0", t).err_bound <= DEFAULT_TOL

    def test_one_vertex_graph(self):
        g = hb.load_graph("v a 2\n")  # Lam = 0: the walk never moves
        r = hb.heat_kernel(g, "a", 5.0)
        assert r.prob("a") == 1.0 and r.err_bound == 0.0
        assert hb.kernel_matrix(g, 3.0).tolist() == [[1.0]]
        assert hb.on_diagonal_curve(g, "a", [0.0, 1.0, 9.0]) == [
            (0.0, 1.0), (1.0, 1.0), (9.0, 1.0)]
        assert hb.killed_kernel(g, ["a"], "a", 2.0).total_mass() == 1.0

    # unsorted, with a repeat and t = 0; on STIFF the times' cuts differ
    BATCH_GRID = [3.0, 0.0, 0.7, 11.0, 0.05, 0.7]

    def test_batched_curves_equal_single_curves(self):
        for g in self.SUITE:
            xs = g.vertex_ids[::-1]
            curves = hb.on_diagonal_curves(g, xs, self.BATCH_GRID)
            assert list(curves) == list(xs)
            for x in xs:
                assert curves[x] == hb.on_diagonal_curve(g, x, self.BATCH_GRID)

    @pytest.mark.parametrize("killed", [False, True])
    def test_evolution_grid_equals_single_times(self, killed):
        for g in self.SUITE:
            o = g.vertex_ids[0]
            domain = g.vertex_ids[:max(2, g.n // 2)] if killed else None
            grid_evo = KernelEvolution(g, o, domain=domain)
            grid_evo.fill(self.BATCH_GRID)
            single = KernelEvolution(g, o, domain=domain)
            for t in self.BATCH_GRID:
                assert np.array_equal(grid_evo.u(t), single.u(t))
                assert grid_evo.err_bound(t) == single.err_bound(t)
                ref = (hb.killed_kernel(g, domain, o, t) if killed
                       else hb.heat_kernel(g, o, t))
                assert np.array_equal(single.u(t), point_mass_values(
                    g, g.index(o), ref.probs))
                assert single.err_bound(t) == ref.err_bound

    def test_killed_rows_equal_killed_kernels(self):
        for g in (g for g in self.SUITE if g.n > 2):
            domain = g.vertex_ids[g.n // 2:]
            sources = domain[::-1]
            # some source has a neighbour the walk is killed on
            assert any(g.vertex_ids[z] not in domain for x in sources
                       for z in g.neighbors(g.index(x)))
            rows, err = hb.kernel_rows(g, sources, self.BATCH_GRID,
                                       domain=domain)
            assert rows.shape == (len(sources), len(self.BATCH_GRID), g.n)
            for k, x in enumerate(sources):
                for j, t in enumerate(self.BATCH_GRID):
                    ref = hb.killed_kernel(g, domain, x, t)
                    assert np.array_equal(rows[k, j], ref.probs)
                    assert err[j] == ref.err_bound

    def test_prop26_tails_equal_evolution_tails(self):
        for g in self.SUITE:
            m = hb.shortest_path_metric(g)
            times = [0.3, 1.0, 4.0]
            rows = hb.bound_sweep(g, m, "prop2.6", times)
            evolutions = {x: KernelEvolution(g, x) for x in g.vertex_ids}
            for r in rows:
                outside = ~m.ball(r.x1, r.d_nu)
                assert r.p_computed == evolutions[r.x1].tail_mass(r.t,
                                                                  outside)


class TestOneEngineCall:
    """A profile fit and a J grid are one engine call each, however many
    vertices or times they need."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        real = kernel_mod._chebyshev

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "_chebyshev", counting)
        return calls

    def test_profile_fit(self, engine_calls):
        g = hb.random_connected_graph(9, seed=5, csrw=True)
        setup = fit_sweep_setup(g, all_pairs(g), [1.0, 4.0])
        assert len(setup.profiles) == 9 and len(engine_calls) == 1

    @pytest.mark.parametrize("call", [
        lambda g: hb.heat_kernel(g, "2", 1.5),
        lambda g: hb.killed_kernel(g, ["1", "2", "3"], "2", 1.5),
        lambda g: hb.kernel_matrix(g, 1.5),
        lambda g: hb.on_diagonal_curves(g, g.vertex_ids, [0.0, 0.5, 2.0]),
        lambda g: KernelEvolution(g, "2").fill([0.0, 0.5, 2.0]),
        lambda g: KernelEvolution(g, "2", domain=["1", "2", "3"]).fill(
            [0.0, 0.5, 2.0]),
        lambda g: hb.bound_sweep(g, hb.shortest_path_metric(g), "prop2.6",
                                 [0.5, 2.0]),
    ], ids=["heat_kernel", "killed_kernel", "kernel_matrix",
            "on_diagonal_curves", "fill", "fill-killed", "bound_sweep"])
    def test_entry_point(self, p5_csrw, engine_calls, call):
        call(p5_csrw)
        assert len(engine_calls) == 1

    @pytest.mark.parametrize("domain", [None, ["1", "2", "3"]])
    def test_j_grid(self, p5_csrw, engine_calls, domain):
        m = hb.shortest_path_metric(p5_csrw)
        h = hb.make_drift(0.25, hb.make_rho(m, "2", 1.0))
        evo = KernelEvolution(p5_csrw, "2", domain=domain)
        assert hb.check_J_monotone(evo, h, np.linspace(0.0, 4.0, 41)).passed
        assert len(engine_calls) == 1


class TestJump:
    """Calls whose times stop the recurrence at very different steps, with
    Lam*t up to 1e4."""

    LAM = float(STIFF.rates.max())

    @staticmethod
    def cut(g, lam_t, sub=None):
        """K, the last step the engine sums for Lam*t on g (or on sub)."""
        nu = g.nu if sub is None else g.nu[sub]
        coefs, _ = _chebyshev_cut([lam_t], DEFAULT_TOL,
                                  math.sqrt(nu.max() / nu.min()))
        return len(coefs[0]) - 1

    def test_matches_expm_oracle_after_a_jump(self):
        t = 1e4 / self.LAM
        expected = expm(rate_matrix(STIFF).toarray() * t)
        for i, x in enumerate(STIFF.vertex_ids):
            r = hb.heat_kernel(STIFF, x, t)
            # truncation, plus rounding of order Lam t u, which err_bound
            # leaves out
            allowance = r.err_bound + 1e4 * math.ldexp(1.0, -53)
            assert np.max(np.abs(r.probs - expected[i])) <= allowance

    def test_grid_equals_single_times(self):
        t1 = 1e3 / self.LAM
        times = [t1, t1 * (1.0 + 1e-9), 3e3 / self.LAM, 60.0 / self.LAM, 0.0]
        cuts = [self.cut(STIFF, self.LAM * t) for t in times]
        assert cuts[0] == cuts[1] and len(set(cuts)) == 4  # shared and not
        for x in STIFF.vertex_ids[:3]:
            curve = hb.on_diagonal_curve(STIFF, x, times)
            for t, p in curve:
                assert p == hb.heat_kernel(STIFF, x, t).prob(x)
                assert hb.on_diagonal_curve(STIFF, x, [t]) == [(t, p)]
        for t in times[::2]:
            mat = hb.kernel_matrix(STIFF, t)
            for i, x in enumerate(STIFF.vertex_ids):
                assert np.array_equal(mat[i], hb.heat_kernel(STIFF, x, t).probs)

    # holding rates over four decades on 30 vertices
    WIDE = hb.random_connected_graph(30, seed=352, nu_range=(1e-4, 1),
                                     mu_range=(1e-2, 1))

    @pytest.mark.parametrize("mode", ["full", "killed", "diagonal"])
    def test_open_windows_equal_single_times(self, mode):
        g = self.WIDE
        lam = float(g.rates.max())
        # unsorted, with a repeat, a near repeat and t = 0
        lam_ts = [1e3, 0.0, 100.0, 3e3, 1e3, 400.0, 1e3 * (1.0 + 1e-9), 60.0,
                  200.0]
        times = [x / lam for x in lam_ts]
        # the two slowest vertices are left out; the fastest stays, so Lam
        # and the times' Lam t are those of the full graph
        domain = (None if mode != "killed" else
                  [g.vertex_ids[i] for i in np.argsort(g.rates)[2:]])
        sub = np.array([g.index(v) for v in domain or g.vertex_ids])
        assert float(g.rates[sub].max()) == lam
        cuts = {x: self.cut(g, x, sub) for x in lam_ts}
        # t = 0 stops at step 0, the six other distinct Lam t at six other
        # steps, and the near repeat of 1e3 stops where 1e3 does
        assert cuts[0.0] == 0 and len(set(cuts.values())) == 7
        assert cuts[1e3] == cuts[1e3 * (1.0 + 1e-9)]
        sources = g.vertex_ids[-3:]
        rows, err = hb.kernel_rows(g, sources, times, domain=domain,
                                   diagonal=mode == "diagonal")
        for k, x in enumerate(sources):
            for j, t in enumerate(times):
                if mode == "diagonal":
                    [(_, p)] = hb.on_diagonal_curve(g, x, [t])
                    assert rows[k, j] == p
                    assert err[j] == hb.heat_kernel(g, x, t).err_bound
                    continue
                ref = (hb.killed_kernel(g, domain, x, t) if domain
                       else hb.heat_kernel(g, x, t))
                assert np.array_equal(rows[k, j], ref.probs)
                assert err[j] == ref.err_bound

    def test_empty_and_edgeless_calls(self):
        n = STIFF.n
        rows, err = hb.kernel_rows(STIFF, [], [1.0, 2.0])
        assert rows.shape == (0, 2, n) and err.shape == (2,)
        assert err.tolist() == [hb.heat_kernel(STIFF, "0", t).err_bound
                                for t in (1.0, 2.0)]
        assert hb.kernel_rows(STIFF, [], [1.0, 2.0], diagonal=True)[0].shape \
            == (0, 2)
        rows, err = hb.kernel_rows(STIFF, ["0"], [])
        assert rows.shape == (1, 0, n) and err.shape == (0,)
        g = hb.load_graph("v a 2\n")  # no edge: Lam = 0, the walk never moves
        for sources in (["a"], ["a", "a"]):
            rows, err = hb.kernel_rows(g, sources, [0.0, 1.0, 5.0])
            assert rows.tolist() == [[[1.0]] * 3] * len(sources)
            assert err.tolist() == [0.0] * 3


def bessel_tail(tau, K, dps=40):
    """sum_{k > K} 2 e^-tau I_k(tau) at ``dps`` digits, by Miller's backward
    recurrence I_{k-1} = I_{k+1} + (2k / tau) I_k from far past K, normalised
    by e^tau = I_0 + 2 sum_{k >= 1} I_k."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        top = K + int(20 * math.sqrt(tau)) + 60  # e^-200 of the tail beyond
        tau = mpmath.mpf(tau)
        vals = [mpmath.mpf(0)] * (top + 2)
        vals[top] = mpmath.mpf(1)
        for k in range(top, 0, -1):
            vals[k - 1] = vals[k + 1] + 2 * k / tau * vals[k]
        total = vals[0] + 2 * mpmath.fsum(vals[1:])
        return float(2 * mpmath.fsum(vals[K + 1:]) / total)


def spectral_kernel(g, t, dps=40):
    """p_t(x, y) for every pair, from a ``dps``-digit eigendecomposition of
    S = D^{1/2} Q D^{-1/2}, D = diag(nu): S_xy = mu_xy / sqrt(nu_x nu_y),
    p_t(x, y) = sqrt(nu_y / nu_x) sum_k V_xk V_yk e^{lam_k t}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        nu = [mpmath.mpf(float(v)) for v in g.nu]
        s = mpmath.matrix(g.n, g.n)
        w = g.weights.tocoo()
        for x, y, mu in zip(w.row, w.col, w.data):
            s[x, y] = mpmath.mpf(float(mu)) / mpmath.sqrt(nu[x] * nu[y])
            s[x, x] -= mpmath.mpf(float(mu)) / nu[x]
        lam, vec = mpmath.eigsy(s)
        decay = [mpmath.exp(lam[k] * mpmath.mpf(t)) for k in range(g.n)]
        return np.array([[float(mpmath.sqrt(nu[y] / nu[x]) * mpmath.fsum(
            vec[x, k] * vec[y, k] * decay[k] for k in range(g.n)))
            for y in range(g.n)] for x in range(g.n)])


class TestChebyshev:
    """The certified truncation bound of the Chebyshev-Bessel engine."""

    U = math.ldexp(1.0, -53)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("tau", [1e-2, 0.5, 3.0, 40.0, 1e3, 1e5])
    def test_certified_tail_covers_mpmath_tail(self, tau, tol):
        coefs, err = _chebyshev_cut([tau], tol, 1.0)
        exact = bessel_tail(tau, len(coefs[0]) - 1)
        # certified, and tight: Amos's ratio bound is sharp at the cut
        assert exact <= err[0] <= tol
        assert err[0] <= 1.1 * exact

    def test_within_err_bound_of_spectral_oracle(self):
        # nu over twelve decades: err_bound carries sqrt(max nu / min nu) = 1e6
        g = hb.random_connected_graph(25, seed=2, nu_range=(1e-6, 1e6),
                                      mu_range=(1e-2, 1e2))
        t = 3e4 / float(g.rates.max())
        exact = spectral_kernel(g, t)
        mat = hb.kernel_matrix(g, t)
        err = hb.heat_kernel(g, g.vertex_ids[0], t).err_bound
        assert err <= DEFAULT_TOL
        assert np.max(np.abs(mat - exact)) <= err

    def test_large_lam_t_meets_tol(self):
        t = 2e5 / float(STIFF.rates.max())
        r = hb.heat_kernel(STIFF, "0", t, tol=1e-10)
        assert 0.0 < r.err_bound <= 1e-10
        assert abs(math.fsum(r.probs) - 1.0) <= r.err_bound + 1e-11

    def test_rows_nonnegative_with_mass_one_minus_tail(self):
        times = [0.05, 0.7, 3.0, 11.0]
        for g in ENGINE_SUITE:
            lam_ts = [float(g.rates.max()) * t for t in times]
            rows, err = hb.kernel_rows(g, g.vertex_ids, times)
            coefs, _ = _chebyshev_cut(lam_ts, DEFAULT_TOL,
                                      math.sqrt(g.nu.max() / g.nu.min()))
            assert np.all(rows >= 0.0)
            for j, c in enumerate(coefs):
                # 1^T T_k(B) = 1^T, so the expansion cut at K has mass
                # sum_{k <= K} c_k = 1 - tail
                mass = math.fsum(c)
                tail = bessel_tail(lam_ts[j], len(c) - 1)
                assert abs(1.0 - mass - tail) <= len(c) * self.U
                assert tail <= err[j]
                # rounding moves it by about Lam t u: the columns of B sum
                # to 1 only up to rounding, and sum_k k^2 c_k = Lam t
                rounding = 2.0 * (lam_ts[j] + len(c)) * self.U
                for row in rows[:, j]:
                    assert abs(math.fsum(row) - mass) <= rounding
                    assert abs(math.fsum(row) - 1.0) <= err[j] + rounding


class TestCsrStep:
    """The engine's step calls the compiled CSR kernels that scipy's `@` ends
    in, which are private to scipy: they must give `pi_t @ v` bit for bit."""

    @staticmethod
    def pi_t(q):
        lam = float(-q.diagonal().min())
        return (sparse.eye(q.shape[0], format="csr") + q.T * (1.0 / lam)).tocsr()

    @staticmethod
    def assert_steps_equal(pi_t, v, count=30):
        step, ref = kernel_mod._csr_step(pi_t, v), v
        for _ in range(count):
            v, ref = step(v), pi_t @ ref.reshape(len(ref), -1)
            ref = ref.reshape(v.shape)
            assert v.dtype == ref.dtype and v.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (2,), (5,), (3, 2)],
                             ids=["vector", "column", "pair", "block",
                                  "stacked"])
    def test_equals_matmul(self, shape):
        pi_t = self.pi_t(rate_matrix(STIFF))
        v = np.random.default_rng(1).random((STIFF.n,) + shape)
        self.assert_steps_equal(pi_t, v)

    def test_killed_domain(self):
        sub = np.arange(1, STIFF.n, 2)
        pi_t = self.pi_t(rate_matrix(STIFF)[np.ix_(sub, sub)].tocsr())
        for shape in [(), (4,)]:
            self.assert_steps_equal(pi_t, np.random.default_rng(2).random(
                (len(sub),) + shape))

    def test_int64_indices(self):
        pi_t = self.pi_t(rate_matrix(STIFF))
        pi_t.indptr = pi_t.indptr.astype(np.int64)
        pi_t.indices = pi_t.indices.astype(np.int64)
        assert pi_t.indptr.dtype == pi_t.indices.dtype == np.int64
        for shape in [(), (4,)]:
            self.assert_steps_equal(pi_t, np.random.default_rng(3).random(
                (STIFF.n,) + shape))

    def test_operands_checked_once(self):
        pi_t = self.pi_t(rate_matrix(STIFF))
        n = STIFF.n
        for v in (np.ones(n, dtype=np.float32),  # another dtype
                  np.ones(2 * n)[::2],  # not contiguous
                  np.ones((3, n)).T,  # a Fortran-ordered block
                  np.ones(n - 1),  # the kernel would read past its end
                  np.float64(1.0)):
            with pytest.raises(ValueError):
                kernel_mod._csr_step(pi_t, v)
        mixed = pi_t.copy()
        mixed.indptr = mixed.indptr.astype(np.int64)
        for bad in (pi_t.astype(np.float32), mixed, pi_t[:-1]):
            with pytest.raises(ValueError):
                kernel_mod._csr_step(bad, np.ones(bad.shape[1]))


class TestSimulate:
    def test_deterministic_given_seed(self, two_state):
        r1 = hb.simulate(two_state, "a", 1.0, 500, seed=7)
        r2 = hb.simulate(two_state, "a", 1.0, 500, seed=7)
        assert np.array_equal(r1.counts, r2.counts)
        assert r1.exploded_paths == r2.exploded_paths

    def test_two_state_within_band(self, two_state):
        n = 20_000
        r = hb.simulate(two_state, "a", 1.0, n, seed=123)
        p = two_state_exact(1.0)
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(r.prob("a") - p) <= 4 * sigma

    def test_jump_cap_semantics(self, k4_csrw):
        g = k4_csrw
        r = hb.simulate(g, "0", 50.0, 400, seed=5, jump_cap=1,
                        keep_trajectories=True)
        neighbor_ids = {g.vertex_ids[i] for i in g.neighbors(g.index("0"))}
        support = {g.vertex_ids[i] for i in np.flatnonzero(r.counts)}
        assert support <= neighbor_ids | {"0"}
        jumped = sum(1 for tr in r.trajectories if len(tr.states) > 1)
        assert r.exploded_paths == jumped

    def test_no_cap_no_explosion(self, two_state):
        r = hb.simulate(two_state, "a", 1.0, 200, seed=3, jump_cap=10_000)
        assert r.exploded_fraction == 0.0

    def test_trajectories_valid(self, p5_csrw):
        g = p5_csrw
        r = hb.simulate(g, "0", 3.0, 50, seed=11, keep_trajectories=True)
        adj = {(a, b) for a, b in g.edge_ids()} | {(b, a) for a, b in g.edge_ids()}
        for tr in r.trajectories:
            assert all(t1 < t2 for t1, t2 in zip(tr.times, tr.times[1:]))
            assert all((a, b) in adj for a, b in zip(tr.states, tr.states[1:]))

    def test_band_vs_exact_on_random_graph(self):
        g = hb.random_connected_graph(10, seed=77, csrw=True)
        n = 20_000
        r = hb.simulate(g, g.vertex_ids[0], 1.0, n, seed=42)
        exact = hb.heat_kernel(g, g.vertex_ids[0], 1.0, tol=1e-12).probs
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n)
        assert np.all(np.abs(r.probs - exact) <= 4 * sigma + 1e-12)

    def test_input_validation(self, two_state):
        with pytest.raises(ValueError):
            hb.simulate(two_state, "a", 1.0, 0, seed=1)
        with pytest.raises(ValueError):
            hb.simulate(two_state, "a", 1.0, 10, seed=1, jump_cap=0)
