import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.linalg.lapack import dgtsv
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.special import ive

import heatbound as hb
from heatbound import kernel as kernel_mod
from heatbound.bounds import all_pairs, fit_sweep_setup
from heatbound.graph import rate_matrix
from heatbound.kernel import (DEFAULT_TOL, KernelEvolution, _chebyshev,
                              _chebyshev_cut, point_mass_values,
                              weighted_tail_mass)

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
                 lambda: hb.heat_kernel(g, "2", math.inf, domain=["1", "2"]),
                 lambda: hb.heat_kernel(g, "2", 1.0, tol=2.0,
                                        domain=["1", "2"]),
                 lambda: hb.on_diagonal_curve(g, "2", [0.5, math.inf]),
                 lambda: hb.on_diagonal_curve(g, "2", [0.5, -1.0]),
                 lambda: hb.on_diagonal_curve(g, "2", [0.5], tol=math.inf),
                 lambda: KernelEvolution(g, "2", tol=math.nan).u(1.0)]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("t", [1e20, 1e308])
    def test_term_budget(self, t):
        # Lam = 6: the count of Lam t = 6e20 would take terabytes, and Lam t
        # = 6e308 overflows to inf; both are rejected before any allocation,
        # with no numpy warning first
        g = hb.load_graph("v a 1\nv b 2\nv c 0.5\ne a b 1\ne b c 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Chebyshev coefficients"):
                hb.kernel_rows(g, ["a", "c"], [1.0, t])

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
        kk = hb.heat_kernel(g, "2", t, tol=1e-12, domain=g.vertex_ids)
        hk = hb.heat_kernel(g, "2", t, tol=1e-12)
        assert np.allclose(kk.probs, hk.probs, atol=1e-10)

    def test_normalized_weighting(self, p5_csrw):
        g = p5_csrw
        evo = KernelEvolution(g, "2", domain=["1", "2", "3"])
        raw = hb.heat_kernel(g, "2", 0.9, domain=["1", "2", "3"])
        w = np.sqrt(g.nu[g.index("2")]) / g.nu
        assert np.allclose(evo.u(0.9), raw.probs * w)

    def test_single_vertex_survival(self, two_state):
        for t in (0.5, 2.0):
            kk = hb.heat_kernel(two_state, "a", t, tol=1e-12, domain=["a"])
            assert kk.prob("a") == pytest.approx(np.exp(-t), abs=1e-12)
            assert kk.prob("b") == 0.0

    def test_monotone_in_domain(self):
        for g in random_suite(4, 9, seed0=140, csrw=True):
            ids = list(g.vertex_ids)
            b1, b2 = ids[:max(2, g.n // 2)], ids
            k1 = hb.heat_kernel(g, ids[0], 1.0, tol=1e-12, domain=b1)
            k2 = hb.heat_kernel(g, ids[0], 1.0, tol=1e-12, domain=b2)
            assert np.all(k1.probs <= k2.probs + 1e-10)

    def test_dominated_by_full_kernel(self, p5_csrw):
        g = p5_csrw
        kk = hb.heat_kernel(g, "2", 1.5, tol=1e-12, domain=["1", "2", "3"])
        hk = hb.heat_kernel(g, "2", 1.5, tol=1e-12)
        assert np.all(kk.probs <= hk.probs + 1e-10)
        assert kk.total_mass() <= 1.0 + 1e-12
        assert kk.domain == {"1", "2", "3"} and hk.domain is None
        outside = [v for v in g.vertex_ids if v not in kk.domain]
        assert all(kk.prob(v) == 0.0 for v in outside)

    def test_origin_must_be_inside(self, p5_csrw):
        with pytest.raises(ValueError, match="not in the killed domain"):
            hb.heat_kernel(p5_csrw, "4", 1.0, domain=["0", "1"])


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
        values, err = _chebyshev(g, np.arange(g.n), np.eye(g.n), times,
                                 DEFAULT_TOL)
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
        assert hb.heat_kernel(g, "a", 2.0, domain=["a"]).total_mass() == 1.0

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
                ref = hb.heat_kernel(g, o, t, domain=domain)
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
                    ref = hb.heat_kernel(g, x, t, domain=domain)
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

    def test_stacked_masks_sum_each_masks_own_vertices(self):
        # one u^2 nu for a stack of masks: each mass is the sum of the
        # contiguous run of its own mask's vertices, as one call per mask
        # gives it; a masked sum over every vertex would group the
        # additions otherwise and change last bits
        rng = np.random.default_rng(8)
        g = hb.random_connected_graph(200, seed=8)
        u = rng.random((3, g.n))
        masks = rng.random((5, g.n)) < 0.6
        stacked = weighted_tail_mass(g, u, masks)
        assert stacked.shape == (5, 3)
        sq = u * u * g.nu
        for mass, mask in zip(stacked, masks):
            own = np.array([row[np.flatnonzero(mask)].sum() for row in sq])
            assert mass.tobytes() == own.tobytes()
            assert mass.tobytes() == weighted_tail_mass(g, u, mask).tobytes()
        assert weighted_tail_mass(g, u[1], masks[2]) == stacked[2, 1]


def cut_coefs(taus, tol, spread):
    """(coefs, err): _chebyshev_cut's result with coefs[j] the c_0..c_K of
    taus[j], a slice of its one array of coefficients."""
    c, starts, lengths, err = _chebyshev_cut(taus, tol, spread)
    return [c[s:s + m] for s, m in zip(starts.tolist(), lengths.tolist())], err


def reference_chebyshev(g, sub, p0, times, tol, entries=None):
    """_chebyshev one step at a time: B = I + Q^T/Lam by scipy's sparse
    arithmetic, T_{k+1} = 2 (B @ T_k) - T_{k-1} by scipy's `@` into a fresh
    array, and each step's products added into the live accumulators before
    the next step.  The engine's chunked steps must give its bits."""
    q_mat = (rate_matrix(g) if len(sub) == g.n
             else rate_matrix(g)[np.ix_(sub, sub)].tocsr())
    lam, nu = float(g.rates[sub].max()), g.nu[sub]
    readout = (lambda v: v) if entries is None else (lambda v: v[entries])
    coefs, err = cut_coefs([lam * t for t in times], tol,
                           math.sqrt(nu.max() / nu.min()))
    order = sorted(range(len(times)), key=lambda j: -len(coefs[j]))
    lengths = np.array([len(coefs[j]) for j in order], dtype=np.intp)
    shape = readout(p0).shape
    table = np.zeros((lengths[0] if len(lengths) else 0, len(times)))
    for i, j in enumerate(order):
        table[:lengths[i], i] = coefs[j]
    table = table.reshape(table.shape + (1,) * len(shape))
    live = len(lengths) - np.searchsorted(lengths[::-1], np.arange(len(table)),
                                          side="right")
    acc = np.zeros((len(times),) + shape)
    prev, cur = None, p0
    for k, (coef, m) in enumerate(zip(table, live.tolist())):
        if k == 1:
            b_t = (sparse.eye(len(p0), format="csr")
                   + q_mat.T * (1.0 / lam)).tocsr()
            prev, cur = cur, b_t @ cur
        elif k:
            nxt = b_t @ cur
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        acc[:m] += coef[:m] * readout(cur)
    values = np.empty_like(acc)
    values[order] = acc
    np.maximum(values, 0.0, out=values)
    return values, err


def engine_args(g, sources, domain=None, diagonal=False):
    """(g, sub, p0, entries) as kernel_rows passes them."""
    idx = np.array([g.index(x) for x in sources], dtype=np.intp)
    if domain is None:
        sub = np.arange(g.n)
    else:
        sub = np.array(sorted({g.index(v) for v in domain}), dtype=np.intp)
    at, cols = np.searchsorted(sub, idx), np.arange(len(idx))
    p0 = np.zeros((len(sub), len(idx)))
    p0[at, cols] = 1.0
    return g, sub, p0, (at, cols) if diagonal else None


def lam_t_with_cut(cut, spread):
    """A Lam t whose last summed step is ``cut``: the middle of the Lam t
    that stop there."""
    def last_step(lam_t):
        return len(cut_coefs([lam_t], DEFAULT_TOL, spread)[0][0]) - 1

    def least(k):  # the least Lam t (to bisection precision) reaching k
        lo, hi = 0.0, 1.0
        while last_step(hi) < k:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if last_step(mid) >= k else (mid, hi)
        return hi

    lam_t = 0.5 * (least(cut) + least(cut + 1))
    assert last_step(lam_t) == cut
    return lam_t


class TestChunkedSteps:
    """The engine steps a ring of rows a chunk at a time and sums each
    chunk's products after its steps; every value and err_bound must be
    the bits of the engine one step at a time (reference_chebyshev)."""

    GRID = [3.0, 0.0, 0.7, 11.0, 0.05, 0.7]

    @staticmethod
    def assert_reference_bits(args, times):
        g, sub, p0, entries = args
        values, err = _chebyshev(g, sub, p0, times, DEFAULT_TOL, entries)
        ref, ref_err = reference_chebyshev(g, sub, p0, times, DEFAULT_TOL,
                                           entries)
        assert values.shape == ref.shape and values.dtype == ref.dtype
        assert values.tobytes() == ref.tobytes()
        assert err.tobytes() == ref_err.tobytes()

    @pytest.mark.parametrize("block", [False, True],
                             ids=["one-source", "block"])
    @pytest.mark.parametrize("mode", ["full", "killed", "diagonal"])
    def test_engine_suite(self, mode, block):
        for g in ENGINE_SUITE:
            domain = g.vertex_ids[g.n // 2:] if mode == "killed" else None
            inside = domain or g.vertex_ids
            sources = inside[::-1] if block else inside[:1]
            self.assert_reference_bits(
                engine_args(g, sources, domain, mode == "diagonal"), self.GRID)

    @pytest.mark.parametrize("longest", ["below", "equal", "one-past",
                                         "several", "rings"])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_chunk_boundaries(self, monkeypatch, mode, rows, longest):
        # a budget of ``rows`` rows per chunk, in a ring of rows + 2; with
        # "rings" the last chunk ends at the ring's end after the ring has
        # wrapped round twice; the grid's other cuts move where times stop
        # summing
        args = engine_args(STIFF, STIFF.vertex_ids[:3],
                           diagonal=mode == "diagonal")
        g, sub, p0, entries = args
        lam, nu = g.rates[sub].max(), g.nu[sub]
        spread = math.sqrt(nu.max() / nu.min())
        cut = {"below": rows - 1, "equal": rows, "one-past": rows + 1,
               "several": 4 * rows + 3, "rings": 3 * (rows + 2) - 1}[longest]
        cuts = [cut, max(cut - 1, 0), cut, cut // 2, 0]
        times = [lam_t_with_cut(k, spread) / lam if k else 0.0 for k in cuts]
        coefs, _ = cut_coefs([lam * t for t in times], DEFAULT_TOL,
                             spread)
        assert max(len(c) for c in coefs) == cut + 1
        b_t = kernel_mod._step_matrix(g, sub)
        monkeypatch.setattr(kernel_mod, "CHUNK_BYTES", (rows + 2) * (
            p0.nbytes + 12 * (len(b_t.data) + len(sub)) + 4 * len(sub)
            + 12 * len(times)))
        self.assert_reference_bits(args, times)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 70])
    def test_every_chunk_but_the_last_is_full(self, monkeypatch, rows):
        # a budget of ``rows`` steps per chunk: the steps past T_1 take
        # ceil((steps - 2) / rows) ring-matrix calls, however often the
        # ring's end would cut a chunk short, and the values keep the bits
        # of one step at a time
        args = engine_args(STIFF, STIFF.vertex_ids[:1])
        g, sub, p0, _ = args
        lam, nu = g.rates[sub].max(), g.nu[sub]
        spread = math.sqrt(nu.max() / nu.min())
        cut = 7 * rows + 5
        times = [lam_t_with_cut(cut, spread) / lam, 1.0 / lam]
        n, b_t = len(sub), kernel_mod._step_matrix(g, sub)
        monkeypatch.setattr(kernel_mod, "CHUNK_BYTES", (rows + 2) * (
            p0.nbytes + 12 * (len(b_t.data) + n) + 4 * n + 12 * len(times)))
        real, ring_calls = kernel_mod._csr_call, []

        def counting(csr, cols, x, out):
            call = real(csr, cols, x, out)
            if cols != (rows + 2) * n:  # T_1's, not the ring matrix's
                return call

            def counted(*args):
                ring_calls.append(args)
                call(*args)
            return counted
        monkeypatch.setattr(kernel_mod, "_csr_call", counting)
        self.assert_reference_bits(args, times)
        assert len(ring_calls) == -(-(cut + 1 - 2) // rows)

    def test_one_vertex_graph(self):
        # Lam = 0: every time has one coefficient, and no step is taken
        g = hb.load_graph("v a 2\n")
        for diagonal in (False, True):
            self.assert_reference_bits(
                engine_args(g, ["a", "a"], diagonal=diagonal),
                [0.0, 1.0, 5.0])

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.0], [0.0, 2.0, 0.0]],
                             ids=["zero", "zeros", "mixed"])
    def test_grid_with_zero(self, times):
        for g in (STIFF, ENGINE_SUITE[0]):
            for diagonal in (False, True):
                self.assert_reference_bits(
                    engine_args(g, g.vertex_ids[:2], diagonal=diagonal), times)

    def test_memory_of_a_large_block(self):
        # all sources of 400 vertices: a block of 1.28 MB, past CHUNK_BYTES,
        # steps one row at a time.  One step at a time peaked at five blocks
        # (the start block, the accumulator and three more at once), the
        # ring peaks at six; the bound is two blocks over the five
        g = hb.random_connected_graph(400, seed=3)
        block = 8 * g.n * g.n
        assert block > kernel_mod.CHUNK_BYTES
        t = 1e3 / float(g.rates.max())
        tracemalloc.start()
        try:
            hb.kernel_rows(g, g.vertex_ids, [t])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * block

    def test_memory_of_the_ring_matrix(self):
        # one source on K60: the ring matrix holds [2B | -I] once per ring
        # row, 43 KB each, so it is most of what a chunk holds; with it
        # counted the peak stays within CHUNK_BYTES and two copies of B,
        # where leaving it out of the budget peaked at 4.5 MB
        g = hb.complete_graph(60)
        b_t = kernel_mod._step_matrix(g, np.arange(g.n))
        matrix = sum(a.nbytes for a in b_t)
        t = 50.0 / float(g.rates.max())
        tracemalloc.start()
        try:
            hb.kernel_rows(g, ["0"], [t])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kernel_mod.CHUNK_BYTES + 2 * matrix


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
        lambda g: hb.heat_kernel(g, "2", 1.5, domain=["1", "2", "3"]),
        lambda g: hb.kernel_matrix(g, 1.5),
        lambda g: hb.on_diagonal_curves(g, g.vertex_ids, [0.0, 0.5, 2.0]),
        lambda g: KernelEvolution(g, "2").fill([0.0, 0.5, 2.0]),
        lambda g: KernelEvolution(g, "2", domain=["1", "2", "3"]).fill(
            [0.0, 0.5, 2.0]),
        lambda g: hb.bound_sweep(g, hb.shortest_path_metric(g), "prop2.6",
                                 [0.5, 2.0]),
    ], ids=["heat_kernel", "heat_kernel-killed", "kernel_matrix",
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


class TestReadouts:
    """kernel_rows's further readouts (``more``) share one engine call: the
    coefficients of every time come from one _chebyshev_cut, B and the ring
    matrix are built once, and each readout's rows and err_bounds are the
    bits of a call of its own."""

    GRID = [3.0, 0.0, 0.7, 11.0, 0.05, 0.7]

    @staticmethod
    def readouts(inside):
        """(sources, times, diagonal) readouts: a first one of one source,
        later ones that add sources to the start block or share them, a
        repeated source, and readouts with no time or no source."""
        return [(inside[1:2], TestReadouts.GRID, False),
                (inside[::-1], [0.05, 11.0, 0.0], True),
                (inside[-1:] * 2, [0.7, 3.0, 0.7], False),
                (inside[:1], [], True),
                ([], [1.0], False),
                (inside, [11.0, 0.05], False)]

    @pytest.mark.parametrize("chunk_bytes", [None, 0],
                             ids=["default", "one-step-chunks"])
    @pytest.mark.parametrize("first", [0, 1], ids=["rows-first",
                                                   "diagonal-first"])
    @pytest.mark.parametrize("killed", [False, True])
    def test_each_readout_equals_its_own_call(self, monkeypatch, killed,
                                              first, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(kernel_mod, "CHUNK_BYTES", chunk_bytes)
        built = []
        for name in ("_chebyshev_cut", "_step_matrix", "_ring_matrix"):
            def counted(*args, _real=getattr(kernel_mod, name), _name=name):
                built.append(_name)
                return _real(*args)
            monkeypatch.setattr(kernel_mod, name, counted)
        for g in ENGINE_SUITE:
            domain = g.vertex_ids[g.n // 2:] if killed else None
            readouts = self.readouts(domain or g.vertex_ids)
            readouts.insert(0, readouts.pop(first))
            (sources, times, diagonal), *more = readouts
            built.clear()
            shared = hb.kernel_rows(g, sources, times, domain=domain,
                                    diagonal=diagonal, more=more)
            assert built == ["_chebyshev_cut", "_step_matrix",
                             "_ring_matrix"]
            assert len(shared) == len(readouts)
            for (rows, err), (sources, times, diagonal) in zip(shared,
                                                               readouts):
                ref, ref_err = hb.kernel_rows(g, sources, times,
                                              domain=domain,
                                              diagonal=diagonal)
                assert rows.shape == ref.shape and rows.dtype == ref.dtype
                assert rows.tobytes() == ref.tobytes()
                assert err.tobytes() == ref_err.tobytes()

    def test_checks_every_readout(self):
        g = STIFF
        inside = g.vertex_ids[2:]
        with pytest.raises(ValueError, match="times must be finite"):
            hb.kernel_rows(g, inside, [1.0], more=[(inside, [-1.0], True)])
        with pytest.raises(ValueError, match="times must be finite"):
            hb.kernel_rows(g, inside, [1.0],
                           more=[(inside, [math.nan], False)])
        with pytest.raises(ValueError,
                           match=f"origin {g.vertex_ids[1]!r} not in"):
            hb.kernel_rows(g, inside, [1.0], domain=inside,
                           more=[(g.vertex_ids[1:3], [1.0], True)])
        with pytest.raises(hb.GraphFormatError, match="unknown vertex"):
            hb.kernel_rows(g, inside, [1.0], more=[(["nope"], [1.0], True)])


class TestJump:
    """Calls whose times stop the recurrence at very different steps, with
    Lam*t up to 1e4."""

    LAM = float(STIFF.rates.max())

    @staticmethod
    def cut(g, lam_t, sub=None):
        """K, the last step the engine sums for Lam*t on g (or on sub)."""
        nu = g.nu if sub is None else g.nu[sub]
        coefs, _ = cut_coefs([lam_t], DEFAULT_TOL,
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
                ref = hb.heat_kernel(g, x, t, domain=domain)
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
        coefs, err = cut_coefs([tau], tol, 1.0)
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
            coefs, _ = cut_coefs(lam_ts, DEFAULT_TOL,
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


def bessel_windows_of(taus, tol=DEFAULT_TOL, spread=1.0):
    """(coefs, err, window): cut_coefs's result for the taus, and the
    whole window of c_k it cut them from, c_0 halved there too."""
    seen = []
    real = kernel_mod._bessel_windows

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]
    kernel_mod._bessel_windows = spy
    try:
        coefs, err = cut_coefs(taus, tol, spread)
    finally:
        kernel_mod._bessel_windows = real
    return coefs, err, seen[0]


# Lam t from 0 to the far end of the Bessel range: the exact zero, values
# that underflow a coefficient at k = 1 or 2, and 400 log-spaced ones
CUT_GRID = np.concatenate([[0.0, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-8],
                           np.geomspace(1e-6, 2e6, 400)])


class TestTridiagonalSolve:
    """The Bessel coefficients of all of a call's times come from one call
    of LAPACK's dgtsv, the entries that would couple two times' systems set
    to 0.  A time's coefficients are the bits of its own system only because
    dgtsv never swaps a row whose sub-diagonal entry is 0 with the row above
    it and adds the zero fill of such a row as 0 * x.  If a LAPACK update
    breaks that, these tests fail, rather than kernels that depend on the
    rest of their call."""

    @staticmethod
    def solve(dl, d, du, b):
        """dgtsv's solution, and whether it swapped any rows (its second
        super-diagonal, returned in dl's storage, is zero fill otherwise).
        scipy's wrapper takes no empty dl and du: one row is b / d, as in
        LAPACK."""
        if len(d) == 1:
            return b / d, False
        du2, *_, x, info = dgtsv(dl, d, du, b[:, None])
        assert info == 0
        return x[:, 0], bool(np.any(du2 != 0.0))

    def test_zero_couplings_solve_each_block_alone(self):
        rng = np.random.default_rng(25)
        blocks = []
        for n in (1, 2, 3, 2, 5, 8, 1, 13, 40, 3, 64):
            # sub-diagonal entries up to 4 times the diagonal: pivoting swaps
            d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            blocks.append((rng.uniform(-4.0, 4.0, n - 1), d,
                           rng.uniform(-4.0, 4.0, n - 1),
                           rng.standard_normal(n)))
        alone = [self.solve(*block) for block in blocks]
        assert sum(swapped for _, swapped in alone) >= 5
        for _ in range(6):
            order = rng.permutation(len(blocks))
            zero = np.zeros(1)
            dl = np.concatenate([np.concatenate([zero, blocks[i][0]])
                                 for i in order])[1:]
            du = np.concatenate([np.concatenate([blocks[i][2], zero])
                                 for i in order])[:-1]
            d = np.concatenate([blocks[i][1] for i in order])
            b = np.concatenate([blocks[i][3] for i in order])
            x, _ = self.solve(dl, d, du, b)
            start = 0
            for i in order:
                n = len(blocks[i][1])
                assert x[start:start + n].tobytes() == alone[i][0].tobytes()
                start += n

    def test_cut_bits_alone_and_in_mixed_grids(self):
        taus = [0.0, 1e-300, 0.5, 1e5, 2e6]
        for spread in (1.0, 1e6):
            alone = [cut_coefs([tau], DEFAULT_TOL, spread)
                     for tau in taus]
            for grid in itertools.permutations(range(len(taus))):
                coefs, err = cut_coefs([taus[j] for j in grid],
                                       DEFAULT_TOL, spread)
                for i, j in enumerate(grid):
                    assert coefs[i].tobytes() == alone[j][0][0].tobytes()
                    assert err[i:i + 1].tobytes() == alone[j][1].tobytes()

    def test_empty_grid_and_one_row_systems_take_no_solve(self,
                                                          monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return dgtsv(*args)
        monkeypatch.setattr(kernel_mod, "dgtsv", counted)
        coefs, err = cut_coefs([], DEFAULT_TOL, 1.0)
        assert coefs == [] and err.shape == (0,)
        hb.kernel_rows(STIFF, ["0"], [])
        assert calls == []
        # at tol = 0.9 the window of tau = 1e-3 ends at m = 2: one row, which
        # scipy's dgtsv does not take, solved as LAPACK solves it, b / d
        tau, tol = 1e-3, 0.9
        alone, alone_err, window = bessel_windows_of([tau], tol)
        assert len(window) == 3 and calls == []
        coefs, err = cut_coefs([0.3, tau, 5.0], tol, 1.0)
        assert len(calls) == 1
        assert coefs[1].tobytes() == alone[0].tobytes()
        assert err[1:2].tobytes() == alone_err.tobytes()


class TestBesselCoefficients:
    """The coefficients c_k = 2 e^-tau I_k(tau) of the solve: against 40
    digits, against two identities of a whole window, and at the edges."""

    U = math.ldexp(1.0, -53)

    @pytest.mark.parametrize("tau", [1e-5, 0.01, 5.0, 40.0, 1e3, 1e4])
    def test_match_mpmath_at_least_as_well_as_ive(self, tau):
        mpmath = pytest.importorskip("mpmath")
        coefs, _, window = bessel_windows_of([tau])
        c = window.copy()
        c[0] *= 2.0
        m, cut = len(c) - 1, len(coefs[0]) - 1
        rng = np.random.default_rng(int(tau * 1e5))
        ks = sorted({0, 1, cut, m, *rng.integers(0, m + 1, 6).tolist()})
        with mpmath.workdps(40):
            exact = [2 * mpmath.exp(-tau) * mpmath.besseli(k, tau) for k in ks]
        solve = [float(abs(mpmath.mpf(c[k]) / e - 1))
                 for k, e in zip(ks, exact)]
        amos = [float(abs(mpmath.mpf(2.0 * ive(k, tau)) / e - 1))
                for k, e in zip(ks, exact)]
        assert max(solve) <= 2e-13
        assert max(solve) <= max(amos)

    @pytest.mark.parametrize("tau", [1e5, 2e6])
    def test_window_identities(self, tau):
        # the Skellam law e^-tau I_k(tau), k in Z, has mass 1 and variance
        # tau: over a window, c_0 halved, sum c_k = 1 - tail and
        # sum k^2 c_k = tau less the tail's part, within a rounding of each
        # coefficient per row of the solve; measured 4e-15 tau at 1e5 and
        # 8e-16 tau at 2e6 for the second
        _, _, c = bessel_windows_of([tau])
        k = np.arange(len(c), dtype=float)
        tail = bessel_tail(tau, len(c) - 1)
        assert abs(math.fsum(c) - (1.0 - tail)) <= len(c) * self.U
        assert abs(math.fsum(k * k * c) - tau) <= tau * len(c) * self.U

    def test_time_zero_is_the_point_mass(self):
        lam = float(STIFF.rates.max())
        for times in ([0.0], [0.0, 1e5 / lam, 0.0, 2e6 / lam]):
            rows, err = hb.kernel_rows(STIFF, STIFF.vertex_ids, times)
            for j in np.flatnonzero(np.array(times) == 0.0):
                assert np.array_equal(rows[:, j], np.eye(STIFF.n))
                assert err[j] == 0.0 and math.copysign(1.0, err[j]) == 1.0
        coefs, err = cut_coefs([0.0], DEFAULT_TOL, 1.0)
        assert coefs[0].tolist() == [1.0] and err[0].tobytes() == bytes(8)

    @pytest.mark.parametrize("spread", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    def test_cuts_positive_and_as_with_ive(self, tol, spread, monkeypatch):
        coefs, err = cut_coefs(CUT_GRID, tol, spread)
        assert all(np.all(c > 0.0) for c in coefs)

        def ive_windows(taus, size, starts):
            ks = np.arange(size.sum()) - np.repeat(starts, size)
            return 2.0 * ive(ks, np.repeat(taus, size))
        monkeypatch.setattr(kernel_mod, "_bessel_windows", ive_windows)
        ref, ref_err = cut_coefs(CUT_GRID, tol, spread)
        assert [len(c) for c in coefs] == [len(c) for c in ref]
        assert np.all(np.abs(err - ref_err) <= 1e-11 * ref_err)

    def test_memory_of_the_cut(self):
        # the solve holds 5 float64 arrays of the window's length and a bool
        # one; finding the cuts after it peaks at 7, the budget that
        # MAX_COEFFICIENTS is set by (1e7 coefficients, about 560 MB)
        taus = [1e8] * 16  # about 1.5e6 coefficients
        _, _, window = bessel_windows_of(taus)
        tracemalloc.start()
        try:
            _chebyshev_cut(taus, DEFAULT_TOL, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * window.nbytes + (1 << 16)

    def test_past_the_range_of_ive(self):
        # scipy's ive gives nan from Lam t about 1.1e9, far below the
        # MAX_COEFFICIENTS budget; the error is a ValueError, as for the budget
        lam = float(STIFF.rates.max())
        with pytest.raises(ValueError, match="range of scipy's ive"):
            hb.kernel_rows(STIFF, ["0"], [1.0, 2e9 / lam])


class TestStepMatrix:
    """_step_matrix builds B's CSR arrays from the graph's arrays; they must
    be scipy's (I + Q^T/Lam) bit for bit, zeros dropped as its sum drops
    them."""

    @pytest.mark.parametrize("mode", ["full", "killed"])
    def test_equals_sparse_arithmetic(self, mode):
        graphs = ENGINE_SUITE + [hb.path_graph(4),
                                 hb.load_graph("v a 1\nv b 1\ne a b 1\n")]
        for g in graphs:
            sub = (np.arange(g.n) if mode == "full"
                   else np.arange(g.n // 2, g.n))
            q = rate_matrix(g)[np.ix_(sub, sub)].tocsr()
            lam = float(g.rates[sub].max())
            ref = (sparse.eye(len(sub), format="csr")
                   + q.T * (1.0 / lam)).tocsr()
            b = kernel_mod._step_matrix(g, sub)
            for got, want in zip(b, (ref.indptr, ref.indices, ref.data)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert 0.0 not in b.data

    def test_diagonal_zeros_dropped(self):
        # every CSRW rate is Lam, so B has no diagonal; a path's inner
        # vertices have rate 2 = Lam, so its rows 1 and 2 have none
        g = hb.csrw_normalized(hb.path_graph(5))
        b = kernel_mod._step_matrix(g, np.arange(g.n))
        rows = np.repeat(np.arange(g.n), np.diff(b.indptr))
        assert not np.any(rows == b.indices)
        b = kernel_mod._step_matrix(hb.path_graph(4), np.arange(4))
        rows = np.repeat(np.arange(4), np.diff(b.indptr))
        assert sorted(rows[rows == b.indices].tolist()) == [0, 3]


class TestCsrStep:
    """The engine's steps call the compiled CSR kernels that scipy's `@` ends
    in, which are private to scipy: on pi_t they must give `pi_t @ v` bit
    for bit, on the ring matrix `2 (pi_t @ u) - w` for every block of a
    ring (the two that wrap round included), also when the same call wrote
    u and w, and on a dense matrix of coefficients the bits of a multiply
    and an add per step."""

    @staticmethod
    def pi_t(q):
        lam = float(-q.diagonal().min())
        return (sparse.eye(q.shape[0], format="csr") + q.T * (1.0 / lam)).tocsr()

    @staticmethod
    def csr(mat):
        return mat.indptr, mat.indices, mat.data

    def assert_steps_equal(self, pi_t, v, count=30):
        call, ref = kernel_mod._csr_call(self.csr(pi_t), len(v), v, v), v
        for _ in range(count):
            out = np.zeros_like(v)
            call(v, out)
            v, ref = out, pi_t @ ref.reshape(len(ref), -1)
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

    @pytest.mark.parametrize("kernel", ["matvec", "matvecs"])
    def test_rows_read_rows_written_in_the_same_call(self, kernel):
        # a chain matrix, row i of out = 2 x[i], on out = buf[1:] and x =
        # buf: the ring relies on the kernel computing its rows in order
        # and not copying an aliased operand, so a release that reorders
        # rows or copies must fail here, not give wrong kernels
        size = 8
        chain = (np.arange(size, dtype=np.int32),
                 np.arange(size - 1, dtype=np.int32), np.full(size - 1, 2.0))
        first = np.array([1.0]) if kernel == "matvec" else np.array([1.0, -3.0])
        buf = np.zeros((size, len(first)))
        buf[0] = first
        if kernel == "matvec":
            csr_matvec(size - 1, size, *chain, buf, buf[1:])
        else:
            csr_matvecs(size - 1, size, len(first), *chain, buf, buf[1:])
        assert buf.tolist() == [(2.0 ** i * first).tolist()
                                for i in range(size)]

    RING = 5

    def assert_ring_positions(self, shape, positions, seed):
        # row block p alone at each position, on signed operands (as
        # T_k(B) p0 is) in the two blocks before it mod the ring; the blocks
        # it must not read are NaN
        rng = np.random.default_rng(seed)
        ring = self.RING
        for g in ENGINE_SUITE:
            pi_t = self.pi_t(rate_matrix(g))
            matrix = kernel_mod._ring_matrix(pi_t, ring)
            assert matrix[0].dtype == matrix[1].dtype == np.int32
            assert len(matrix[0]) == ring * g.n + 1
            buf = np.zeros((ring, g.n) + shape)
            call = kernel_mod._csr_call(matrix, ring * g.n, buf,
                                        buf.reshape((-1,) + shape))
            for p in positions:
                buf[:] = np.nan
                u, w = (p - 1) % ring, (p - 2) % ring
                buf[u] = 2.0 * rng.random((g.n,) + shape) - 1.0
                buf[w] = 2.0 * rng.random((g.n,) + shape) - 1.0
                buf[p] = 0.0
                ref = 2.0 * (pi_t @ buf[u]) - buf[w]
                call(buf, buf[p:p + 1], p * g.n)
                assert buf[p].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(), (4,)], ids=["vector", "block"])
    def test_stacked_equals_twice_matmul_minus(self, shape):
        # the ring matrix's positions whose [2B | -I] reads a contiguous
        # [w; u] just before them
        self.assert_ring_positions(shape, range(2, self.RING), 4)

    def test_wrapped_pair_equals_stacked(self):
        # the two positions that wrap round: block 0 reads u and w from the
        # ring's end, block 1 reads u in block 0 and w in the last block
        for shape in [(), (2,)]:
            self.assert_ring_positions(shape, [0, 1], 5)

    @pytest.mark.parametrize("shape", [(), (1,), (4,), (2, 3)],
                             ids=["vector", "column", "block", "stacked"])
    def test_product_sums_equal_multiply_then_add(self, shape):
        # signed rows, and coefficients 0 past each time's cut; the sums
        # must be the bits of a multiply and an in-place add per step
        rng = np.random.default_rng(7)
        times, steps = 5, 9
        coefs = rng.random((times, steps))
        for i, cut in enumerate([8, 6, 6, 2, 0]):
            coefs[i, cut + 1:] = 0.0
        rows = 2.0 * rng.random((steps,) + shape) - 1.0
        acc = 2.0 * rng.random((times,) + shape) - 1.0
        ref = acc.copy()
        add = kernel_mod._product_sums(acc)
        for summing, lo, hi in [(5, 0, 2), (4, 2, 7), (3, 7, 8), (2, 8, 9)]:
            add(coefs[:summing, lo:hi], rows[lo:hi])
            products = np.empty((hi - lo, summing) + shape)
            np.multiply(coefs[:summing, lo:hi].T.reshape(
                products.shape[:2] + (1,) * len(shape)), rows[lo:hi, None],
                out=products)
            for p in products:
                ref[:summing] += p
            assert acc.tobytes() == ref.tobytes()

    def test_operands_checked_once(self):
        pi_t = self.pi_t(rate_matrix(STIFF))
        n = STIFF.n
        for v in (np.ones(n, dtype=np.float32),  # another dtype
                  np.ones(2 * n)[::2],  # not contiguous
                  np.ones((3, n)).T,  # a Fortran-ordered block
                  np.ones(n - 1),  # the kernel would read past its end
                  np.float64(1.0)):
            fine = np.zeros((n,) + np.shape(v)[1:])
            with pytest.raises(ValueError):
                kernel_mod._csr_call(self.csr(pi_t), n, v, fine)
            with pytest.raises(ValueError):  # as the output
                kernel_mod._csr_call(self.csr(pi_t), n, fine, v)
        mixed = pi_t.copy()
        mixed.indptr = mixed.indptr.astype(np.int64)
        for bad in (pi_t.astype(np.float32), mixed, pi_t[:-1]):
            with pytest.raises(ValueError):
                kernel_mod._csr_call(self.csr(bad), n, np.ones(n), np.zeros(n))
        # arrays the kernel would index out of bounds with
        indptr, indices, data = self.csr(pi_t)
        for bad in ((indptr, indices - 1, data), (indptr, indices + 1, data),
                    (indptr, indices[:-1], data[:-1]),
                    (indptr[::-1].copy(), indices, data)):
            with pytest.raises(ValueError):
                kernel_mod._csr_call(bad, n, np.ones(n), np.zeros(n))
        # a ring operand of the wrong length
        with pytest.raises(ValueError):
            kernel_mod._csr_call(kernel_mod._ring_matrix(pi_t, 3), 3 * n,
                                 np.ones((4, n)), np.zeros(3 * n))
        # an accumulator the sums cannot write in place
        for acc in (np.zeros((2, n), dtype=np.float32), np.zeros((n, 2)).T,
                    np.zeros((2, 0))):
            with pytest.raises(ValueError):
                kernel_mod._product_sums(acc)


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
