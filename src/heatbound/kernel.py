"""Transition probabilities of the walk: exact kernels, killed kernels, Monte Carlo.

Every kernel comes from one Chebyshev-Bessel expansion (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 1984).  With Lam = max_x mu_x/nu_x, B = I + Q^T/Lam and
tau = Lam*t, the distribution at time t from p0 is

    exp(t Q^T) p0 = sum_k c_k T_k(B) p0,   c_k = 2 ive(k, tau), c_0 halved,

with T_k the Chebyshev polynomials.  Each time sums k = 0..K, K the least
cut whose certified tail bound (Amos's ratio bound for I_{k+1}/I_k) times
sqrt(max nu / min nu) is at most tol; that product is err_bound.  K is about
sqrt(2 tau ln(1/tol)), and depends only on t, tol and the graph (or killed
domain), never on the rest of a call.  Values are clamped at 0.  Rounding,
of order Lam*t times the unit roundoff, is not in err_bound.

Every kernel entry point calls kernel_rows(g, sources, times, tol, domain),
which makes one engine call and returns (rows, err): rows[k, j] is the
distribution from sources[k] at times[j], killed on first exit from
``domain`` when given (the generator restricted to the domain, absorption
outside), and err[j] is the err_bound of times[j].  It may read out only
the diagonal, one number per source and time for the on-diagonal curves.

In the engine, one three-term recurrence T_{k+1} = 2 B T_k - T_{k-1} on a
block of start vectors (one unit column per source; a single source is a
vector, stepped by matvecs) serves every time of the call.  A step calls the
compiled CSR kernel that scipy's `@` ends in, which does the floating-point
operations of `b_t @ v` in the same order, so a value's bits do not depend
on the other times or sources of a call or on the entry point.

The results keep the method name "series-uniformization": the expansion is
still a series in the uniformized matrix B.  There is no second backend:
the tests check this one against scipy's expm, closed forms and a 40-digit
spectral oracle, the benchmark against the 40-digit oracle too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
# private to scipy: the compiled kernels that `@` on a CSR matrix and a dense
# vector or block ends in.  Called directly they skip the ~5 us of Python
# dispatch around each step; tests/test_kernel.py checks them against `@`.
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.special import ive

from .graph import WeightedGraph

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class HeatKernelResult:
    """Distribution of the walk at one time: probs[z] = P_source(X_t = z).

    For the walk killed on first exit from ``domain`` (None: never killed),
    probs[z] = P_source(X_t = z, exit time > t) and total_mass() <= 1."""

    graph: WeightedGraph
    source: str
    time: float
    probs: np.ndarray
    method: str
    err_bound: float
    domain: frozenset | None = None

    def prob(self, vertex_id):
        return float(self.probs[self.graph.index(vertex_id)])

    def total_mass(self):
        return float(self.probs.sum())


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: jump times, visited states, and the cap flag."""

    times: tuple
    states: tuple
    exploded: bool


@dataclass(frozen=True)
class SimulationResult:
    graph: WeightedGraph
    source: str
    t_max: float
    n_paths: int
    seed: int
    jump_cap: int
    counts: np.ndarray
    exploded_paths: int
    trajectories: tuple = field(default=(), repr=False)

    @property
    def probs(self):
        return self.counts / self.n_paths

    @property
    def exploded_fraction(self):
        return self.exploded_paths / self.n_paths

    def prob(self, vertex_id):
        return float(self.counts[self.graph.index(vertex_id)]) / self.n_paths


# ---------------------------------------------------------------------------
# generator matrices

def rate_matrix(g):
    """Q with Q_xy = mu_xy/nu_x off the diagonal and vanishing row sums."""
    inv_nu = sparse.diags(1.0 / g.nu)
    off = inv_nu @ g.weights
    return (off - sparse.diags(g.rates)).tocsr()


def _csr_step(b_t, v):
    """step(u) = b_t @ u, bit for bit, for u shaped like v: the kernel that
    ``@`` calls, csr_matvec for a vector or one column and csr_matvecs for a
    block, into a freshly zeroed output.  The kernel checks no shape and
    quietly copies an operand of another dtype or layout, so the operands
    are checked here, once; each step's output, the next step's input, has
    v's shape and layout."""
    n = b_t.shape[0]
    if (b_t.format != "csr" or b_t.shape != (n, n)
            or b_t.dtype != np.float64
            or b_t.indptr.dtype not in (np.int32, np.int64)
            or b_t.indices.dtype != b_t.indptr.dtype):
        raise ValueError("the step needs a square float64 CSR matrix with "
                         "int32 or int64 indices")
    if (v.dtype != np.float64 or not v.flags.c_contiguous or v.ndim == 0
            or v.shape[0] != n):
        raise ValueError(f"the step needs a C-contiguous float64 operand of "
                         f"{n} rows, got {v.dtype} {v.shape}")
    csr, cols = (b_t.indptr, b_t.indices, b_t.data), math.prod(v.shape[1:])

    def step(u):
        out = np.zeros(v.shape)
        if cols == 1:
            csr_matvec(n, n, *csr, u, out)
        else:
            csr_matvecs(n, n, cols, *csr, u, out)
        return out

    return step


def _chebyshev_cut(taus, tol, spread):
    """(coefs, err): for each tau = Lam t, coefs[j] holds c_0..c_K, where
    c_k = 2 ive(k, tau) with c_0 halved, and err[j] is ``spread`` times a
    bound on the tail sum_{k > K} c_k, for the least K with err[j] <= tol.

    Amos's ratio bound (Math. Comp. 28, 1974), I_{v+1}(tau) / I_v(tau) <=
    r_v = tau / (v + 1/2 + sqrt((v + 1/2)^2 + tau^2)), decreases in v, so the
    tail from k on is at most c_k / (1 - r_k).

    One ive call serves every time, over k = 0..m with the cut certain to lie
    below m: e^-tau I_k(tau) is the Skellam law of X - Y, X and Y
    Poisson(tau/2), so Bennett's inequality gives c_m <= 2 exp(-m^2 / (2 (tau
    + m/3))), and 1 / (1 - r_m) <= 2 + tau for m >= 1.  Both together are at
    most tol / spread once m^2 >= 2 L (tau + m/3), L = ln(2 spread (2 + tau)
    / tol).
    """
    taus = np.asarray(taus, dtype=float)
    budget = math.log(2.0 * spread) - math.log(tol) + np.log(2.0 + taus)
    size = np.ceil(budget / 3.0 + np.sqrt(budget ** 2 / 9.0 + 2.0 * budget
                                          * taus)).astype(np.intp) + 2
    starts = np.cumsum(size) - size
    ks = np.arange(size.sum()) - np.repeat(starts, size)
    tau_k = np.repeat(taus, size)
    c = 2.0 * ive(ks, tau_k)
    c[starts] *= 0.5
    a = ks + 0.5
    tail = spread * c / (1.0 - tau_k / (a + np.hypot(a, tau_k)))
    met = np.flatnonzero((tail <= tol) & (ks > 0))
    # the first index past each start at which the tail meets tol
    cut = met[np.searchsorted(met, starts)]
    return [c[s:e] for s, e in zip(starts, cut)], tail[cut]


def _chebyshev(q_mat, lam, nu, p0, times, tol, entries=None):
    """(values, err): values[j] = exp(t_j Q^T) p0 for each start distribution
    (column) of p0, and err[j] the truncation bound of times[j].  With
    entries, an index such as (rows, cols), values[j] is only the [entries]
    of that.

    With B = I + Q^T/Lam and tau = Lam t, exp(t Q^T) = sum_k c_k T_k(B), c_k
    as in _chebyshev_cut.  Q is self-adjoint in L^2(nu) with spectrum in
    [-2 Lam, 0], so B is self-adjoint in L^2(1/nu) with spectrum in [-1, 1],
    |T_k(B)| <= 1 there, and an entry of T_k(B) p0 is at most sqrt(max nu /
    min nu) for a unit p0: the ``spread`` that scales the Bessel tail.

    The recurrence T_0 = p0, T_1 = B p0, T_{k+1} = 2 B T_k - T_{k-1}, stepped
    by _csr_step, serves every time of the call, and time j adds c_k T_k into
    its own accumulator for k <= K_j.  K_j depends on t_j, tol, Lam and nu
    alone, so a time's value does not depend on the rest of the call.  Sorted
    by K, longest first, the times still summing at step k are a prefix.
    Values are clamped at 0: the true values are probabilities, so the clamp
    can only shrink the error.
    """
    lam = float(lam)
    readout = (lambda v: v) if entries is None else (lambda v: v[entries])
    coefs, err = _chebyshev_cut([lam * t for t in times], tol,
                                math.sqrt(nu.max() / nu.min()))
    order = sorted(range(len(times)), key=lambda j: -len(coefs[j]))
    lengths = np.array([len(coefs[j]) for j in order], dtype=np.intp)
    shape = readout(p0).shape
    # table[k, i]: c_k of the i-th longest time, 0 past its cut
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
            step = _csr_step(b_t, p0)
            prev, cur = cur, step(cur)
        elif k:
            nxt = step(cur)
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        acc[:m] += coef[:m] * readout(cur)
    values = np.empty_like(acc)
    values[order] = acc
    np.maximum(values, 0.0, out=values)
    return values, err


def kernel_rows(g, sources, times, tol=DEFAULT_TOL, domain=None,
                diagonal=False):
    """(rows, err) from one engine call with a unit start column per source.

    rows[k, j, z] = P_{sources[k]}(X_{times[j]} = z), over the whole graph;
    each row rows[k, j] is contiguous.  With ``domain`` the walk is killed
    on first exit from it: rows[k, j, z] = P(X_t = z, exit time > t), from
    the generator restricted to the domain, and 0 off it.  With
    ``diagonal`` the call reads out only rows[k, j] = P_{sources[k]}(X_t =
    sources[k] [, exit > t]), shaped (sources, times), so a batch of
    on-diagonal curves keeps one number per source and time.  err[j] bounds
    the truncation error of time j (see heat_kernel); values are clamped at
    0, which can only shrink the error.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("times must be finite and nonnegative")
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol!r}")
    idx = np.array([g.index(x) for x in sources], dtype=np.intp)
    if domain is None:
        sub, q_sub = np.arange(g.n), rate_matrix(g)
    else:
        sub = np.array(sorted({g.index(v) for v in domain}), dtype=np.intp)
        outside = np.setdiff1d(idx, sub)
        if len(outside):
            raise ValueError(f"origin {g.vertex_ids[outside[0]]!r} not in "
                             "the killed domain")
        q_sub = rate_matrix(g)[np.ix_(sub, sub)].tocsr()
    at, cols = np.searchsorted(sub, idx), np.arange(len(idx))
    p0 = np.zeros((len(sub), len(idx)))
    p0[at, cols] = 1.0
    if len(idx) == 1:
        p0 = p0[:, 0]  # one source steps by sparse matvecs
    values, err = _chebyshev(q_sub, g.rates[sub].max(), g.nu[sub], p0, times,
                             tol, (at, cols)[:p0.ndim] if diagonal else None)
    if diagonal:
        return values.T, err
    rows = np.zeros((len(idx), len(times), g.n))
    rows[..., sub] = values.reshape(len(times), len(sub), len(idx)).transpose(
        2, 0, 1)
    return rows, err


def heat_kernel(g, source, t, tol=DEFAULT_TOL):
    """P_source(X_t = .) on the whole graph; err_bound covers truncation only.

    Parameters
    ----------
    g : WeightedGraph
    source : vertex id
    t : float, finite and >= 0
    tol : float, finite with 0 < tol < 1
        Bound on the truncation error.  err_bound is the certified Bessel
        tail beyond the cut K times sqrt(max nu / min nu), at most tol for
        every t: no tol is too fine for a large Lam*t.  Rounding over the K
        sparse steps, of order Lam*t times the unit roundoff u, is not
        included in err_bound.
    """
    return killed_kernel(g, None, source, t, tol)


def killed_kernel(g, domain, o, t, tol=DEFAULT_TOL):
    """Kernel of the walk killed on first exit from ``domain`` (None: the
    full kernel, as heat_kernel).

    Solves the Dirichlet problem: the generator restricted to the domain with
    absorption outside.  The result vanishes off the domain and is dominated
    by the full kernel pointwise.
    """
    rows, err = kernel_rows(g, [o], [t], tol, domain)
    probs = rows[0, 0]
    probs.flags.writeable = False
    return HeatKernelResult(
        graph=g, source=g.vertex_ids[g.index(o)], time=float(t), probs=probs,
        method="series-uniformization", err_bound=float(err[0]),
        domain=None if domain is None else frozenset(
            g.vertex_ids[g.index(v)] for v in domain))


def kernel_matrix(g, t, tol=DEFAULT_TOL):
    """All-sources kernel matrix M[i, j] = P_i(X_t = j), one identity block."""
    return kernel_rows(g, g.vertex_ids, [t], tol)[0][:, 0]


def on_diagonal_curves(g, xs, times, tol=DEFAULT_TOL):
    """{x: [(t, P_x(X_t = x))]} for each vertex x of xs over the given times,
    from one engine call that reads out only the diagonal."""
    xs, times = list(xs), [float(t) for t in times]
    diags, _ = kernel_rows(g, xs, times, tol, diagonal=True)
    return {x: list(zip(times, d)) for x, d in zip(xs, diags.tolist())}


def on_diagonal_curve(g, x, times, tol=DEFAULT_TOL):
    """[(t, P_x(X_t = x))] over the given times; input to regularity fitting."""
    return on_diagonal_curves(g, [x], times, tol)[x]


# ---------------------------------------------------------------------------
# Monte Carlo

def _path_rng(seed, path_index):
    # documented stream split: SeedSequence((seed, path_index))
    return np.random.default_rng(np.random.SeedSequence((seed, path_index)))


def simulate(g, source, t_max, n_paths, seed, jump_cap=10_000,
             keep_trajectories=False):
    """Simulate paths of the walk and return the empirical distribution at t_max.

    Each vertex holds for an exponential time with rate mu_x/nu_x, then jumps
    to a neighbor with probability mu_xy/mu_x.  A path that reaches
    ``jump_cap`` jumps before t_max is frozen where it is and flagged as
    exploded; on finite graphs the flag is an operational proxy, meaningful
    when the graph is a truncation of an infinite one.

    Deterministic given ``seed``: path i uses the RNG stream
    ``SeedSequence((seed, i))``, so results do not depend on scheduling.
    """
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and nonnegative, "
                         f"got {t_max!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if jump_cap < 1:
        raise ValueError("jump_cap must be at least 1")
    src = g.index(source)
    rates = g.rates
    indptr, indices, data = g.weights.indptr, g.weights.indices, g.weights.data
    # per-vertex cumulative jump law mu_xy / mu_x
    cum = []
    for x in range(g.n):
        w = data[indptr[x]:indptr[x + 1]]
        cum.append(np.cumsum(w) / g.weighted_degree[x] if len(w) else np.zeros(0))

    counts = np.zeros(g.n, dtype=np.int64)
    exploded_paths = 0
    trajectories = []
    for i in range(n_paths):
        rng = _path_rng(seed, i)
        state = src
        t_cur = 0.0
        jumps = 0
        exploded = False
        times = [0.0] if keep_trajectories else None
        states = [src] if keep_trajectories else None
        while True:
            rate = rates[state]
            if rate <= 0.0:
                break
            t_cur += rng.exponential(1.0 / rate)
            if t_cur >= t_max:
                break
            u = rng.random()
            k = int(np.searchsorted(cum[state], u, side="right"))
            k = min(k, len(cum[state]) - 1)
            state = int(indices[indptr[state] + k])
            jumps += 1
            if keep_trajectories:
                times.append(t_cur)
                states.append(state)
            if jumps >= jump_cap:
                exploded = True
                break
        counts[state] += 1
        if exploded:
            exploded_paths += 1
        if keep_trajectories:
            trajectories.append(Trajectory(
                times=tuple(times),
                states=tuple(g.vertex_ids[s] for s in states),
                exploded=exploded))
    counts.flags.writeable = False
    return SimulationResult(graph=g, source=g.vertex_ids[src], t_max=float(t_max),
                            n_paths=n_paths, seed=seed, jump_cap=jump_cap,
                            counts=counts, exploded_paths=exploded_paths,
                            trajectories=tuple(trajectories))


# ---------------------------------------------------------------------------
# point-mass evolutions used by the integral-maximum-principle machinery

def point_mass_values(g, origin_index, probs):
    """u(z) = (nu_o^{1/2}/nu_z) probs[z] for a kernel row from o, or for
    each row of a block of such rows."""
    return probs * (math.sqrt(g.nu[origin_index]) / g.nu)


def weighted_tail_mass(g, u, outside_mask):
    """<u^2, 1 - 1_B> for B given by the complementary mask; for u with one
    row per time, an array of one mass per row.  Each mass sums a
    contiguous run of vertices (compress keeps the vertex axis contiguous,
    where sq[..., mask] would not), so it is the same whatever the other
    rows are."""
    sq = u * u * g.nu
    mass = np.compress(outside_mask, sq, axis=-1).sum(axis=-1)
    return float(mass) if mass.ndim == 0 else mass


class KernelEvolution:
    """u(t, z) = (nu_o^{1/2}/nu_z) P_o(X_t = z [, exit > t]) on a finite graph.

    This is the point-mass-normalized (sub)solution: u(0, z) =
    nu_o^{-1/2} 1_{o}(z), a genuine solution of the heat equation when
    ``domain`` is None and the killed solution otherwise.  Values are cached
    per time; fill() computes a list of times in one engine call.
    """

    def __init__(self, g, origin, domain=None, tol=DEFAULT_TOL):
        self.graph = g
        self.origin = g.vertex_ids[g.index(origin)]
        self.domain = None if domain is None else frozenset(domain)
        self.tol = float(tol)
        self._cache = {}

    def fill(self, times):
        """Cache u(t) and its err_bound for every time not cached yet."""
        times = [float(t) for t in times if float(t) not in self._cache]
        if not times:
            return
        g = self.graph
        rows, err = kernel_rows(g, [self.origin], times, self.tol, self.domain)
        vals = point_mass_values(g, g.index(self.origin), rows[0])
        vals.flags.writeable = False
        self._cache.update(zip(times, zip(vals, err.tolist())))

    def u(self, t):
        t = float(t)
        if t not in self._cache:
            self.fill([t])
        return self._cache[t][0]

    def err_bound(self, t):
        self.u(t)
        return self._cache[float(t)][1]

    def norm_sq(self, t):
        """<u(t,.), u(t,.)>; equals P_o(X_{2t} = o) for the full evolution."""
        vals = self.u(t)
        return float(np.dot(vals * vals, self.graph.nu))

    def tail_mass(self, t, outside_mask):
        """<u(t,.)^2, 1 - 1_B> for B given by the complementary mask."""
        return weighted_tail_mass(self.graph, self.u(t), outside_mask)
