"""Transition probabilities of the walk: exact kernels, killed kernels, Monte Carlo.

The default method is series uniformization: with Lam = max_x mu_x/nu_x and
Pi = I + Q/Lam, the distribution at time t is the Poisson(Lam*t) mixture of
powers of Pi.  Each time sums only the powers k in its Poisson window
[L, K].  Below the Fox-Glynn left point L the weights hold at most
tol * 2^-53, under the rounding of err_bound itself; K is the first right
point at which the window holds 1 - tol.  err_bound is the mass outside the
window, left and right.

Every kernel entry point calls one engine.  Sparse steps v <- Pi^T v on a
block of start vectors (one column per source) make the powers.  When L is
large they do not start from p0 but from an anchor A <= L, a multiple of a
block length fixed by n and nnz(Pi): (Pi^T)^A p0 comes from about 2 log2(A)
dense n x n products (binary powering of Pi^T) and one product with p0.  The
engine jumps when a cost model of n, nnz(Pi) and L says this is cheaper than
A sparse steps; for Lam*t below about 60 (at tol = 1e-10) L is 0 and it
never does.  Times that share an anchor share its power sequence, so a
time's value does not depend on the other times of a call or on the entry
point.  A call may read out only some entries v[rows, cols] of each time's
block (entries=(rows, cols)), so a batch of on-diagonal curves keeps one
number per source and time, not a whole distribution.

An adaptive ODE integration of d/dt p = p Q is kept as a cross-check; it
imports scipy.integrate only when it runs.
Killed kernels solve the Dirichlet problem on a vertex subset (generator
restricted to the subset, absorption outside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import gammaln

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

    def rows(self):
        """CSV-ready rows (source, target, t, prob, method, err_bound)."""
        return [(self.source, v, self.time, float(p), self.method, self.err_bound)
                for v, p in zip(self.graph.vertex_ids, self.probs)]


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


def _poisson_window(lam_t, tol):
    """(w, first, err): the Poisson(lam_t) weights w_first..w_K of a window
    [first, K] that holds at least 1 - tol of the mass, and err, the mass
    outside it: the left mass below the Fox-Glynn point ``first`` plus the
    right tail beyond K."""
    # a left mass under tol * 2^-53 is below the rounding of err itself, so
    # the cut leaves err_bound as it was
    left_budget = math.ldexp(tol, -53)
    guess = int(lam_t + 12.0 * math.sqrt(lam_t + 1.0) + 30.0)
    while True:
        ks = np.arange(guess + 1)
        logw = -lam_t + ks * math.log(lam_t) - gammaln(ks + 1.0)
        w = np.exp(logw)
        csum = np.cumsum(w)
        first = int(np.searchsorted(csum, left_budget, side="right"))
        left = float(csum[first - 1]) if first else 0.0
        if csum[-1] >= 1.0 - tol + left:
            break
        if w[-1] == 0.0:
            # past the mode every further weight underflows too
            raise ValueError(f"tol={tol!r} is below the rounding of the "
                             f"Poisson({lam_t!r}) weights")
        guess *= 2
    last = int(np.searchsorted(csum, 1.0 - tol + left))
    err = max(1.0 - csum[last], 0.0) + left
    return w[first:last + 1], first, err


# cost model of the jump, in multiply-adds: a dense n x n product costs n^3,
# a sparse step nnz(Pi), and either call about _CALL_COST more
_CALL_COST = 2e4
_JUMP_MAX_ENTRIES = 1 << 24  # 128 MB of dense powers of Pi


def _jump_anchor(n, nnz, first):
    """Where the power sequence that serves a window starting at ``first``
    begins: 0 (steps from p0) or a multiple of a block length, reached by
    a dense jump when the cost model says that is cheaper than the steps.

    It depends on n, nnz(Pi) and first alone, so a time is computed the same
    way whatever else is in the call and whichever entry point asks.  The
    costs assume single-threaded BLAS (OPENBLAS_NUM_THREADS=1); with threaded
    BLAS a dense product can be slower, which changes speed, never values.
    """
    dense, step = n ** 3 + _CALL_COST, nnz + _CALL_COST
    # the least power of two >= dense / step: the steps from the anchor up to
    # first cost under two dense products, and the anchor's low bits are 0
    block = 1 << (math.ceil(dense / step) - 1).bit_length()
    anchor = first - first % block
    if anchor == 0 or n * n * anchor.bit_length() > _JUMP_MAX_ENTRIES:
        return 0
    products = anchor.bit_length() + bin(anchor).count("1") - 1
    return anchor if products * dense < anchor * step else 0


def _jump_starts(pi_t, p0, anchors):
    """{a: (Pi^T)^a @ p0} for each anchor a.  (Pi^T)^a is the product of
    the squares (Pi^T)^(2^j) over the set bits j of a, lowest bit first, so it
    is the same matrix in every call, and a unit column of p0 picks out one of
    its columns exactly."""
    squares, starts = [], {}
    for a in anchors:
        if a == 0:
            starts[a] = p0
            continue
        power = None
        for j in range(a.bit_length()):
            if j == len(squares):
                squares.append(squares[-1] @ squares[-1] if squares
                               else pi_t.toarray())
            if a >> j & 1:
                power = squares[j] if power is None else squares[j] @ power
        starts[a] = power @ p0
    return starts


def _checked_times(times, tol):
    """The times as floats, once they and tol are checked."""
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("times must be finite and nonnegative")
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol!r}")
    return times


def _uniformized(q_mat, lam, p0, times, tol, entries=None):
    """[(p_t, err)] for each time: the Poisson(Lam t) mixture of the powers
    of Pi = I + Q/Lam applied to p0, one start distribution per column.
    With entries=(rows, cols) each p_t is only p_t[rows, cols] of the n x
    columns block p0 starts from.

    Each time sums the powers k in its Poisson window [first, K].  They come
    from one power sequence v <- Pi^T v per anchor (see _jump_anchor), shared
    by every time on that anchor; the sequences advance together as the
    column blocks of one matrix.  Every time adds weight times power into its
    own accumulator at every step, with weight 0 outside its window, which
    adds exact zeros.
    """
    times = _checked_times(times, tol)
    lam = float(lam)
    n = q_mat.shape[0]
    readout = (lambda v: v) if entries is None else (lambda v: v[entries])
    out, windows = [], []
    for t in times:
        if t == 0.0 or lam == 0.0:
            out.append((readout(p0).copy(), 0.0))
            continue
        w, first, err = _poisson_window(lam * t, tol)
        windows.append((len(out), w, first))
        out.append((None, err))
    if not windows:
        return out
    pi_t = (sparse.eye(n, format="csr") + q_mat.T * (1.0 / lam)).tocsr()
    anchors = [_jump_anchor(n, pi_t.nnz, first) for _, _, first in windows]
    order = sorted(set(anchors))
    # weights[j, r]: the weight of window r at step j of its sequence, the
    # step that reaches power anchor + j
    opens = [first - a for (_, _, first), a in zip(windows, anchors)]
    weights = np.zeros((max(o + len(w) for o, (_, w, _) in zip(opens, windows)),
                        len(windows)))
    for r, (o, (_, w, _)) in enumerate(zip(opens, windows)):
        weights[o:o + len(w), r] = w
    first_open = min(opens)
    starts = _jump_starts(pi_t, p0, order)
    if len(order) == 1:
        # v[..., None] spreads the one sequence over every window
        v, seq = starts[order[0]], None
    else:
        v = np.stack([starts[a] for a in order], axis=-1)
        seq = [order.index(a) for a in anchors]
    acc = np.zeros(readout(p0).shape + (len(windows),))
    for j in range(len(weights)):
        if j:
            v = (pi_t @ v if seq is None
                 else (pi_t @ v.reshape(n, -1)).reshape(v.shape))
        if j >= first_open:
            acc += readout(v)[..., seq] * weights[j]
    for r, (slot, _, _) in enumerate(windows):
        out[slot] = (np.ascontiguousarray(acc[..., r]), out[slot][1])
    return out


def _ode_kernel(p0, q_mat, t, tol):
    # imported here: it is the slowest scipy import, and only --method ode
    # needs it
    from scipy.integrate import solve_ivp

    qt = q_mat.T.tocsr()
    sol = solve_ivp(lambda _t, y: qt @ y, (0.0, t), p0, method="LSODA",
                    rtol=min(tol, 1e-8), atol=tol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    y = sol.y[:, -1]
    # local error control only; clip solver noise, never real mass
    if y.min() < -100.0 * tol or y.max() > 1.0 + 100.0 * tol:
        raise RuntimeError("ODE solution left the probability simplex")
    return np.clip(y, 0.0, 1.0), tol


def heat_kernel(g, source, t, tol=DEFAULT_TOL, method="uniformization"):
    """P_source(X_t = .) on the whole graph; err_bound covers truncation only.

    Parameters
    ----------
    g : WeightedGraph
    source : vertex id
    t : float, finite and >= 0
    tol : float, finite with 0 < tol < 1
        Bound on the truncation error (uniformization: the Poisson mass
        outside the window [L, K]).  Rounding over the K sparse matvecs, of
        order K times the unit roundoff u, is not included in err_bound;
        nor is that of a dense jump, of order log2(L) n u, which is smaller.
    method : {"uniformization", "ode"}
    """
    src = g.index(source)
    p0 = np.zeros(g.n)
    p0[src] = 1.0
    if method == "uniformization":
        [(probs, err)] = _uniformized(rate_matrix(g), g.rates.max(), p0, [t],
                                      tol)
        tag = "series-uniformization"
    elif method == "ode":
        [t] = _checked_times([t], tol)
        probs, err = _ode_kernel(p0, rate_matrix(g), t, tol)
        tag = "ode"
    else:
        raise ValueError(f"unknown method {method!r}")
    probs.flags.writeable = False
    return HeatKernelResult(graph=g, source=g.vertex_ids[src], time=float(t),
                            probs=probs, method=tag, err_bound=float(err))


def kernel_matrix(g, t, tol=DEFAULT_TOL):
    """All-sources kernel matrix M[i, j] = P_i(X_t = j), one identity block."""
    [(block, _)] = _uniformized(rate_matrix(g), g.rates.max(), np.eye(g.n),
                                [t], tol)
    return np.ascontiguousarray(block.T)


def _dirichlet(g, domain, o, times, tol):
    """[(probs, err)] for each time: P_o(X_t = ., exit time > t) over the
    whole graph for the walk killed on first exit from ``domain`` (None:
    never killed), from the generator restricted to the domain."""
    o_idx = g.index(o)
    if domain is None:
        q_sub, lam, sub = rate_matrix(g), g.rates.max(), np.arange(g.n)
    else:
        sub = np.array(sorted({g.index(v) for v in domain}), dtype=np.intp)
        if o_idx not in sub:
            raise ValueError(f"origin {o!r} not in the killed domain")
        q_sub = rate_matrix(g)[np.ix_(sub, sub)].tocsr()
        lam = g.rates[sub].max()
    p0 = np.zeros(len(sub))
    p0[int(np.searchsorted(sub, o_idx))] = 1.0
    out = []
    for inner, err in _uniformized(q_sub, lam, p0, times, tol):
        probs = np.zeros(g.n)
        probs[sub] = inner
        out.append((probs, float(err)))
    return out


def killed_kernel(g, domain, o, t, tol=DEFAULT_TOL):
    """Kernel of the walk killed on first exit from ``domain``.

    Solves the Dirichlet problem: the generator restricted to the domain with
    absorption outside.  The result vanishes off the domain and is dominated
    by the full kernel pointwise.
    """
    [(probs, err)] = _dirichlet(g, domain, o, [t], tol)
    probs.flags.writeable = False
    return HeatKernelResult(graph=g, source=g.vertex_ids[g.index(o)],
                            time=float(t), probs=probs,
                            method="series-uniformization", err_bound=err,
                            domain=frozenset(g.vertex_ids[g.index(v)]
                                             for v in domain))


def on_diagonal_curves(g, xs, times, tol=DEFAULT_TOL):
    """{x: [(t, P_x(X_t = x))]} for each vertex x of xs over the given times,
    from one engine call with a unit start column per vertex that reads out
    only the diagonal."""
    xs = list(xs)
    idx = np.array([g.index(x) for x in xs], dtype=np.intp)
    times = [float(t) for t in times]
    p0 = np.zeros((g.n, len(xs)))
    cols = np.arange(len(xs))
    p0[idx, cols] = 1.0
    diags = _uniformized(rate_matrix(g), g.rates.max(), p0, times, tol,
                         entries=(idx, cols))
    return {x: [(t, float(d[k])) for t, (d, _) in zip(times, diags)]
            for k, x in enumerate(xs)}


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
    """u(z) = (nu_o^{1/2}/nu_z) probs[z] for a kernel row from o."""
    return probs * (math.sqrt(g.nu[origin_index]) / g.nu)


def weighted_tail_mass(g, u, outside_mask):
    """<u^2, 1 - 1_B> for B given by the complementary mask."""
    sq = u * u * g.nu
    return float(sq[outside_mask].sum())


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
        runs = _dirichlet(g, self.domain, self.origin, times, self.tol)
        for t, (probs, err) in zip(times, runs):
            vals = point_mass_values(g, g.index(self.origin), probs)
            vals.flags.writeable = False
            self._cache[t] = (vals, err)

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
