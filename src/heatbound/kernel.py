"""Transition probabilities of the walk: exact kernels, killed kernels, Monte Carlo.

The default method is series uniformization: with Lam = max_x mu_x/nu_x and
Pi = I + Q/Lam, the distribution at time t is the Poisson(Lam*t) mixture of
powers of Pi, truncated with an explicit Poisson-tail bound.  Every kernel
entry point calls one engine, in which a single power sequence v <- Pi^T v
on a block of start vectors (one column per source) serves every requested
time and every source.  An adaptive ODE integration of d/dt p = p Q is kept
as a cross-check.  Killed kernels solve the Dirichlet problem on a vertex
subset (generator restricted to the subset, absorption outside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
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


def _poisson_weights(lam_t, tol):
    """Poisson weights w_0..w_K with sum >= 1 - tol, plus the tail mass."""
    guess = int(lam_t + 12.0 * math.sqrt(lam_t + 1.0) + 30.0)
    while True:
        ks = np.arange(guess + 1)
        logw = -lam_t + ks * math.log(lam_t) - gammaln(ks + 1.0)
        w = np.exp(logw)
        csum = np.cumsum(w)
        if csum[-1] >= 1.0 - tol:
            break
        if w[-1] == 0.0:
            # past the mode every further weight underflows too
            raise ValueError(f"tol={tol!r} is below the rounding of the "
                             f"Poisson({lam_t!r}) weights")
        guess *= 2
    k_used = int(np.searchsorted(csum, 1.0 - tol))
    tail = max(1.0 - csum[k_used], 0.0)
    return w[:k_used + 1], tail


def _checked_times(times, tol):
    """The times as floats, once they and tol are checked."""
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("times must be finite and nonnegative")
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol!r}")
    return times


def _uniformized(q_mat, lam, p0, times, tol):
    """[(p_t, tail)] for each time: the Poisson(Lam t) mixture of the powers
    of Pi = I + Q/Lam applied to p0, one start distribution per column.

    One power sequence v <- Pi^T v runs up to the largest truncation point;
    each time adds its own weights into its own accumulator.
    """
    times = _checked_times(times, tol)
    lam = float(lam)
    out, runs = [], []
    for t in times:
        if t == 0.0 or lam == 0.0:
            out.append((p0.copy(), 0.0))
            continue
        w, tail = _poisson_weights(lam * t, tol)
        acc = w[0] * p0
        out.append((acc, tail))
        runs.append((acc, w))
    if runs:
        pi_t = (sparse.eye(q_mat.shape[0], format="csr")
                + q_mat.T * (1.0 / lam)).tocsr()
        v = p0
        for k in range(1, max(len(w) for _, w in runs)):
            v = pi_t @ v
            for acc, w in runs:
                if k < len(w):
                    acc += w[k] * v
    return out


def _ode_kernel(p0, q_mat, t, tol):
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
        Bound on the truncation error (uniformization: exact Poisson tail).
        Rounding over the K sparse matvecs, of order K times the unit
        roundoff, is not included in err_bound.
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


def killed_kernel(g, domain, o, t, tol=DEFAULT_TOL):
    """Kernel of the walk killed on first exit from ``domain``.

    Solves the Dirichlet problem: the generator restricted to the domain with
    absorption outside.  The result vanishes off the domain and is dominated
    by the full kernel pointwise.
    """
    idx = sorted({g.index(v) for v in domain})
    o_idx = g.index(o)
    if o_idx not in idx:
        raise ValueError(f"origin {o!r} not in the killed domain")
    sub = np.array(idx, dtype=np.intp)
    p0 = np.zeros(len(sub))
    p0[int(np.searchsorted(sub, o_idx))] = 1.0
    [(inner, err)] = _uniformized(rate_matrix(g)[np.ix_(sub, sub)].tocsr(),
                                  g.rates[sub].max(), p0, [t], tol)
    probs = np.zeros(g.n)
    probs[sub] = inner
    probs.flags.writeable = False
    return HeatKernelResult(graph=g, source=g.vertex_ids[o_idx], time=float(t),
                            probs=probs, method="series-uniformization",
                            err_bound=float(err),
                            domain=frozenset(g.vertex_ids[i] for i in idx))


def on_diagonal_curve(g, x, times, tol=DEFAULT_TOL):
    """[(t, P_x(X_t = x))] over the given times; input to regularity fitting."""
    xi = g.index(x)
    times = [float(t) for t in times]
    p0 = np.zeros(g.n)
    p0[xi] = 1.0
    dists = _uniformized(rate_matrix(g), g.rates.max(), p0, times, tol)
    return [(t, float(p[xi])) for t, (p, _) in zip(times, dists)]


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
    per time.
    """

    def __init__(self, g, origin, domain=None, tol=DEFAULT_TOL):
        self.graph = g
        self.origin = g.vertex_ids[g.index(origin)]
        self.domain = None if domain is None else frozenset(domain)
        self.tol = float(tol)
        self._cache = {}

    def u(self, t):
        t = float(t)
        if t not in self._cache:
            g = self.graph
            if self.domain is None:
                res = heat_kernel(g, self.origin, t, tol=self.tol)
            else:
                res = killed_kernel(g, self.domain, self.origin, t,
                                    tol=self.tol)
            vals = point_mass_values(g, g.index(self.origin), res.probs)
            vals.flags.writeable = False
            self._cache[t] = (vals, res.err_bound)
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
