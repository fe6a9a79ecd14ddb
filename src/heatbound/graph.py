"""Weighted-graph data model: vertex measure, symmetric edge weights, generator.

The walk lives on a connected, locally finite graph with a positive vertex
measure ``nu`` and symmetric positive edge weights ``mu``.  Everything else in
the package (metrics, kernels, bound checks) works on top of this model.
Vertices are opaque string ids mapped to dense integer indices at load time;
all numerics run on the dense index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


class GraphFormatError(ValueError):
    """Raised when a graph source fails to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class WeightedGraph:
    """Finite connected graph with vertex measure nu and edge weights mu.

    Parameters
    ----------
    vertex_ids : sequence of str
        Distinct opaque vertex identifiers.
    nu : array-like of float
        Positive vertex measure, aligned with ``vertex_ids``.
    edges : sequence of (id, id) pairs
        Each undirected edge exactly once; no self-loops.
    mu : array-like of float
        Positive symmetric edge weights, aligned with ``edges``.

    The instance is immutable after construction and safe to share across
    threads.
    """

    def __init__(self, vertex_ids, nu, edges, mu):
        ids = [str(v) for v in vertex_ids]
        if not ids:
            raise GraphFormatError("graph has no vertices")
        if len(set(ids)) != len(ids):
            raise GraphFormatError("duplicate vertex id")
        self.vertex_ids = tuple(ids)
        self._index = {v: i for i, v in enumerate(ids)}
        n = len(ids)

        nu = np.asarray(nu, dtype=float)
        if nu.shape != (n,):
            raise GraphFormatError("nu must provide one value per vertex")
        if not np.all((nu > 0) & np.isfinite(nu)):
            raise GraphFormatError("vertex measure nu must be positive and finite")

        mu = np.asarray(mu, dtype=float)
        pairs = []
        seen = set()
        for k, (a, b) in enumerate(edges):
            ia, ib = self._lookup(a), self._lookup(b)
            if ia == ib:
                raise GraphFormatError(f"self-loop at vertex {a!r}")
            key = (min(ia, ib), max(ia, ib))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {a!r} -- {b!r}")
            seen.add(key)
            pairs.append(key)
        if mu.shape != (len(pairs),):
            raise GraphFormatError("mu must provide one weight per edge")
        if len(pairs) and not np.all((mu > 0) & np.isfinite(mu)):
            raise GraphFormatError("edge weights mu must be positive and finite")

        self.edge_index = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
        self.edge_mu = mu.copy()
        self.nu = nu.copy()

        self.weights = edge_matrix(self, self.edge_mu)

        ncomp, _ = csgraph.connected_components(self.weights, directed=False)
        if n > 1 and ncomp != 1:
            raise GraphFormatError(f"graph is disconnected ({ncomp} components)")

        # mu_x = sum_y mu_xy; holding rate mu_x / nu_x
        self.weighted_degree = np.asarray(self.weights.sum(axis=1)).ravel()
        self.rates = self.weighted_degree / self.nu

        for arr in (self.nu, self.edge_mu, self.edge_index,
                    self.weighted_degree, self.rates):
            arr.flags.writeable = False

    def _lookup(self, vertex_id):
        try:
            return self._index[str(vertex_id)]
        except KeyError:
            raise GraphFormatError(f"unknown vertex id {vertex_id!r}") from None

    @property
    def n(self):
        return len(self.vertex_ids)

    @property
    def n_edges(self):
        return self.edge_index.shape[0]

    def index(self, vertex_id):
        """Dense index of a vertex id."""
        return self._lookup(vertex_id)

    def neighbors(self, i):
        """Indices adjacent to dense index ``i``."""
        return self.weights.indices[self.weights.indptr[i]:self.weights.indptr[i + 1]]

    def edge_ids(self):
        """Edges as (id_a, id_b) pairs, in storage order."""
        return [(self.vertex_ids[i], self.vertex_ids[j]) for i, j in self.edge_index]

    def rescaled(self, c):
        """The graph with (mu, nu) replaced by (c*mu, c*nu), c > 0.

        Transition probabilities are invariant under this transformation.
        """
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return WeightedGraph(self.vertex_ids, c * self.nu,
                             self.edge_ids(), c * self.edge_mu)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={self.n_edges})"


@dataclass(frozen=True)
class VertexFunction:
    """Real-valued function on the vertices of a fixed graph."""

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n,):
            raise ValueError("values must provide one entry per vertex")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, graph, mapping):
        vals = np.empty(graph.n)
        vals.fill(np.nan)
        for vid, val in mapping.items():
            vals[graph.index(vid)] = float(val)
        if np.any(np.isnan(vals)):
            missing = [graph.vertex_ids[i] for i in np.flatnonzero(np.isnan(vals))]
            raise ValueError(f"function not defined on vertices {missing}")
        return cls(graph, vals)

    @classmethod
    def constant(cls, graph, value):
        return cls(graph, np.full(graph.n, float(value)))

    def __getitem__(self, vertex_id):
        return self.values[self.graph.index(vertex_id)]

    def as_dict(self):
        return {v: float(x) for v, x in zip(self.graph.vertex_ids, self.values)}


def _require_bound(g, f):
    if not isinstance(f, VertexFunction):
        raise TypeError("expected a VertexFunction")
    if f.graph is not g:
        raise ValueError("vertex function is not bound to this graph")
    return f.values


def edge_matrix(g, values):
    """Symmetric n x n CSR matrix holding values[k] at (i, j) and (j, i) for
    the k-th edge (i, j) of ``g.edge_index``."""
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    return sparse.csr_matrix((np.concatenate([values, values]),
                              (np.concatenate([i, j]), np.concatenate([j, i]))),
                             shape=(g.n, g.n))


def rate_matrix(g):
    """Q with Q_xy = mu_xy/nu_x off the diagonal and vanishing row sums."""
    inv_nu = sparse.diags(1.0 / g.nu)
    off = inv_nu @ g.weights
    return (off - sparse.diags(g.rates)).tocsr()


def apply_generator(g, f):
    """Apply the walk generator: (Lf)(x) = (1/nu_x) sum_y (f(y)-f(x)) mu_xy,
    that is Q f with Q = rate_matrix(g).

    The result at x depends only on f at x and its neighbors.
    """
    return VertexFunction(g, rate_matrix(g) @ _require_bound(g, f))


def inner_product(g, f1, f2):
    """nu-weighted inner product <f,g> = sum_x f(x) g(x) nu_x."""
    v1 = _require_bound(g, f1)
    v2 = _require_bound(g, f2)
    return float(np.dot(v1 * v2, g.nu))


def vertex_rates(g):
    """Per-vertex (mu_x, rate) with mu_x = sum_y mu_xy and rate = mu_x / nu_x.

    The rate is the exponential holding-time parameter of the walk at x; with
    the CSRW normalization nu_x = mu_x the rate is identically 1.
    """
    return {v: (float(g.weighted_degree[i]), float(g.rates[i]))
            for i, v in enumerate(g.vertex_ids)}


def csrw_normalized(g):
    """Copy of the graph with nu_x := mu_x (constant speed random walk)."""
    return WeightedGraph(g.vertex_ids, g.weighted_degree, g.edge_ids(), g.edge_mu)


# ---------------------------------------------------------------------------
# loading

def load_graph(source):
    """Parse a graph from line-oriented text or a structured object.

    Text format: lines ``v <id> <nu>`` then ``e <id1> <id2> <mu>``, ``#``
    comments, whitespace separated, each undirected edge exactly once.
    Object format: ``{"vertices": [{"id", "nu"}], "edges": [{"a", "b", "mu"}]}``.
    A JSON string in the object format is also accepted.
    """
    if isinstance(source, dict):
        return _load_object(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON graph: {exc}") from exc
        return _load_object(obj)
    return _load_text(text)


def load_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def _parse_positive(token, what, line):
    try:
        value = float(token)
    except ValueError:
        raise GraphFormatError(f"bad {what} value {token!r}", line=line) from None
    if not value > 0 or not math.isfinite(value):
        raise GraphFormatError(f"{what} must be strictly positive, got {token!r}",
                               line=line)
    return value


def _load_text(text):
    vertex_ids, nu = [], []
    edges, mu = [], []
    seen_vertices = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) != 3:
                raise GraphFormatError("expected 'v <id> <nu>'", line=lineno)
            vid = parts[1]
            if vid in seen_vertices:
                raise GraphFormatError(f"duplicate vertex id {vid!r}", line=lineno)
            seen_vertices.add(vid)
            vertex_ids.append(vid)
            nu.append(_parse_positive(parts[2], "nu", lineno))
        elif tag == "e":
            if len(parts) != 4:
                raise GraphFormatError("expected 'e <id1> <id2> <mu>'", line=lineno)
            edges.append((parts[1], parts[2]))
            mu.append(_parse_positive(parts[3], "mu", lineno))
        else:
            raise GraphFormatError(f"unknown record tag {tag!r}", line=lineno)
    return WeightedGraph(vertex_ids, nu, edges, mu)


def _load_object(obj):
    try:
        vertices = obj["vertices"]
        edge_objs = obj.get("edges", [])
        vertex_ids = [v["id"] for v in vertices]
        nu = [float(v["nu"]) for v in vertices]
        edges = [(e["a"], e["b"]) for e in edge_objs]
        mu = [float(e["mu"]) for e in edge_objs]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"malformed graph object: {exc}") from exc
    return WeightedGraph(vertex_ids, nu, edges, mu)


# ---------------------------------------------------------------------------
# constructions used by the CLI examples and the test suite

def path_graph(n, nu=1.0, mu=1.0):
    """Path on n vertices '0'..'n-1' with constant nu and mu."""
    ids = [str(i) for i in range(n)]
    edges = [(str(i), str(i + 1)) for i in range(n - 1)]
    return WeightedGraph(ids, np.full(n, float(nu)), edges,
                         np.full(n - 1, float(mu)))


def complete_graph(n, nu=1.0, mu=1.0):
    """Complete graph on n vertices with constant nu and mu."""
    ids = [str(i) for i in range(n)]
    edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph(ids, np.full(n, float(nu)), edges,
                         np.full(len(edges), float(mu)))


def star_graph(n_leaves, nu=1.0, mu=1.0):
    """Star with center 'c' and n_leaves leaves."""
    ids = ["c"] + [str(i) for i in range(n_leaves)]
    edges = [("c", str(i)) for i in range(n_leaves)]
    return WeightedGraph(ids, np.full(n_leaves + 1, float(nu)), edges,
                         np.full(n_leaves, float(mu)))


def random_connected_graph(n, seed, extra_edges=None, nu_range=(1e-3, 1e3),
                           mu_range=(1e-3, 1e3), csrw=False):
    """Random connected graph: a uniform random tree plus extra random edges.

    nu and mu are drawn log-uniformly from the given ranges.  With
    ``csrw=True`` the vertex measure is replaced by the weighted degree, which
    normalizes all holding rates to 1.
    """
    rng = np.random.default_rng(seed)
    ids = [str(i) for i in range(n)]
    edges = set()
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.add((parent, i))
    if extra_edges is None:
        extra_edges = n // 2
    attempts = 0
    while len(edges) < (n - 1) + extra_edges and attempts < 50 * (extra_edges + 1):
        a, b = rng.integers(0, n, size=2)
        a, b = int(a), int(b)
        attempts += 1
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    edge_list = sorted(edges)
    lo, hi = np.log(nu_range[0]), np.log(nu_range[1])
    nu = np.exp(rng.uniform(lo, hi, size=n))
    lo, hi = np.log(mu_range[0]), np.log(mu_range[1])
    mu = np.exp(rng.uniform(lo, hi, size=len(edge_list)))
    g = WeightedGraph(ids, nu, [(str(a), str(b)) for a, b in edge_list], mu)
    if csrw:
        g = csrw_normalized(g)
    return g
