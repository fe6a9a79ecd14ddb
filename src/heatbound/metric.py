"""Adapted metrics: construction, shortest paths, and the compliance gate.

A metric d on the graph is *adapted* when every edge has d(x,y) <= 1 and
every vertex satisfies (1/nu_x) * sum_y d(x,y)^2 mu_xy <= 1, the sum running
over neighbors.  The default construction caps each edge length at
min{1, sqrt(nu_x/mu_x), sqrt(nu_y/mu_y)} and takes shortest paths, which
satisfies both constraints by design; users may supply custom lengths, in
which case :func:`verify_adapted` is the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .graph import GraphFormatError, WeightedGraph, edge_matrix

#: additive tolerance for the compliance checks; the default construction is
#: exact algebra, so this only absorbs rounding.
CHECK_TOL = 1e-12


@dataclass(frozen=True)
class MetricCertificate:
    """Per-vertex constraint values and the edge-length cap check."""

    vertex_constraint: np.ndarray  # (1/nu_x) sum_y dist(x,y)^2 mu_xy
    max_edge_dist: float

    @property
    def vertex_slacks(self):
        return 1.0 - self.vertex_constraint

    @property
    def passed(self):
        return bool(np.all(self.vertex_constraint <= 1.0 + CHECK_TOL)
                    and self.max_edge_dist <= 1.0 + CHECK_TOL)


@dataclass(frozen=True)
class AdaptedMetric:
    """Edge lengths, all-pairs shortest-path distances, compliance certificate."""

    graph: WeightedGraph
    edge_length: np.ndarray
    dist: np.ndarray
    certificate: MetricCertificate = field(repr=False)

    def d(self, a, b):
        """Distance between two vertex ids."""
        return float(self.dist[self.graph.index(a), self.graph.index(b)])

    def ball(self, o, R):
        """Boolean mask of B_R = {z : d(o, z) < R}."""
        return self.dist[self.graph.index(o)] < R

    @property
    def diameter(self):
        return float(self.dist.max())


def default_edge_lengths(g):
    """Per-edge lengths sigma(x,y) = min{1, sqrt(nu_x/mu_x), sqrt(nu_y/mu_y)}.

    For every vertex, (1/nu_x) sum_y sigma(x,y)^2 mu_xy <= (1/nu_x) sum_y
    (nu_x/mu_x) mu_xy = 1, so the induced path metric is adapted.  Under the
    CSRW normalization (nu_x = mu_x) all lengths equal 1 and the metric is
    the graph distance.  Invariant under (mu, nu) -> (c mu, c nu).
    """
    if not g.n_edges:
        return np.zeros(0)
    cap = np.sqrt(g.nu / g.weighted_degree)
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    return np.minimum(1.0, np.minimum(cap[i], cap[j]))


def shortest_path_metric(g, lengths=None):
    """Shortest-path metric for the given positive edge lengths.

    Defaults to :func:`default_edge_lengths`.  The returned metric carries a
    populated certificate; a custom-length construction that violates the
    adapted condition is flagged there rather than rejected.
    """
    if lengths is None:
        lengths = default_edge_lengths(g)
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (g.n_edges,):
        raise ValueError("need one length per edge")
    if g.n_edges and not np.all((lengths > 0) & np.isfinite(lengths)):
        raise ValueError("edge lengths must be strictly positive and finite")

    dist = csgraph.dijkstra(edge_matrix(g, lengths), directed=False)
    dist.flags.writeable = False
    lengths = lengths.copy()
    lengths.flags.writeable = False

    cert = _certificate(g, dist)
    return AdaptedMetric(graph=g, edge_length=lengths, dist=dist, certificate=cert)


def _certificate(g, dist):
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    edge_dist = dist[i, j] if g.n_edges else np.zeros(0)
    quad = np.zeros(g.n)
    np.add.at(quad, i, edge_dist ** 2 * g.edge_mu)
    np.add.at(quad, j, edge_dist ** 2 * g.edge_mu)
    quad /= g.nu
    quad.flags.writeable = False
    max_edge = float(edge_dist.max()) if g.n_edges else 0.0
    return MetricCertificate(vertex_constraint=quad, max_edge_dist=max_edge)


def verify_adapted(g, metric):
    """Re-check the adapted-metric condition against the actual distances.

    Returns a structured report {vertex_slacks, max_edge_dist, pass}; failure
    is a report outcome, not an error.
    """
    cert = _certificate(g, metric.dist)
    return {
        "vertex_slacks": {v: float(s) for v, s in zip(g.vertex_ids,
                                                      cert.vertex_slacks)},
        "max_edge_dist": cert.max_edge_dist,
        "pass": cert.passed,
    }


def load_edge_lengths(g, text):
    """Parse a metric override file: lines ``l <id1> <id2> <length>``.

    Edges not mentioned keep their default length.
    """
    lengths = default_edge_lengths(g).copy()
    pos = {(min(i, j), max(i, j)): k for k, (i, j) in enumerate(g.edge_index)}
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "l" or len(parts) != 4:
            raise GraphFormatError("expected 'l <id1> <id2> <length>'", line=lineno)
        a, b = g.index(parts[1]), g.index(parts[2])
        key = (min(a, b), max(a, b))
        if key not in pos:
            raise GraphFormatError(f"no edge {parts[1]!r} -- {parts[2]!r}",
                                   line=lineno)
        try:
            val = float(parts[3])
        except ValueError:
            raise GraphFormatError(f"bad length {parts[3]!r}", line=lineno) from None
        if not (val > 0 and np.isfinite(val)):
            raise GraphFormatError("length must be strictly positive and finite",
                                   line=lineno)
        lengths[pos[key]] = val
    return lengths
