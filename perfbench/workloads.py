"""Seeded inputs and the operations of each benchmark workload.

Every workload builds its graph from ``--seed`` alone and writes it as a
graph file; the program only ever sees that file and the CLI arguments.  An
operation is a fixed list of ``heatbound`` CLI invocations, identical in every
round of a run, so the work per operation does not depend on the seed: the
graph sizes and edge counts are fixed, CSRW graphs have unit holding rates,
and the stiff grid is scaled by the graph's largest rate ``Lam``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

KERNEL_TOL = 1e-10  # the CLI's default --tol, used by every command here


@dataclass(frozen=True)
class Graph:
    """A weighted graph as plain floats, shared by the input file and the oracle."""

    nu: tuple
    edges: tuple  # (i, j) index pairs, i < j
    mu: tuple

    @property
    def n(self):
        return len(self.nu)

    def rates(self):
        deg = [0.0] * self.n
        for (i, j), w in zip(self.edges, self.mu):
            deg[i] += w
            deg[j] += w
        return [d / v for d, v in zip(deg, self.nu)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, v in enumerate(self.nu):
                fh.write(f"v {i} {v!r}\n")
            for (i, j), w in zip(self.edges, self.mu):
                fh.write(f"e {i} {j} {w!r}\n")


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))


def _finish(n, edges, mu, nu, csrw):
    edges = tuple(sorted(edges))
    mu = tuple(float(w) for w in mu)
    if csrw:
        # multiples of 2^-20: every weighted degree is then exact in float64,
        # in any summation order, so nu equals the program's weighted degree
        # bit for bit, every holding rate is exactly 1 and d_nu is the hop
        # count
        mu = tuple(round(w * 2.0 ** 20) / 2.0 ** 20 for w in mu)
        deg = [[] for _ in range(n)]
        for (i, j), w in zip(edges, mu):
            deg[i].append(w)
            deg[j].append(w)
        nu = [math.fsum(ws) for ws in deg]
    return Graph(nu=tuple(float(v) for v in nu), edges=edges, mu=mu)


def random_graph(n, rng, csrw, lo=1e-3, hi=1e3):
    """Uniform random tree plus n // 2 extra distinct edges; nu and mu
    log-uniform on [lo, hi].  With ``csrw`` nu is the weighted degree, so
    every holding rate is 1."""
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    while len(edges) < (n - 1) + n // 2:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    mu = _log_uniform(rng, lo, hi, len(edges))
    nu = _log_uniform(rng, lo, hi, n)
    return _finish(n, edges, mu, nu, csrw)


def weighted_path(n, rng, lo=1e-3, hi=1e3):
    """CSRW path 0 - 1 - ... - n-1 with log-uniform edge weights."""
    edges = [(i, i + 1) for i in range(n - 1)]
    return _finish(n, edges, _log_uniform(rng, lo, hi, n - 1), None, True)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` without ``--out``, and the checker's name."""

    label: str
    check: str
    argv: tuple

    def grid(self):
        """The time grid the CLI builds from this command's arguments."""
        args = dict(zip(self.argv[1::2], self.argv[2::2]))
        tmin, tmax = float(args["--tmin"]), float(args["--tmax"])
        count = int(args["--tcount"])
        if args["--tscale"] == "log":
            return np.geomspace(tmin, tmax, count)
        return np.linspace(tmin, tmax, count)

    def arg(self, name):
        return self.argv[self.argv.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    graph: Graph
    commands: tuple


def _grid_args(tmin, tmax, count, scale):
    return ("--tmin", repr(float(tmin)), "--tmax", repr(float(tmax)),
            "--tcount", str(count), "--tscale", scale)


def _sweep(seed):
    g = random_graph(30, np.random.default_rng(seed), csrw=True)
    cmd = Command("thm1.1", "thm1.1-paper",
                  ("bounds", "--formula", "thm1.1", "--constants", "paper")
                  + _grid_args(1.0, 20.0, 25, "log"))
    return g, (cmd,)


def _empirical(seed):
    g = weighted_path(12, np.random.default_rng(seed))
    cmd = Command("thm1.1-empirical", "thm1.1-empirical",
                  ("bounds", "--formula", "thm1.1", "--constants", "empirical")
                  + _grid_args(1.0, 20.0, 5, "log"))
    return g, (cmd,)


def _stiff(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(50, rng, csrw=False)
    lam = max(g.rates())
    sources = sorted(int(s) for s in rng.choice(g.n, size=3, replace=False))
    cmds = tuple(
        Command(f"kernel-{s}", "kernel",
                ("kernel", "--source", str(s))
                + _grid_args(1e2 / lam, 1e5 / lam, 4, "log"))
        for s in sources)
    return g, cmds


def _evolution(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(40, rng, csrw=True)
    origin = str(int(rng.integers(0, g.n)))
    imp_grid = _grid_args(0.1, 10.0, 101, "linear")
    cmds = (
        Command("imp-drift", "imp",
                ("imp", "--family", "drift", "--source", origin, "--R", "3",
                 "--a", "0.25") + imp_grid),
        Command("imp-gaussian", "imp",
                ("imp", "--family", "gaussian", "--source", origin, "--R", "3",
                 "--bigd", "5") + imp_grid),
        Command("prop2.6", "prop2.6",
                ("bounds", "--formula", "prop2.6")
                + _grid_args(0.5, 20.0, 25, "log")),
    )
    return g, cmds


# why each workload is in the benchmark: README.md, "Workloads"
WORKLOADS = {"sweep": _sweep, "empirical": _empirical, "stiff": _stiff,
             "evolution": _evolution}


def build(name, seed, directory):
    """Generate the workload's inputs for ``seed`` and write its graph file."""
    g, commands = WORKLOADS[name](seed)
    path = os.path.join(directory, "graph.txt")
    g.write(path)
    commands = tuple(
        Command(c.label, c.check, (c.argv[0], "--graph", path) + c.argv[1:])
        for c in commands)
    return Workload(graph=g, commands=commands)
