import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatbound as hb
from heatbound.graph import GraphFormatError

from conftest import random_suite


def bfs_adjacency(g):
    """Traversal oracle: adjacency and connectivity straight from edge list."""
    adj = {v: set() for v in g.vertex_ids}
    for a, b in g.edge_ids():
        adj[a].add(b)
        adj[b].add(a)
    seen = {g.vertex_ids[0]}
    stack = [g.vertex_ids[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return adj, seen


class TestLoadGraph:
    def test_two_vertex(self, two_state):
        assert two_state.n == 2
        assert two_state.n_edges == 1
        assert hb.vertex_rates(two_state)["a"] == (1.0, 1.0)

    def test_duplicate_edge_either_order(self):
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            hb.load_graph("v a 1\nv b 1\ne a b 1\ne b a 2\n")

    def test_p3_degree_sequence(self):
        g = hb.load_graph("v x 1\nv y 2\nv z 1\ne x y 1\ne y z 1\n")
        adj, seen = bfs_adjacency(g)
        assert sorted(len(adj[v]) for v in g.vertex_ids) == [1, 1, 2]
        assert len(adj["y"]) == 2
        assert seen == set(g.vertex_ids)
        assert g.nu[g.index("y")] == 2.0

    def test_comments_and_blank_lines(self):
        g = hb.load_graph("# header\nv a 1\n\nv b 2  # trailing\ne a b 0.5\n")
        assert g.n == 2 and g.edge_mu[0] == 0.5

    def test_object_format(self):
        obj = {"vertices": [{"id": "a", "nu": 1}, {"id": "b", "nu": 2}],
               "edges": [{"a": "a", "b": "b", "mu": 3}]}
        g1 = hb.load_graph(obj)
        g2 = hb.load_graph(json.dumps(obj))
        assert g1.edge_ids() == g2.edge_ids() == [("a", "b")]
        assert g1.nu[1] == 2.0 and g1.edge_mu[0] == 3.0

    @pytest.mark.parametrize("text,msg", [
        ("v a 1\nv b 1\ne a b 0\n", "positive"),
        ("v a -1\nv b 1\ne a b 1\n", "positive"),
        ("v a 1\ne a a 1\n", "self-loop"),
        ("v a 1\nv b 1\nv c 1\ne a b 1\n", "disconnected"),
        ("v a 1\nv a 1\n", "duplicate vertex"),
        ("v a 1\nv b 1\ne a q 1\n", "unknown vertex"),
        ("w a 1\n", "unknown record"),
        ("v a 1 extra\n", "expected"),
        ("v a inf\nv b 1\ne a b 1\n", "line 1: nu must be strictly positive"),
        ("v a 1\nv b nan\ne a b 1\n",
         "line 2: nu must be strictly positive, got 'nan'"),
        ("v a 1\nv b 1\ne a b inf\n",
         "line 3: mu must be strictly positive, got 'inf'"),
        ("v a 1\nv b 1\ne a b NaN\n",
         "line 3: mu must be strictly positive, got 'NaN'"),
    ])
    def test_format_errors(self, text, msg):
        with pytest.raises(GraphFormatError, match=msg):
            hb.load_graph(text)

    @pytest.mark.parametrize("nu,mu", [([np.inf, 1.0], [1.0]),
                                       ([1.0, 1.0], [np.inf])])
    def test_non_finite_weights_rejected(self, nu, mu):
        with pytest.raises(GraphFormatError, match="finite"):
            hb.WeightedGraph(["a", "b"], nu, [("a", "b")], mu)
        obj = {"vertices": [{"id": "a", "nu": nu[0]}, {"id": "b", "nu": nu[1]}],
               "edges": [{"a": "a", "b": "b", "mu": mu[0]}]}
        with pytest.raises(GraphFormatError, match="finite"):
            hb.load_graph(json.dumps(obj))

    def test_error_carries_line_number(self):
        try:
            hb.load_graph("v a 1\nv b 1\ne a b nope\n")
        except GraphFormatError as exc:
            assert "line 3" in str(exc)
        else:
            pytest.fail("expected a parse error")


class TestGenerator:
    def test_constant_is_harmonic(self, p3):
        f = hb.VertexFunction.constant(p3, 3.7)
        out = hb.apply_generator(p3, f)
        assert np.allclose(out.values, 0.0)

    def test_two_vertex_direct(self, two_state):
        f = hb.VertexFunction.from_dict(two_state, {"a": 1.0, "b": 0.0})
        out = hb.apply_generator(two_state, f)
        assert out.as_dict() == {"a": -1.0, "b": 1.0}

    def test_p3_hand_evaluation(self, p3):
        f = hb.VertexFunction(p3, [0.0, 1.0, 0.0])
        out = hb.apply_generator(p3, f)
        assert np.allclose(out.values, [1.0, -2.0, 1.0])

    def test_unbound_function_rejected(self, p3, two_state):
        f = hb.VertexFunction.constant(two_state, 1.0)
        with pytest.raises(ValueError, match="not bound"):
            hb.apply_generator(p3, f)

    def test_locality(self, p5_csrw):
        # result at an endpoint only sees the endpoint and its neighbor
        g = p5_csrw
        f1 = hb.VertexFunction(g, [1.0, 2.0, 0.0, 0.0, 0.0])
        f2 = hb.VertexFunction(g, [1.0, 2.0, 9.0, -3.0, 4.0])
        o1 = hb.apply_generator(g, f1)
        o2 = hb.apply_generator(g, f2)
        assert o1.values[0] == o2.values[0]


class TestInnerProduct:
    def test_zero(self, p3):
        f = hb.VertexFunction(p3, [1.0, -2.0, 5.0])
        z = hb.VertexFunction.constant(p3, 0.0)
        assert hb.inner_product(p3, f, z) == 0.0

    def test_direct_sum(self):
        g = hb.load_graph("v a 2\nv b 3\ne a b 1\n")
        one = hb.VertexFunction.constant(g, 1.0)
        assert hb.inner_product(g, one, one) == 5.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_random(self, seed):
        g = hb.path_graph(3)
        rng = np.random.default_rng(seed)
        f1 = hb.VertexFunction(g, rng.normal(size=3))
        f2 = hb.VertexFunction(g, rng.normal(size=3))
        assert hb.inner_product(g, f1, f2) == pytest.approx(
            hb.inner_product(g, f2, f1), rel=1e-13, abs=1e-13)


class TestRates:
    def test_csrw_unit_rates(self):
        for g in random_suite(5, 12, seed0=77, csrw=True):
            _, rates = zip(*hb.vertex_rates(g).values())
            assert np.allclose(rates, 1.0, rtol=1e-12)

    def test_two_vertex_mu3(self):
        g = hb.load_graph("v a 1\nv b 1\ne a b 3\n")
        assert hb.vertex_rates(g) == {"a": (3.0, 3.0), "b": (3.0, 3.0)}

    def test_star_degrees(self):
        g = hb.star_graph(4)
        rates = hb.vertex_rates(g)
        assert rates["c"] == (4.0, 4.0)
        assert all(rates[str(i)] == (1.0, 1.0) for i in range(4))


class TestOperatorProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_self_adjoint_and_nsd(self, seed):
        g = hb.random_connected_graph(8, seed=seed, nu_range=(0.1, 10),
                                      mu_range=(0.1, 10))
        rng = np.random.default_rng(seed + 1)
        f = hb.VertexFunction(g, rng.normal(size=g.n))
        h = hb.VertexFunction(g, rng.normal(size=g.n))
        lf, lh = hb.apply_generator(g, f), hb.apply_generator(g, h)
        lhs = hb.inner_product(g, lf, h)
        rhs = hb.inner_product(g, f, lh)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        assert hb.inner_product(g, lf, f) <= 1e-10

    def test_rate_matrix_rows_vanish(self):
        from heatbound.graph import rate_matrix
        g = hb.random_connected_graph(10, seed=5)
        q = rate_matrix(g).toarray()
        off_diag = q.sum(axis=1) - np.diag(q)
        assert np.allclose(off_diag, -np.diag(q), rtol=1e-12)
        assert np.allclose(-np.diag(q), g.rates)

    def test_rescaled_rates_invariant(self):
        g = hb.load_graph("v a 2\nv b 4\ne a b 8\n")
        g2 = g.rescaled(10.0)
        assert np.array_equal(g.rates, g2.rates)

    def test_immutable(self, p3):
        with pytest.raises(ValueError):
            p3.nu[0] = 2.0
