import itertools

import numpy as np
import pytest

import heatbound as hb
from heatbound.graph import GraphFormatError
from heatbound.metric import load_edge_lengths

from conftest import random_suite


class TestDefaultLengths:
    def test_csrw_gives_graph_distance(self):
        for g in random_suite(8, 20, seed0=31, csrw=True):
            lengths = hb.default_edge_lengths(g)
            assert np.all(lengths == 1.0)
            m = hb.shortest_path_metric(g, lengths)
            hops = hb.shortest_path_metric(g, np.ones(g.n_edges)).dist
            assert np.array_equal(m.dist, hops)

    def test_two_vertex_mu4(self):
        g = hb.load_graph("v a 1\nv b 1\ne a b 4\n")
        lengths = hb.default_edge_lengths(g)
        assert lengths[0] == 0.5
        m = hb.shortest_path_metric(g, lengths)
        # constraint value (1/1) * (1/2)^2 * 4 = 1 at both vertices
        assert np.allclose(m.certificate.vertex_constraint, 1.0)

    def test_cap_binds_for_light_edge(self):
        g = hb.load_graph("v a 1\nv b 1\ne a b 0.25\n")
        assert hb.default_edge_lengths(g)[0] == 1.0

    def test_scaling_invariance_exact(self):
        g = hb.load_graph("v a 1\nv b 2\nv c 4\ne a b 8\ne b c 2\ne a c 1\n")
        for c in (0.5, 2.0, 10.0):
            g2 = g.rescaled(c)
            assert np.array_equal(hb.default_edge_lengths(g),
                                  hb.default_edge_lengths(g2))
            m, m2 = hb.shortest_path_metric(g), hb.shortest_path_metric(g2)
            assert np.array_equal(m.dist, m2.dist)


class TestShortestPath:
    def test_path_sum(self):
        g = hb.path_graph(3)
        m = hb.shortest_path_metric(g, np.array([0.5, 0.5]))
        assert m.d("0", "2") == 1.0

    def test_unit_lengths_count_hops(self):
        g = hb.complete_graph(5)
        m = hb.shortest_path_metric(g, np.ones(g.n_edges))
        off = m.dist[~np.eye(5, dtype=bool)]
        assert np.all(off == 1.0)

    def test_triangle_inequality_brute_force(self):
        g = hb.random_connected_graph(20, seed=9)
        m = hb.shortest_path_metric(g)
        d = m.dist
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for i, j, k in itertools.permutations(range(8), 3):
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_rejects_nonpositive_lengths(self, p3):
        with pytest.raises(ValueError, match="positive"):
            hb.shortest_path_metric(p3, np.array([1.0, 0.0]))

    def test_rejects_non_finite_lengths(self, p3):
        with pytest.raises(ValueError, match="finite"):
            hb.shortest_path_metric(p3, np.array([1.0, np.inf]))


class TestVerifyAdapted:
    def test_default_passes_on_random_suite(self):
        for g in random_suite(20, 50, seed0=400):
            m = hb.shortest_path_metric(g)
            report = hb.verify_adapted(g, m)
            assert report["pass"], report
            assert report["max_edge_dist"] <= 1.0 + 1e-12

    def test_graph_distance_can_fail(self):
        # vertex with nu = 1 carrying total weight 9: constraint value 9
        g = hb.star_graph(9)
        m = hb.shortest_path_metric(g, np.ones(g.n_edges))
        report = hb.verify_adapted(g, m)
        assert not report["pass"]
        assert report["vertex_slacks"]["c"] == pytest.approx(1.0 - 9.0)

    def test_single_edge_slack_reported(self, two_state):
        m = hb.shortest_path_metric(two_state)
        report = hb.verify_adapted(two_state, m)
        assert report["pass"]
        assert set(report["vertex_slacks"]) == {"a", "b"}

    def test_edge_dist_below_length_below_one(self):
        for g in random_suite(6, 25, seed0=52):
            m = hb.shortest_path_metric(g)
            i, j = g.edge_index[:, 0], g.edge_index[:, 1]
            edge_d = m.dist[i, j]
            assert np.all(edge_d <= m.edge_length + 1e-15)
            assert np.all(m.edge_length <= 1.0)

    def test_custom_lengths_flagged_not_rejected(self, p3):
        m = hb.shortest_path_metric(p3, np.array([3.0, 3.0]))
        assert not m.certificate.passed
        assert not hb.verify_adapted(p3, m)["pass"]


class TestOverrideFile:
    def test_round_trip(self, p3):
        lengths = load_edge_lengths(p3, "l 0 1 0.25\n# keep other default\n")
        assert lengths[0] == 0.25
        assert lengths[1] == hb.default_edge_lengths(p3)[1]

    @pytest.mark.parametrize("text,msg", [
        ("l 0 2 0.5\n", "no edge"),
        ("l 0 1 -2\n", "positive"),
        ("x 0 1 1\n", "expected"),
        ("# inf is not a length\nl 0 1 inf\n", "line 2: .*finite"),
    ])
    def test_errors(self, p3, text, msg):
        with pytest.raises(GraphFormatError, match=msg):
            load_edge_lengths(p3, text)
