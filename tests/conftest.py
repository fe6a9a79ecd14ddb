import numpy as np
import pytest

import heatbound as hb


@pytest.fixture
def two_state():
    """Smallest connected graph: nu == 1, mu = 1, unit rates."""
    return hb.load_graph("v a 1\nv b 1\ne a b 1\n")


@pytest.fixture
def p3():
    return hb.path_graph(3)


@pytest.fixture
def p3_csrw():
    return hb.csrw_normalized(hb.path_graph(3))


@pytest.fixture
def p5_csrw():
    return hb.csrw_normalized(hb.path_graph(5))


@pytest.fixture
def k4_csrw():
    return hb.csrw_normalized(hb.complete_graph(4))


def random_suite(count, n_max, seed0=1000, **kwargs):
    """Deterministic list of random connected graphs for property sweeps."""
    rng = np.random.default_rng(seed0)
    graphs = []
    for k in range(count):
        n = int(rng.integers(2, n_max + 1))
        graphs.append(hb.random_connected_graph(n, seed=seed0 + k, **kwargs))
    return graphs


# holding rates over four decades and Lam = 1.2e3, so that Lam t reaches the
# dense jump at the times of the engine tests
STIFF = hb.random_connected_graph(8, seed=352, nu_range=(1e-4, 1),
                                  mu_range=(1e-2, 1))

# CSRW graphs, graphs with other holding rates, and STIFF: the graphs on
# which every kernel entry point, and every sweep, must agree bit for bit
ENGINE_SUITE = (random_suite(4, 10, seed0=300, csrw=True)
                + random_suite(4, 10, seed0=320, nu_range=(0.2, 5),
                               mu_range=(0.2, 5))
                + [STIFF])
