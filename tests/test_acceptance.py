"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np

import heatbound as hb
from heatbound.bounds import (
    bound_sweep,
    fit_sweep_setup,
    log_tail_bound_short_time,
    paper_constants,
)
from heatbound.cli import main as cli_main
from heatbound.imp import E4
from heatbound.kernel import KernelEvolution
from heatbound.regularity import DecayProfile, beta_constant, regularity_report


def report(n, desc):
    print(f"\n[acceptance] criterion {n:>2}: PASS - {desc}")


def csrw_suite():
    """The randomized graph suite used by the membership and tail criteria."""
    graphs = [("P5", hb.csrw_normalized(hb.path_graph(5))),
              ("K4", hb.csrw_normalized(hb.complete_graph(4)))]
    for n, seed in ((20, 901), (8, 902), (12, 903)):
        graphs.append((f"random-{n}-{seed}",
                       hb.random_connected_graph(n, seed=seed, csrw=True)))
    return graphs


def test_01_two_state_oracle():
    g = hb.load_graph("v a 1\nv b 1\ne a b 1\n")
    times = np.geomspace(1e-3, 1e2, 50)
    t0 = time.perf_counter()
    worst = 0.0
    for t in times:
        p = hb.heat_kernel(g, "a", float(t), tol=1e-12).prob("a")
        worst = max(worst, abs(p - 0.5 * (1.0 + math.exp(-2.0 * t))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, f"two-state kernel matches closed form, max err {worst:.2e}, "
              f"{elapsed:.2f}s")


def test_02_monte_carlo_consistency():
    n_paths = 100_000
    t0 = time.perf_counter()
    g2 = hb.load_graph("v a 1\nv b 1\ne a b 1\n")
    sim2 = hb.simulate(g2, "a", 1.0, n_paths, seed=7)
    p = 0.5 * (1.0 + math.exp(-2.0))
    sigma = math.sqrt(p * (1 - p) / n_paths)
    assert abs(sim2.prob("a") - p) <= 4 * sigma

    g10 = hb.random_connected_graph(10, seed=2025, csrw=True)
    sim10 = hb.simulate(g10, g10.vertex_ids[0], 1.0, n_paths, seed=8)
    exact = hb.heat_kernel(g10, g10.vertex_ids[0], 1.0, tol=1e-12).probs
    bands = 4 * np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n_paths)
    assert np.all(np.abs(sim10.probs - exact) <= bands)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"1e5-path empirical kernels inside 4-sigma bands, {elapsed:.1f}s")


def test_03_lower_bound_sanity():
    grid = np.geomspace(0.01, 3.0, 10)
    checked = 0
    for k in range(20):
        g = hb.random_connected_graph(2 + (k * 7) % 29, seed=3000 + k,
                                      nu_range=(0.3, 3.0), mu_range=(0.3, 3.0))
        rng = np.random.default_rng(k)
        for x in rng.choice(g.vertex_ids, size=min(3, g.n), replace=False):
            rate = g.rates[g.index(x)]
            for t, p in hb.on_diagonal_curve(g, x, grid, tol=1e-12):
                assert p >= math.exp(-rate * t) - 1e-9
                checked += 1
    report(3, f"no-jump lower bound held at {checked} grid points on 20 graphs")


def test_04_adapted_metric_gate():
    for k in range(100):
        g = hb.random_connected_graph(2 + (k * 13) % 49, seed=4000 + k,
                                      nu_range=(1e-3, 1e3),
                                      mu_range=(1e-3, 1e3))
        m = hb.shortest_path_metric(g)
        rep = hb.verify_adapted(g, m)
        assert rep["pass"], (k, rep)
    # CSRW normalization: unit lengths and the exact graph distance
    from scipy.sparse.csgraph import shortest_path
    for k in range(10):
        g = hb.random_connected_graph(2 + (k * 11) % 39, seed=4400 + k,
                                      nu_range=(1e-3, 1e3),
                                      mu_range=(1e-3, 1e3), csrw=True)
        lengths = hb.default_edge_lengths(g)
        assert np.all(lengths == 1.0)
        m = hb.shortest_path_metric(g, lengths)
        hops = shortest_path(g.weights != 0, unweighted=True, directed=False)
        assert np.array_equal(m.dist, hops)
    report(4, "default construction passed the gate on 100 graphs; "
              "CSRW gives the exact graph distance")


def test_05_membership_families():
    worst = math.inf
    for label, g in csrw_suite():
        m = hb.shortest_path_metric(g)
        o = g.vertex_ids[0]
        span = max(m.diameter, 1.0)
        grid = np.linspace(0.0, 2.0, 21)
        rho = hb.make_rho(m, o, span)
        families = [hb.make_lemma23(tau, rho) for tau in (0.1, 1.0, 10.0)]
        families += [hb.make_drift(a, rho) for a in (0.0, 0.1, 0.25)]
        R = max(1.0, span)
        refl = hb.make_rho(m, o, R, variant="reflected")
        families.append(hb.make_gaussian(5.0, R, 24.0 * R / 5.0, 2.0, refl))
        for h in families:
            rep = hb.is_in_F(h, g, m, grid)
            assert rep.passed, (label, h.kind, rep.worst_slack)
            worst = min(worst, rep.worst_slack)
    assert worst >= -1e-9
    report(5, f"all built families admissible on the suite, worst slack "
              f"{worst:.2e}")


def test_06_j_monotonicity_suite():
    t0 = time.perf_counter()
    graphs = [("P5", hb.csrw_normalized(hb.path_graph(5))),
              ("K4", hb.csrw_normalized(hb.complete_graph(4))),
              ("random-20", hb.random_connected_graph(20, seed=901, csrw=True))]
    grid = np.linspace(0.0, 2.0, 101)
    cells = 0
    for label, g in graphs:
        m = hb.shortest_path_metric(g)
        o = g.vertex_ids[0]
        ball = [g.vertex_ids[i]
                for i in np.flatnonzero(m.dist[g.index(o)] <= 1.0)]
        evolutions = [("full", KernelEvolution(g, o, tol=1e-12)),
                      ("killed", KernelEvolution(g, o, domain=ball, tol=1e-12))]
        span = max(m.diameter, 1.0)
        rho = hb.make_rho(m, o, span)
        refl = hb.make_rho(m, o, max(1.0, span), variant="reflected")
        families = [("lemma23", hb.make_lemma23(1.0, rho)),
                    ("drift", hb.make_drift(0.25, rho)),
                    ("gaussian", hb.make_gaussian(5.0, max(1.0, span),
                                                  24.0 * max(1.0, span) / 5.0,
                                                  2.0, refl))]
        for hname, h in families:
            for uname, u in evolutions:
                rep = hb.check_J_monotone(u, h, grid)
                assert rep.passed, (label, hname, uname, rep.worst_ratio)
                cells += 1
    elapsed = time.perf_counter() - t0
    assert cells == 18 and elapsed < 30.0
    report(6, f"J non-increasing on all {cells} cells (101-point grids), "
              f"{elapsed:.1f}s")


def test_07_tail_and_point_bounds():
    checked = 0
    for label, g in csrw_suite():
        m = hb.shortest_path_metric(g)
        o = g.vertex_ids[0]
        evo = KernelEvolution(g, o, tol=1e-12)
        d_o = m.dist[g.index(o)]
        for R in (0.8, 1.0, max(1.0, 0.9 * m.diameter)):
            for t in (R / 4, R / 2, R, 2 * R, 8 * R):
                tail = evo.tail_mass(t, ~m.ball(o, R))
                log_b = log_tail_bound_short_time(R, t)
                assert tail <= math.exp(min(log_b, 700.0)) * (1 + 1e-9), \
                    (label, R, t)
                checked += 1
        z = g.vertex_ids[int(np.argmax(d_o))]
        r = m.d(o, z)
        for t in (r / 4, r, 4 * r):
            p = hb.heat_kernel(g, o, t, tol=1e-12).prob(z)
            sl = hb.bound_short_long(g.nu[g.index(o)], g.nu[g.index(z)], r, t)
            log_p = math.log(p) if p > 0 else -math.inf
            for log_b in (sl.log_long, sl.log_short):
                if log_b is not None:
                    assert log_p <= log_b + 1e-9, (label, r, t)
                    checked += 1
    report(7, f"tail-mass and point-probability bounds held in {checked} cells")


def test_08_theorem_end_to_end():
    ledger = paper_constants()
    fitted_report = {}
    for label, g in (("P3", hb.csrw_normalized(hb.path_graph(3))),
                     ("P10", hb.csrw_normalized(hb.path_graph(10))),
                     ("K4", hb.csrw_normalized(hb.complete_graph(4)))):
        m = hb.shortest_path_metric(g)
        x1 = g.vertex_ids[0]
        x2 = g.vertex_ids[int(np.argmax(m.dist[g.index(x1)]))]
        d = m.d(x1, x2)
        times = list(np.geomspace(d, 30.0 * d, 50))
        mids = [math.sqrt(a * b) for a, b in zip(times, times[1:])]
        refined = sorted(times + mids)
        setup = fit_sweep_setup(g, [(x1, x2)], refined, gamma=2.0, delta=1.0)
        rows = bound_sweep(g, m, "thm1.1", times, pairs=[(x1, x2)],
                           ledger=ledger, setup=setup)
        assert all(r.in_domain and r.passed for r in rows), label
        assert max(r.log_ratio for r in rows) < -100.0  # enormous slack
        c_coarse = hb.fit_empirical_constant(g, m, x1, x2, times, setup=setup)
        c_fine = hb.fit_empirical_constant(g, m, x1, x2, refined, setup=setup)
        assert math.isfinite(c_coarse) and c_coarse > 0
        assert c_fine >= c_coarse - 1e-15  # sup over a superset
        assert abs(c_fine - c_coarse) <= 0.05 * c_coarse, label
        fitted_report[label] = (c_coarse, c_fine, setup.A)
    lines = ", ".join(f"{k}: C1={v[0]:.3g} (refined {v[1]:.3g}, A={v[2]:.3g})"
                      for k, v in fitted_report.items())
    report(8, f"headline bound held with paper constants; fitted {lines}")


def test_09_elementary_inequalities():
    eps = np.linspace(0.0, 1.0, 200)
    x = np.linspace(0.0, 50.0, 200)
    s1, s2 = hb.elementary_inequality_slacks(eps, x)
    assert s1.min() >= -1e-12
    assert s2.min() >= -1e-12
    report(9, f"scaling inequalities held on the 200x200 grid, min slacks "
              f"{s1.min():.1e}, {s2.min():.1e}")


def test_10_derived_constants_and_note():
    alpha, beta2 = hb.derived_constants(2.0, 1.0)
    assert alpha == 1.0 / 64.0 and beta2 == 1
    assert beta_constant(1.5, "section3") == 2
    assert beta_constant(2.0, "section3") == 1
    rep = regularity_report(DecayProfile.power(1.0), 1.5, (0.1, 100.0))
    blob = json.dumps(rep)
    assert blob.count("beta convention discrepancy") == 1
    assert rep["beta_section3"] == 2 and rep["beta_theorem_statement"] == 1
    report(10, "alpha = 1/64 at (gamma=2, delta=1); beta conventions "
               "surfaced exactly once")


def test_11_gradient_check():
    g = hb.random_connected_graph(20, seed=901, csrw=True)
    m = hb.shortest_path_metric(g)
    o = g.vertex_ids[0]
    span = max(m.diameter, 1.0)
    rho = hb.make_rho(m, o, span)
    refl = hb.make_rho(m, o, max(1.0, span), variant="reflected")
    tau = 0.7
    families = [hb.make_lemma23(tau, rho),
                hb.make_drift(0.2, rho),
                hb.make_gaussian(5.0, max(1.0, span),
                                 24.0 * max(1.0, span) / 5.0, 5.0, refl)]
    rng = np.random.default_rng(20250808)
    step = 1e-5
    # branch points of the logarithmic family, where the analytic derivative
    # is one-sided by construction and centered differences do not apply
    kinks = np.unique(4.0 * rho.values / math.e - tau)
    worst = 0.0
    for h in families:
        hi = h.interval[1] if math.isfinite(h.interval[1]) else 5.0
        ts, vs = [], []
        while len(ts) < 1000:
            t = float(rng.uniform(2 * step, hi - 2 * step))
            if h.kind == "lemma23" and np.any(np.abs(kinks - t) < 10 * step):
                continue
            ts.append(t)
            vs.append(int(rng.integers(0, g.n)))
        err = hb.gradient_check(h, ts, vs)
        assert err < 1e-6, (h.kind, err)
        worst = max(worst, err)
    report(11, f"analytic d/dt log h matched centered differences at 3000 "
               f"samples, worst rel err {worst:.1e}")


def test_12_scale_invariance(tmp_path, capsys):
    base = ("v a 1\nv b 2\nv c 4\nv d 3\n"
            "e a b 2\ne b c 1\ne a c 3\ne c d 5\n")
    scaled = ("v a 10\nv b 20\nv c 40\nv d 30\n"
              "e a b 20\ne b c 10\ne a c 30\ne c d 50\n")
    outputs = {}
    for tag, text in (("base", base), ("x10", scaled)):
        gfile = tmp_path / f"{tag}.graph"
        gfile.write_text(text)
        for formula in ("thm1.1", "cor2.7"):
            out = tmp_path / f"{tag}-{formula}.csv"
            code = cli_main(["bounds", "--graph", str(gfile), "--formula",
                             formula, "--tmin", "1", "--tmax", "12",
                             "--tcount", "6", "--out", str(out)])
            capsys.readouterr()
            assert code == 0
            outputs[(tag, formula)] = out.read_bytes()
    for formula in ("thm1.1", "cor2.7"):
        assert outputs[("base", formula)] == outputs[("x10", formula)]
    report(12, "bounds reports byte-identical under (mu, nu) -> (10mu, 10nu)")


def test_lemma23_formula_anchor():
    # the branch-point constant of the logarithmic family is e/4
    assert E4 == math.e / 4.0
