"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_connected_graph, random_function
from graphcurv import (
    GraphFunction,
    build_cutoff,
    build_heat,
    cd_check,
    cd_extremal_function,
    curvature_profile,
    curvature_solve,
    default_corpus,
    ec_norm_check,
    estimate_sweep,
    generate,
    green_check,
    semigroup_gamma_path,
)
from graphcurv.estimates import REPORT_TOL, _slack_arrays
from graphcurv.heat import clamp_mass
from graphcurv.operators import gamma_array, gamma_recursive_array


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


def _test_graphs() -> dict:
    rng = np.random.default_rng(3)

    def rand(n):
        return random_connected_graph(
            rng, n, extra_edge_prob=0.2, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5)
        )

    return {
        "single_edge": generate("complete", 2),
        "path5": generate("path", 5),
        "cycle6": generate("cycle", 6),
        "complete5": generate("complete", 5),
        "star5": generate("star", 5),
        "hypercube3": generate("hypercube", 3),
        "hypercube3_norm": generate("hypercube", 3, "normalizing"),
        "weighted_tree10": generate("weighted_tree", 10, seed=7),
        "random9": rand(9),
        "random12": rand(12),
    }


@pytest.fixture(scope="module")
def corpus_graphs():
    return _test_graphs()


def test_criterion_1_hand_oracle_curvature():
    t0 = time.time()
    g = generate("complete", 2)
    ok = abs(curvature_solve(g, "v0", math.inf).curvature - 2.0) <= 1e-8
    for n in (1.0, 2.0, 5.0, 100.0):
        ok &= abs(curvature_solve(g, "v0", n).curvature - (2.0 - 2.0 / n)) <= 1e-8
    elapsed = time.time() - t0
    _criterion(1, "hand-oracle curvature on the single edge", ok and elapsed < 1.0,
               f"{elapsed:.2f}s")


def test_criterion_2_random_sampling_soundness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = math.inf
    for _ in range(50):
        g = random_connected_graph(
            rng, int(rng.integers(5, 41)), extra_edge_prob=0.1,
            weight_range=(0.1, 2.0), measure_range=(0.1, 2.0),
        )
        F = rng.uniform(-1.0, 1.0, (g.num_vertices, 1000))
        # pointwise operators, independent of the solver's local matrices
        g2 = gamma_recursive_array(g, 2, F, F)
        g1 = gamma_array(g, F, F)
        for x in g.vertices:
            K = curvature_solve(g, x, math.inf).curvature - 1e-6
            i = g.index(x)
            worst = min(worst, float(np.min(g2[i] - K * g1[i])))
    elapsed = time.time() - t0
    _criterion(2, "CD soundness on 50 random graphs x 1000 functions",
               worst >= -1e-9 and elapsed < 60.0,
               f"worst slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_estimates_forward(corpus_graphs):
    t0 = time.time()
    t_grid = [0.01, 0.1, 1.0, 5.0, 25.0]
    worst = math.inf
    ok = True
    for name, g in corpus_graphs.items():
        corpus = default_corpus(g, seed=0)
        for n in (math.inf, 4.0):
            kappa = curvature_profile(g, n).global_curvature
            reports, summary = estimate_sweep(g, -kappa, n, t_grid, corpus)
            ok &= summary.passed
            worst = min(
                worst,
                min(min(r.slack_ii, r.slack_iii, r.slack_iv, r.slack_v) for r in reports),
            )
    elapsed = time.time() - t0
    _criterion(3, "forward gradient/variance estimates at K = -kappa",
               ok and worst >= -1e-8 and elapsed < 300.0,
               f"worst slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_estimates_converse(corpus_graphs):
    t0 = time.time()
    delta = 0.1
    t_scan = [float(t) for t in np.geomspace(1e-3, 1.0, 11)]
    all_detected = True
    for name, g in corpus_graphs.items():
        kappa = curvature_profile(g, math.inf).global_curvature
        corpus = default_corpus(g, seed=0)
        for v in g.vertices:
            w = cd_extremal_function(g, v, math.inf, kappa + delta)
            shifted = w.array - min(0.0, float(w.array.min()))
            corpus.append((f"witness:{v}", GraphFunction(g, shifted)))
        reports, _ = estimate_sweep(g, -kappa - delta, math.inf, t_scan, corpus)
        bad_t = [r.t for r in reports if r.slack_iii < -REPORT_TOL]
        detected = bool(bad_t) and min(bad_t) <= 1.0
        if not detected:
            print(f"  converse NOT detected on {name}")
        all_detected &= detected
    elapsed = time.time() - t0
    _criterion(4, "overclaiming curvature by 0.1 breaks the closed gradient bound",
               all_detected and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_5_k_zero_limit_forms(corpus_graphs):
    worst = 0.0
    for name in ("cycle6", "star5", "random9"):
        g = corpus_graphs[name]
        h = build_heat(g)
        F = np.stack([f.array for _, f in default_corpus(g, seed=1)], axis=1)
        for t in (0.01, 0.1, 1.0, 5.0):
            for n in (math.inf, 4.0):
                base = _slack_arrays(g, h, 0.0, n, F, [t])[0]
                for K in (1e-8, -1e-8):
                    pert = _slack_arrays(g, h, K, n, F, [t])[0]
                    for a, b in zip(base, pert):
                        worst = max(worst, float(np.max(np.abs(a - b))))
    _criterion(5, "K = 0 limit forms agree with K = +-1e-8", worst <= 1e-6,
               f"max slack difference {worst:.2e}")


def test_criterion_6_derivative_identity_order():
    rng = np.random.default_rng(6)
    graphs = [generate("path", 5), generate("cycle", 6), generate("complete", 4),
              generate("hypercube", 3), generate("weighted_tree", 8, seed=2)]
    t, s0 = 1.0, 0.5
    hs = [1e-2 / 2**j for j in range(7)]  # halving down to ~1.6e-4
    min_order = math.inf
    for g in graphs:
        h = build_heat(g)
        x = g.vertices[0]
        ix = g.index(x)
        for _ in range(5):
            f = GraphFunction(g, rng.uniform(0.0, 1.0, g.num_vertices))
            for k in (0, 1):
                inner = h.apply_array(t - s0, f.array)
                exact = 2.0 * float(
                    h.apply_array(s0, gamma_recursive_array(g, k + 1, inner, inner))[ix]
                )
                errs = []
                for step in hs:
                    lo, hi = semigroup_gamma_path(h, k, f, t, [s0 - step, s0 + step], x)
                    errs.append(abs((hi - lo) / (2 * step) - exact))
                slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
                min_order = min(min_order, slope)
    _criterion(6, "centered differences converge to 2 P_s Gamma_{k+1} at order >= 1.9",
               min_order >= 1.9, f"min observed order {min_order:.3f}")


def test_criterion_7_green_and_ec_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_green = 0.0
    worst_ec = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 25)))
        a, b, c = green_check(g, random_function(rng, g), random_function(rng, g))
        scale = max(1.0, abs(a), abs(b), abs(c))
        worst_green = max(worst_green, abs(a - b) / scale, abs(a - c) / scale)
        const, norm = ec_norm_check(g)
        worst_ec = max(worst_ec, abs(const - norm) / max(1.0, const))
    elapsed = time.time() - t0
    _criterion(7, "Green triple to 1e-10 and EC pair to 1e-12 on 100 fuzzed graphs",
               worst_green <= 1e-10 and worst_ec <= 1e-12 and elapsed < 30.0,
               f"green {worst_green:.2e}, ec {worst_ec:.2e}, {elapsed:.1f}s")


def test_criterion_8_semigroup_suite():
    rng = np.random.default_rng(8)
    families = [generate("path", 6), generate("cycle", 5), generate("complete", 4),
                generate("star", 4), generate("hypercube", 3),
                generate("weighted_tree", 9, seed=1)]
    graphs = families + [random_connected_graph(rng, int(rng.integers(4, 16)))
                         for _ in range(14)]
    ok = True
    for g in graphs:
        h = build_heat(g)
        m = g.measure_vector
        one = np.ones(g.num_vertices)
        for _ in range(10):
            s, t = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
            f = rng.uniform(-1.0, 1.0, g.num_vertices)
            w = rng.uniform(-1.0, 1.0, g.num_vertices)
            once = h.apply_array(t + s, f)
            twice = h.apply_array(t, h.apply_array(s, f))
            ok &= bool(np.all(np.abs(once - twice) <= 1e-9 * np.maximum(1.0, np.abs(once))))
            ok &= float(np.max(np.abs(h.apply_array(t, f)))) <= float(np.max(np.abs(f))) + 1e-10
            ok &= float(np.min(h.apply_array(t, np.abs(f)))) >= -1e-10
            ok &= float(np.max(np.abs(h.apply_array(t, one) - 1.0))) <= 1e-10
            lhs = float(np.sum(h.apply_array(t, f) * w * m))
            rhs = float(np.sum(f * h.apply_array(t, w) * m))
            ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    _criterion(8, "semigroup law, contraction, positivity, mass, self-adjointness", ok)


def test_criterion_9_cutoff_bound(corpus_graphs):
    checked = 0
    ok = True
    for name, g in corpus_graphs.items():
        # the CD(0, infinity) rule build_cutoff applies
        if not all(cd_check(g, 0.0, math.inf, x)[0] for x in g.vertices):
            continue
        checked += 1
        h = build_heat(g)
        full = list(g.vertices)
        ones = np.ones(g.num_vertices)
        for eps in (0.1, 0.5, 1.0):
            res = build_cutoff(g, {g.vertices[0]}, eps, full)
            ok &= res.max_gamma <= eps + 1e-10
            t = 2.0 / eps
            pt = h.apply_array(t, ones)
            variance = h.apply_array(t, ones * ones) - pt * pt
            g_eta = gamma_array(g, res.eta.array, res.eta.array)
            g_pt = gamma_array(g, pt, pt)
            ok &= bool(np.all(g_eta <= 4.0 * g_pt + 1e-10))
            ok &= bool(np.all(4.0 * g_pt <= (2.0 / t) * variance + 1e-10))
    _criterion(9, "cutoff gradient bound on all nonnegatively curved test graphs",
               ok and checked >= 5, f"{checked} graphs eligible")


def test_criterion_10_taylor_coefficients():
    from graphcurv import taylor_check

    rng = np.random.default_rng(10)
    graphs = [generate("path", 4), generate("cycle", 5), generate("complete", 4),
              generate("star", 3), generate("weighted_tree", 8, seed=2)]
    worst = 0.0
    for g in graphs:
        for _ in range(5):
            f = GraphFunction(g, rng.uniform(0.0, 1.0, g.num_vertices))
            x = g.vertices[int(rng.integers(0, g.num_vertices))]
            rep = taylor_check(g, f, x, K=0.7)
            for sec in ("variance", "heat_of_gradient", "gradient_of_heat"):
                for order in ("first_order", "second_order"):
                    pair = rep[sec][order]
                    rel = abs(pair["fitted"] - pair["exact"]) / max(1.0, abs(pair["exact"]))
                    worst = max(worst, rel)
    _criterion(10, "fitted expansion coefficients match exact operators to 1e-6",
               worst <= 1e-6, f"worst relative mismatch {worst:.2e}")


def test_criterion_11_dirichlet_mass():
    h = build_heat(generate("complete", 2), dirichlet_domain={"v0"})
    value = float(clamp_mass(h.apply_array(1.0, np.ones(2)))[0])
    _criterion(11, "Dirichlet heat mass equals e^{-1} on the half edge",
               abs(value - math.exp(-1.0)) <= 1e-10, f"mass {value:.12f}")
