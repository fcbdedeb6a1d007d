import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eager_sweep,
    loop_adjacency_norm,
    loop_ellipticity_constant,
    random_connected_graph,
    random_function,
    reference_gradient_integral,
    scaled_weights,
)
from graphcurv import (
    GraphFunction,
    PreconditionError,
    WeightedGraph,
    build_cutoff,
    build_heat,
    cd_extremal_function,
    curvature_profile,
    default_corpus,
    ec_norm_check,
    ellipticity_constant,
    estimate_sweep,
    finiteness_probe,
    generate,
    green_check,
    taylor_check,
    verify_estimates,
)
from graphcurv.estimates import REPORT_TOL, _gradient_integral, _phi1, _phi2, _slack_arrays
from graphcurv.operators import gamma_array, laplacian_array


def single_edge():
    return generate("complete", 2)


def edge_function(g):
    return GraphFunction(g, {"v0": 0.0, "v1": 1.0})


# -- verify_estimates ----------------------------------------------------------


def test_all_slacks_zero_at_t0():
    rng = np.random.default_rng(50)
    g = random_connected_graph(rng, 8)
    f = GraphFunction(g, rng.uniform(0, 1, g.num_vertices))
    for n in (math.inf, 3.0):
        r = verify_estimates(g, -0.7, n, f, 0.0, g.vertices[0])
        for s in (r.slack_ii, r.slack_iii, r.slack_iv, r.slack_v):
            assert abs(s) <= 1e-10


def test_single_edge_forward_direction():
    g = single_edge()
    h = build_heat(g)
    for t in (0.1, 1.0, 10.0):
        r = verify_estimates(g, -2.0, math.inf, edge_function(g), t, "v0", heat_op=h)
        assert r.passed, (t, r)


def test_single_edge_overclaimed_curvature_fails_iii():
    g = single_edge()
    h = build_heat(g)
    hits = [
        t
        for t in np.geomspace(1e-3, 1.0, 12)
        if verify_estimates(g, -2.5, math.inf, edge_function(g), float(t), "v0", heat_op=h).slack_iii
        < -REPORT_TOL
    ]
    assert hits and min(hits) <= 1.0


def test_constant_function_degenerates_to_equalities():
    g = single_edge()
    f = GraphFunction.constant(g, 1.5)
    r = verify_estimates(g, -2.0, 4.0, f, 1.0, "v0")
    assert r.passed
    for s in (r.slack_ii, r.slack_iii, r.slack_iv, r.slack_v):
        assert abs(s) <= 1e-12


def test_input_validation():
    g = single_edge()
    h = build_heat(g)
    neg = GraphFunction(g, {"v0": -0.1, "v1": 1.0})
    with pytest.raises(ValueError, match="nonnegative"):
        verify_estimates(g, 0.0, math.inf, neg, 1.0, "v0", heat_op=h)
    with pytest.raises(ValueError):
        verify_estimates(g, 0.0, math.inf, edge_function(g), -1.0, "v0", heat_op=h)
    with pytest.raises(ValueError):
        verify_estimates(g, 0.0, -2.0, edge_function(g), 1.0, "v0", heat_op=h)
    dirichlet = build_heat(g, dirichlet_domain={"v0"})
    with pytest.raises(PreconditionError, match="Dirichlet"):
        verify_estimates(g, 0.0, math.inf, edge_function(g), 1.0, "v0", heat_op=dirichlet)


def test_sweep_input_checks_run_on_empty_corpus():
    g = single_edge()
    with pytest.raises(ValueError, match="dimension"):
        estimate_sweep(g, 0.0, -1.0, [1.0], [])
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_sweep(g, 0.0, math.inf, [-1.0], [])
    dirichlet = build_heat(g, dirichlet_domain={"v0"})
    with pytest.raises(PreconditionError, match="Dirichlet"):
        estimate_sweep(g, 0.0, math.inf, [1.0], [], heat_op=dirichlet)


def test_foreign_heat_operator_rejected():
    # path6's semigroup on cycle6 gave 2 estimate failures and a Taylor fit of
    # 1.0 against the exact 26 without complaint
    g, foreign = generate("cycle", 6), build_heat(generate("path", 6))
    f = GraphFunction(g, np.arange(6.0))
    with pytest.raises(ValueError, match="does not belong"):
        estimate_sweep(g, 0.0, math.inf, [1.0], [("f", f)], heat_op=foreign)
    with pytest.raises(ValueError, match="does not belong"):
        verify_estimates(g, 0.0, math.inf, f, 1.0, "v0", heat_op=foreign)
    with pytest.raises(ValueError, match="does not belong"):
        default_corpus(g, heat_op=foreign)
    with pytest.raises(ValueError, match="does not belong"):
        taylor_check(g, f, "v0", heat_op=foreign)
    with pytest.raises(ValueError, match="does not belong"):
        build_cutoff(g, {"v0"}, 1.0, set(g.vertices), foreign)
    # a Dirichlet semigroup is not g's either: it shifted the fitted variance
    # coefficient of t^2 from 0 to 0.041 on path6
    with pytest.raises(PreconditionError, match="Dirichlet"):
        taylor_check(g, f, "v0", heat_op=build_heat(g, dirichlet_domain={"v0", "v1"}))


def test_k_zero_limit_matches_nearby_k():
    rng = np.random.default_rng(51)
    g = random_connected_graph(rng, 8)
    h = build_heat(g)
    F = np.stack([f.array for _, f in default_corpus(g, seed=1, heat_op=h)], axis=1)
    for t in (0.01, 1.0, 5.0):
        base = _slack_arrays(g, h, 0.0, 4.0, F, t)
        for K in (1e-8, -1e-8):
            pert = _slack_arrays(g, h, K, 4.0, F, t)
            for a, b in zip(base[:4], pert[:4]):
                assert float(np.max(np.abs(a - b))) <= 1e-6


@pytest.mark.parametrize(
    "family, size, K, t",
    [
        ("cycle", 5, 0.5, 0.003),  # lambda_max t ~ 1e-2
        ("hypercube", 5, -1.0, 1.0),  # ~ 10
        ("complete", 30, 0.5, 10.0),  # ~ 300
        ("fuzzed", 20, -1.0, 100.0),  # ~ 4500
        # 2|K| far above lambda_max ~ 3.6: the e^{2Ks} factor sets the layers
        ("cycle", 5, 200.0, 1.0),
        ("cycle", 5, -200.0, 1.0),
        ("cycle", 5, 350.0, 1.0),
        ("cycle", 5, -350.0, 1.0),
        ("disconnected", 9, 0.5, 2.0),  # cycle 5 + path 4: two kernel modes
        ("measured", 12, -1.0, 1.0),  # measures spread over [1e-2, 1e2]
        ("cycle", 5, 0.5, 0.0),
    ],
)
def test_gradient_integral_matches_dense_reference(family, size, K, t):
    if family == "fuzzed":
        g = random_connected_graph(np.random.default_rng(1), size)
    elif family == "measured":
        g = random_connected_graph(np.random.default_rng(2), size, measure_range=(1e-2, 1e2))
    elif family == "disconnected":
        parts = [generate("cycle", 5), generate("path", size - 5)]
        g = WeightedGraph(
            [f"{k}{v}" for k, p in enumerate(parts) for v in p.vertices],
            {(f"{k}{u}", f"{k}{v}"): w for k, p in enumerate(parts) for u, v, w in p.edges()},
            {f"{k}{v}": p.measure(v) for k, p in enumerate(parts) for v in p.vertices},
        )
    else:
        g = generate(family, size)
    h = build_heat(g)
    assert np.count_nonzero(h.kernel_modes) == (2 if family == "disconnected" else 1)
    rng = np.random.default_rng(70)
    F = np.stack([GraphFunction.indicator(g, g.vertices[0]).array,
                  rng.uniform(0.0, 1.0, g.num_vertices)], axis=1)
    lap_F = laplacian_array(g, F)
    integral = _gradient_integral(g, h, K, lap_F, t)
    for b in range(F.shape[1]):
        ref = reference_gradient_integral(h, K, lap_F[:, b], t)
        scale = float(np.max(np.abs(ref)))
        err = np.abs(integral[:, b] - ref)
        assert float(np.max(err)) <= 1e-10 * scale


def _coefficients(K, t):
    """(e^{2Kt}-1)/K, (1-e^{-2Kt})/K, (e^{2Kt}-1-2Kt)/K^2, (e^{-2Kt}-1+2Kt)/K^2."""
    x = 2.0 * K * t
    return (2.0 * t * _phi1(x), 2.0 * t * _phi1(-x), 4.0 * t * t * _phi2(x), 4.0 * t * t * _phi2(-x))


def test_exponential_coefficients_depend_on_kt_only():
    # 2Kt = 0.2 in both; an absolute K -> 0 switch returns 2t and 2t^2 at K = 1e-13
    small = _coefficients(1e-13, 1e12)
    unit = _coefficients(0.1, 1.0)
    for a, b, power in zip(small, unit, (1, 1, 2, 2)):
        assert a == pytest.approx(1e12**power * b, rel=1e-14)
    assert unit[0] == pytest.approx(math.expm1(0.2) / 0.1, rel=1e-15)
    assert unit[3] == pytest.approx((math.expm1(-0.2) + 0.2) / 0.01, rel=1e-13)
    assert _coefficients(0.0, 3.0) == (6.0, 6.0, 18.0, 18.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponent=st.floats(-14.0, 12.0), K=st.sampled_from([0.6, -0.6]))
def test_slacks_scale_covariant_property(exponent, K):
    # weights x c, t / c and K c: Gamma and Delta scale by c and P_t is
    # unchanged, so slacks (ii), (iii) scale by c and (iv), (v) do not change
    c = 10.0**exponent
    g = random_connected_graph(np.random.default_rng(71), 8)
    F = np.random.default_rng(72).uniform(0.0, 1.0, (8, 3))
    scaled = WeightedGraph(
        g.vertices, {(u, v): c * w for u, v, w in g.edges()}, {x: g.measure(x) for x in g.vertices}
    )
    base = _slack_arrays(g, build_heat(g), K, 3.0, F, 0.9)
    slacks = _slack_arrays(scaled, build_heat(scaled), K * c, 3.0, F, 0.9 / c)
    for got, want, power in zip(slacks[:4], base[:4], (1, 1, 0, 0)):
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got / c**power - want))) <= 1e-12 * scale


# -- estimate_sweep --------------------------------------------------------------


def test_sweep_passes_at_solved_curvature():
    rng = np.random.default_rng(52)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    kappa = curvature_profile(g, math.inf).global_curvature
    h = build_heat(g)
    corpus = default_corpus(g, seed=0, heat_op=h)
    reports, summary = estimate_sweep(g, -kappa, math.inf, [0.01, 0.5, 2.0], corpus, heat_op=h)
    assert summary.passed and summary.num_failures == 0
    assert summary.num_reports == len(corpus) * 3 * g.num_vertices


def test_sweep_converse_detects_overclaim():
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    kappa = curvature_profile(g, math.inf).global_curvature
    h = build_heat(g)
    corpus = default_corpus(g, seed=0, heat_op=h)
    for v in g.vertices:
        w = cd_extremal_function(g, v, math.inf, kappa + 0.1)
        corpus.append((f"witness:{v}", GraphFunction(g, w.array - min(0.0, float(w.array.min())))))
    t_scan = [float(t) for t in np.geomspace(1e-3, 1.0, 11)]
    reports, summary = estimate_sweep(g, -kappa - 0.1, math.inf, t_scan, corpus, heat_op=h)
    bad = [r for r in reports if r.slack_iii < -REPORT_TOL]
    assert not summary.passed and bad
    assert min(r.t for r in bad) <= 1.0


def test_sweep_converse_detects_overclaim_beside_heavy_edge():
    # the verdict scale is graph-wide, so a heavy edge far from the witness
    # raises the tolerance at the light vertices; at a weight ratio of 100
    # every estimate must still fail there
    V = [f"v{i}" for i in range(8)]
    edges = {(V[i], V[i + 1]): 1.0 for i in range(7)}
    edges[(V[6], V[7])] = 100.0
    g = WeightedGraph(V, edges, {v: 1.0 for v in V})
    kappa = curvature_profile(g, math.inf).per_vertex[2].curvature
    w = cd_extremal_function(g, "v2", math.inf, kappa + 0.1)
    corpus = [("witness:v2", GraphFunction(g, w.array - min(0.0, float(w.array.min()))))]
    t_scan = [float(t) for t in np.geomspace(1e-3, 1.0, 11)]
    result, _ = estimate_sweep(g, -kappa - 0.1, math.inf, t_scan, corpus)
    light = ~result.verdicts[..., :5]
    assert all(light[k].any() for k in range(4))


def test_sweep_empty_corpus_warns():
    reports, summary = estimate_sweep(single_edge(), 0.0, math.inf, [1.0], [])
    assert reports == [] and summary.passed
    assert summary.warning == "empty function corpus"


def test_sweep_empty_t_grid_passes():
    g = single_edge()
    result, summary = estimate_sweep(g, 0.0, math.inf, [], default_corpus(g))
    assert result == [] and len(result) == 0 and summary.passed
    assert summary.num_reports == 0 and summary.warning is None


def test_sweep_parallel_matches_serial():
    g = generate("cycle", 4)
    h = build_heat(g)
    corpus = default_corpus(g, seed=2, heat_op=h)
    serial = estimate_sweep(g, -1.0, 4.0, [0.1, 1.0], corpus, heat_op=h)
    parallel = estimate_sweep(g, -1.0, 4.0, [0.1, 1.0], corpus, heat_op=h, jobs=3)
    assert serial[0] == parallel[0]


def _overclaim_sweep_inputs():
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    kappa = curvature_profile(g, math.inf).global_curvature
    h = build_heat(g)
    corpus = default_corpus(g, seed=0, heat_op=h)
    for v in g.vertices:
        w = cd_extremal_function(g, v, math.inf, kappa + 0.1)
        corpus.append((f"witness:{v}", GraphFunction(g, w.array - min(0.0, float(w.array.min())))))
    t_scan = [float(t) for t in np.geomspace(1e-3, 1.0, 11)]
    return g, -kappa - 0.1, math.inf, t_scan, corpus, h


def _solved_sweep_inputs():
    rng = np.random.default_rng(52)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    h = build_heat(g)
    corpus = default_corpus(g, seed=0, heat_op=h, num_random=5)
    return g, -curvature_profile(g, 4.0).global_curvature, 4.0, [0.01, 0.5, 2.0], corpus, h


@pytest.mark.parametrize("inputs", [_overclaim_sweep_inputs, _solved_sweep_inputs])
def test_sweep_result_matches_eager_reports(inputs):
    g, K, n, t_grid, corpus, h = inputs()
    result, summary = estimate_sweep(g, K, n, t_grid, corpus, heat_op=h)
    reports, num_failures, first = eager_sweep(g, K, n, t_grid, corpus, h)
    assert list(result) == reports and result == reports
    assert len(result) == summary.num_reports == len(reports)
    assert summary.num_failures == num_failures
    assert summary.first_counterexample == first
    assert summary.passed == (num_failures == 0)
    for name in ("ii", "iii", "iv", "v"):
        assert summary.failures_by_estimate[name] == sum(not r.verdicts[name] for r in reports)
    assert result[-1] == reports[-1] and result[3:9:2] == reports[3:9:2]
    with pytest.raises(IndexError):
        result[len(reports)]


def test_sweep_worst_entries_are_the_lowest_relative_slacks():
    g, K, n, t_grid, corpus, h = _overclaim_sweep_inputs()
    # shifted x1e3 copy of a witness: its slacks are 1e6 times lower, but
    # its tolerance grows more, so the lowest slack is not the worst one
    corpus.append(("shifted", GraphFunction(g, 1e3 * (dict(corpus)["witness:v1"].array + 10.0))))
    result, summary = estimate_sweep(g, K, n, t_grid, corpus, heat_op=h)
    assert summary.failures_by_estimate["ii"] > 0
    # the tolerance of every (estimate, function, t), from its verdict scale
    F = np.stack([f.array for _, f in corpus], axis=1)
    tol = {t: REPORT_TOL * _slack_arrays(g, h, K, n, F, t)[4] for t in t_grid}
    column = {fid: col for col, (fid, _) in enumerate(corpus)}
    for k, name in enumerate(("ii", "iii", "iv", "v")):
        worst = summary.worst[name]
        hits = [r for r in result if (r.function_id, r.t, r.x)
                == (worst["function_id"], worst["t"], worst["x"])]
        assert len(hits) == 1 and getattr(hits[0], f"slack_{name}") == worst["slack"]
        assert worst["tolerance"] == tol[worst["t"]][k, column[worst["function_id"]]]
        relative = [getattr(r, f"slack_{name}") / tol[r.t][k, column[r.function_id]]
                    for r in result]
        assert min(relative) == worst["slack"] / worst["tolerance"]
        assert hits[0].verdicts[name] == (worst["slack"] >= -worst["tolerance"])
        # a failing estimate has its worst entry among the failures
        assert (summary.failures_by_estimate[name] > 0) == (worst["slack"] < -worst["tolerance"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponent=st.floats(-14.0, 12.0), K=st.sampled_from([-2.5, -2.0]))
def test_verdicts_scale_invariant_property(exponent, K):
    # (b, t, K) -> (c b, t/c, c K) scales slacks (ii), (iii) by c and leaves
    # (iv), (v) unchanged, so no verdict may move; at K = -2.5 the single
    # edge fails every estimate, at its exact curvature K = -2 slack (ii) is 0
    c = 10.0**exponent
    g = single_edge()
    scaled = WeightedGraph(g.vertices, {("v0", "v1"): c}, {"v0": 1.0, "v1": 1.0})
    t_grid = [0.01, 0.1, 1.0]
    corpus = default_corpus(g, seed=0)
    base, summary = estimate_sweep(g, K, math.inf, t_grid, corpus)
    got, _ = estimate_sweep(scaled, K * c, math.inf, [t / c for t in t_grid],
                            [(fid, GraphFunction(scaled, f.array)) for fid, f in corpus])
    assert (summary.num_failures > 0) == (K == -2.5)
    assert np.array_equal(got.verdicts, base.verdicts)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(order_seed=st.integers(0, 2**16))
def test_sweep_relabelling_permutes_slacks_and_verdicts(order_seed):
    # on the single edge's exact curvature slack (ii) is 0, so the verdicts
    # are decided at the tolerance; relabelling may move neither
    rng = np.random.default_rng(58)
    graphs = [(random_connected_graph(rng, 8), 0.3), (single_edge(), -2.0)]
    for g, K in graphs:
        perm = np.random.default_rng(order_seed).permutation(g.num_vertices)
        relabelled = scaled_weights(g, 1.0, order=[g.vertices[i] for i in perm])
        corpus = default_corpus(g, seed=1, num_random=4)
        moved = [(fid, GraphFunction(relabelled, f.as_dict())) for fid, f in corpus]
        base, summary = estimate_sweep(g, K, 4.0, [0.1, 1.0], corpus)
        got, got_summary = estimate_sweep(relabelled, K, 4.0, [0.1, 1.0], moved)
        assert got.vertices == tuple(relabelled.vertices)
        assert np.allclose(got.slacks, base.slacks[..., perm], rtol=1e-10, atol=1e-13)
        assert np.array_equal(got.verdicts, base.verdicts[..., perm])
        assert got_summary.num_failures == summary.num_failures


def test_default_corpus_composition():
    g = generate("path", 4)
    corpus = default_corpus(g, seed=0, num_random=5)
    ids = [fid for fid, _ in corpus]
    assert sum(i.startswith("indicator:") for i in ids) == 4
    assert sum(i.startswith("random:") for i in ids) == 5
    assert sum(i.startswith("smoothed:") for i in ids) == 4
    for _, f in corpus:
        assert float(f.array.min()) >= 0.0


# -- Green's formula and the ellipticity norm --------------------------------------


def test_green_indicator_pair():
    g = WeightedGraph(["a", "b"], {("a", "b"): 1.0}, {"a": 1.0, "b": 1.0})
    a, b, c = green_check(g, GraphFunction.indicator(g, "a"), GraphFunction.indicator(g, "b"))
    assert (a, b, c) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)


def test_green_constants_vanish():
    g = single_edge()
    triple = green_check(g, GraphFunction.constant(g, 2.0), GraphFunction.constant(g, -1.0))
    assert triple == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_green_triple_agrees_on_random_graphs():
    rng = np.random.default_rng(54)
    for _ in range(10):
        g = random_connected_graph(rng, 30)
        a, b, c = green_check(g, random_function(rng, g), random_function(rng, g))
        scale = max(1.0, abs(a))
        assert abs(a - b) <= 1e-10 * scale
        assert abs(a - c) <= 1e-10 * scale


def test_ec_norm_examples():
    assert ec_norm_check(single_edge()) == pytest.approx((1.0, 1.0))
    edgeless = WeightedGraph(["a", "b"], {}, {"a": 1.0, "b": 1.0})
    assert ec_norm_check(edgeless) == (0.0, 0.0)
    uneven = WeightedGraph(["a", "b"], {("a", "b"): 1.0}, {"a": 2.0, "b": 1.0})
    assert ec_norm_check(uneven) == pytest.approx((0.5, 0.5))


def test_ec_norm_matches_loops_on_fuzzed_graphs():
    rng = np.random.default_rng(58)
    graphs = [random_connected_graph(rng, int(rng.integers(2, 40))) for _ in range(20)]
    graphs.append(generate("cycle", 6))  # every edge ties; the first one is the witness
    for g in graphs:
        cert = ellipticity_constant(g)
        assert (cert.constant, cert.witness_edge) == loop_ellipticity_constant(g)
        assert ec_norm_check(g) == (cert.constant, loop_adjacency_norm(g))
    assert ellipticity_constant(generate("cycle", 6)).witness_edge == ("v0", "v1")


def test_ec_norm_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        c, norm = ec_norm_check(g)
        assert abs(c - norm) <= 1e-12 * max(1.0, c)


# -- cutoff ------------------------------------------------------------------------


def test_cutoff_full_universe_is_trivial():
    g = single_edge()
    c = build_cutoff(g, {"v0"}, 1.0, set(g.vertices), build_heat(g))
    assert np.allclose(c.eta.array, 1.0)
    assert c.max_gamma == 0.0


def test_cutoff_negative_curvature_rejected():
    g = generate("star", 5)
    with pytest.raises(PreconditionError, match="CD\\(0"):
        build_cutoff(g, {"c"}, 1.0, set(g.vertices), build_heat(g))


def test_cutoff_rejects_negative_curvature_at_any_scale():
    # star5 with weights x1e-12 has curvature -1e-12, which an absolute
    # 1e-9 tolerance on the profile minimum let through
    g = scaled_weights(generate("star", 5), 1e-12)
    with pytest.raises(PreconditionError, match="CD\\(0"):
        build_cutoff(g, {"c"}, 1.0, set(g.vertices), build_heat(g))


def test_cutoff_universe_too_small_rejected():
    g = generate("path", 20)
    h = build_heat(g)
    with pytest.raises(PreconditionError, match="too small"):
        build_cutoff(g, {"v19"}, 1.0, [f"v{i}" for i in range(10)], h)


def test_cutoff_partial_universe_bounds():
    g = generate("path", 20)  # curvature profile sits exactly at 0
    h = build_heat(g)
    U = [f"v{i}" for i in range(10)]
    for eps in (0.5, 1.0, 2.0):
        c = build_cutoff(g, ["v0", "v1"], eps, U, h)
        eta = c.eta.array
        assert float(eta.min()) >= 0.0 and float(eta.max()) <= 1.0
        assert c.eta.value("v0") == 1.0 and c.eta.value("v1") == 1.0
        assert c.max_gamma <= eps + 1e-10
        # the two-step bound behind the construction, pointwise
        t = 2.0 / eps
        ones_u = np.zeros(g.num_vertices)
        ones_u[[g.index(v) for v in U]] = 1.0
        pt = h.apply_array(t, ones_u)
        variance = h.apply_array(t, ones_u * ones_u) - pt * pt
        g_eta = gamma_array(g, eta, eta)
        g_pt = gamma_array(g, pt, pt)
        assert np.all(g_eta <= 4.0 * g_pt + 1e-10)
        assert np.all(4.0 * g_pt <= (2.0 / t) * variance + 1e-10)


def test_cutoff_rejects_dirichlet_operator():
    g = single_edge()
    hd = build_heat(g, dirichlet_domain={"v0"})
    with pytest.raises(ValueError, match="full-graph"):
        build_cutoff(g, {"v0"}, 1.0, set(g.vertices), hd)


# -- finiteness probe -----------------------------------------------------------------


def test_finiteness_single_edge_threshold():
    g = single_edge()
    rep = finiteness_probe(g, 2.0, [0.5, 1.0, 2.0, 3.0])
    entry = rep["per_vertex"][0]
    assert entry["epsilon_threshold"] == pytest.approx(2.0)
    by_eps = {e["epsilon"]: e for e in entry["entries"]}
    assert by_eps[0.5]["forces_contradiction"] and by_eps[1.0]["forces_contradiction"]
    assert not by_eps[3.0]["forces_contradiction"]
    assert by_eps[2.0]["bound"] == pytest.approx(1.0)
    assert rep["total_measure"] == pytest.approx(2.0)


def test_finiteness_jensen_sampled():
    rng = np.random.default_rng(56)
    g = random_connected_graph(rng, 15)
    from graphcurv.operators import laplacian_array

    samples = rng.uniform(-1, 1, (g.num_vertices, 1000))
    lap = laplacian_array(g, samples)
    gam = gamma_array(g, samples, samples)
    deg = g.weighted_degrees
    assert float(np.max(lap * lap - 2.0 * deg[:, None] * gam)) <= 1e-10


def test_finiteness_preconditions():
    disconnected = WeightedGraph(["a", "b"], {}, {"a": 1.0, "b": 1.0})
    with pytest.raises(PreconditionError, match="connected"):
        finiteness_probe(disconnected, 1.0, [1.0])
    with pytest.raises(PreconditionError, match="curvature"):
        finiteness_probe(generate("star", 5), 1.0, [1.0])
    with pytest.raises(ValueError):
        finiteness_probe(single_edge(), -1.0, [1.0])


@pytest.mark.parametrize("family, size, K, c", [
    ("complete", 30, 16.0, 1e5), ("complete", 30, 16.0, 1e8), ("hypercube", 3, 2.0, 1e8),
])
def test_finiteness_accepts_exact_bound_at_scale(family, size, K, c):
    # the exact curvature K c was refused against an absolute tolerance
    rep = finiteness_probe(scaled_weights(generate(family, size), c), K * c, [1.0])
    assert rep["curvature_bound"] == K * c


def test_finiteness_isolated_vertex_vacuous():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    rep = finiteness_probe(g, 1.0, [0.5])
    assert rep["per_vertex"][0]["vacuous"]
    assert not rep["per_vertex"][0]["entries"][0]["forces_contradiction"]


# -- taylor_check -----------------------------------------------------------------------


def test_taylor_single_edge_first_coefficient():
    g = single_edge()
    rep = taylor_check(g, edge_function(g), "v0")
    assert rep["variance"]["first_order"]["exact"] == pytest.approx(1.0)
    assert rep["variance"]["first_order"]["fitted"] == pytest.approx(1.0, abs=1e-8)


def test_taylor_constant_function_all_zero():
    g = single_edge()
    rep = taylor_check(g, GraphFunction.constant(g, 3.0), "v0")
    for sec in ("variance", "heat_of_gradient", "gradient_of_heat"):
        for order in ("first_order", "second_order"):
            assert abs(rep[sec][order]["fitted"]) <= 1e-9
            assert rep[sec][order]["exact"] == 0.0


def test_taylor_random_function_on_path():
    rng = np.random.default_rng(57)
    g = generate("path", 4)
    f = GraphFunction(g, rng.uniform(0, 1, g.num_vertices))
    rep = taylor_check(g, f, "v1", K=0.9)
    for sec in ("variance", "heat_of_gradient", "gradient_of_heat"):
        for order in ("first_order", "second_order"):
            pair = rep[sec][order]
            assert abs(pair["fitted"] - pair["exact"]) <= 1e-6 * max(1.0, abs(pair["exact"]))


def test_taylor_grid_follows_the_largest_degree():
    # the fit sits at the same point of the expansion under (b, K) -> (c b, c K):
    # every fitted coefficient of order k scales by c^k, to rounding of the
    # scale ||f||_inf^2 D^k (here ||f||_inf <= 1 and D = 29)
    g = generate("complete", 30)
    f = GraphFunction(g, np.random.default_rng(59).uniform(0.0, 1.0, g.num_vertices))
    base = taylor_check(g, f, "v3", K=0.5)
    for c in (1e-8, 1e3, 1e8):
        scaled = scaled_weights(g, c)
        rep = taylor_check(scaled, GraphFunction(scaled, f.array), "v3", K=0.5 * c)
        for sec in ("variance", "heat_of_gradient", "gradient_of_heat"):
            for k, order in ((1, "first_order"), (2, "second_order")):
                fitted = rep[sec][order]["fitted"]
                assert fitted == pytest.approx(c**k * base[sec][order]["fitted"],
                                               rel=0.0, abs=1e-8 * (29.0 * c) ** k)
