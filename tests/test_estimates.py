import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    antitree,
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
    cd_check,
    cd_extremal_function,
    curvature_profile,
    curvature_solve,
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
from graphcurv import estimates, operators
from graphcurv.estimates import (
    REPORT_TOL,
    _corpus_array,
    _gradient_integral,
    _phi1,
    _phi2,
    _require_curvature,
    _slack_arrays,
)
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
    for t in (0.1, 1.0, 10.0):
        r = verify_estimates(g, -2.0, math.inf, edge_function(g), t, "v0")
        assert r.passed, (t, r)


def test_single_edge_overclaimed_curvature_fails_iii():
    g = single_edge()
    hits = [
        t
        for t in np.geomspace(1e-3, 1.0, 12)
        if verify_estimates(g, -2.5, math.inf, edge_function(g), float(t), "v0").slack_iii
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
    neg = GraphFunction(g, {"v0": -0.1, "v1": 1.0})
    with pytest.raises(ValueError, match="nonnegative"):
        verify_estimates(g, 0.0, math.inf, neg, 1.0, "v0")
    with pytest.raises(ValueError):
        verify_estimates(g, 0.0, math.inf, edge_function(g), -1.0, "v0")
    with pytest.raises(ValueError):
        verify_estimates(g, 0.0, -2.0, edge_function(g), 1.0, "v0")


def test_sweep_refuses_the_corpus_at_its_first_faulty_function():
    g, other = single_edge(), generate("path", 3)
    good, neg = edge_function(g), GraphFunction(g, {"v0": -0.1, "v1": 1.0})
    off = GraphFunction(other, [0.0, 1.0, 2.0])
    corpus = [(f"f{k}", good) for k in range(5)]
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_sweep(g, 0.0, math.inf, [1.0], corpus + [("neg", neg), ("off", off)])
    with pytest.raises(ValueError, match="not defined on the given graph"):
        estimate_sweep(g, 0.0, math.inf, [1.0], corpus + [("off", off), ("neg", neg)])


def test_sweep_input_checks_run_on_empty_corpus():
    g = single_edge()
    with pytest.raises(ValueError, match="dimension"):
        estimate_sweep(g, 0.0, -1.0, [1.0], [])
    with pytest.raises(ValueError, match="finite t >= 0, got -1.0"):
        estimate_sweep(g, 0.0, math.inf, [-1.0], [])


def test_functions_use_the_graphs_own_semigroup():
    # a Dirichlet operator of g and the semigroup of another graph, built
    # first, must change nothing: path6's semigroup applied on cycle6 gives 2
    # estimate failures and a Taylor fit of 1.0 against the exact 26
    g = generate("cycle", 6)
    build_heat(g, dirichlet_domain={"v0", "v1"})
    build_heat(generate("path", 6))
    fresh = WeightedGraph(g.vertices, list(g.edges()), {v: g.measure(v) for v in g.vertices})
    f = GraphFunction(g, np.arange(6.0))

    def results(h):
        corpus = default_corpus(h, seed=4, num_random=3)
        return (
            corpus,
            estimate_sweep(h, 0.0, 4.0, [0.1, 1.0], corpus),
            taylor_check(h, GraphFunction(h, f.array), "v0"),
            build_cutoff(h, {"v0"}, 2.0, ["v4", "v5", "v0", "v1", "v2"]),
        )

    corpus, (result, summary), taylor, cutoff = results(g)
    corpus_f, (result_f, summary_f), taylor_f, cutoff_f = results(fresh)
    assert corpus == corpus_f and result == result_f and summary == summary_f
    assert taylor == taylor_f and cutoff == cutoff_f
    assert summary.passed and cutoff.max_gamma > 0.0
    assert taylor["variance"]["first_order"]["exact"] == 26.0


def test_k_zero_limit_matches_nearby_k():
    rng = np.random.default_rng(51)
    g = random_connected_graph(rng, 8)
    h = build_heat(g)
    F = np.stack([f.array for _, f in default_corpus(g, seed=1)], axis=1)
    for t in (0.01, 1.0, 5.0):
        base = _slack_arrays(g, h, 0.0, 4.0, F, [t])[0]
        for K in (1e-8, -1e-8):
            pert = _slack_arrays(g, h, K, 4.0, F, [t])[0]
            for a, b in zip(base, pert):
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
    h, lap_F = _integral_inputs(family, size)
    integral = _gradient_integral(h, K, lap_F, [t])[0]
    _assert_matches_reference(h, K, lap_F, t, integral)


def _integral_inputs(family, size):
    """(the semigroup of a graph of ``family``, the Laplacians of an indicator and a random function)."""
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
    return h, laplacian_array(g, F)


def _assert_matches_reference(h, K, lap_F, t, integral):
    for b in range(lap_F.shape[1]):
        ref = reference_gradient_integral(h, K, lap_F[:, b], t)
        scale = float(np.max(np.abs(ref)))
        err = np.abs(integral[:, b] - ref)
        assert float(np.max(err)) <= 1e-10 * scale


@pytest.mark.parametrize("family, size, K", [("hypercube", 5, -1.0), ("disconnected", 9, 0.5),
                                             ("measured", 12, 3.0)])
def test_gradient_integral_over_a_grid_matches_dense_reference(family, size, K):
    # one call covers the grid: the mode tensors are built once and reused
    # for every t, t = 0 included, where the integral is exactly 0
    h, lap_F = _integral_inputs(family, size)
    times = (0.0, 0.003, 1.0, 10.0)
    integrals = _gradient_integral(h, K, lap_F, times)
    assert integrals.shape == (len(times),) + lap_F.shape
    assert not np.any(integrals[0])
    for t, integral in zip(times, integrals):
        _assert_matches_reference(h, K, lap_F, t, integral)


def test_gradient_integral_does_not_depend_on_the_chunk_size(monkeypatch):
    # one mode per chunk, chunks of 5 modes (the last of 2) and all 32 modes
    # in one chunk give the same bits; lap_F has 2 columns, so the budget
    # counts 32 x 32 entries a mode
    h, lap_F = _integral_inputs("hypercube", 5)
    times = (0.0, 0.1, 1.0, 10.0)
    results = set()
    for budget in (1, 5 * 32 * 32, 32**3):
        monkeypatch.setattr(operators, "STACK_ENTRIES", budget)
        results.add(_gradient_integral(h, 0.5, lap_F, times).tobytes())
    assert len(results) == 1


@pytest.mark.parametrize("n", [4.0, math.inf])
def test_swept_slacks_equal_per_t_evaluation(n):
    # the t-independent work is done once for the grid; every slack and
    # verdict scale must still equal, bit for bit, a grid of one at each t
    g = random_connected_graph(np.random.default_rng(53), 9)
    h = build_heat(g)
    F = np.stack([f.array for _, f in default_corpus(g, seed=2, num_random=4)], axis=1)
    times = (0.0, 0.01, 0.5, 3.0)
    slacks, scale = _slack_arrays(g, h, -0.7, n, F, times)
    assert slacks.shape == (4, F.shape[1], len(times), g.num_vertices)
    for k, t in enumerate(times):
        one_slacks, one_scale = _slack_arrays(g, h, -0.7, n, F, [t])
        assert slacks[:, :, k].tobytes() == one_slacks[:, :, 0].tobytes()
        assert scale[:, :, k].tobytes() == one_scale[:, :, 0].tobytes()


def _one_transform_slack_arrays(g, h, K, n, F, times, integrals=None):
    """``_slack_arrays`` with P_t f formed in one transform with its kernel modes kept.

    The kernel-free P_t f comes from the same coefficients of f, and every
    other term is formed as ``_slack_arrays`` forms it.
    """
    U, lam, sqrt_m = h.eigenbasis, h.eigenvalues, h.measure_half[:, None]
    coeff = U.T @ (sqrt_m * F)
    inv_n = 0.0 if math.isinf(n) else 1.0 / n
    lap_F = laplacian_array(g, F)
    if integrals is None:
        integrals = _gradient_integral(h, K, lap_F, times) if inv_n else np.zeros((len(times),) + F.shape)
    f_sq = np.max(np.abs(F), axis=0) ** 2
    floors = (f_sq * float(np.max(g.weighted_degrees)),) * 2 + (f_sq,) * 2
    slacks, scale = np.empty((4, F.shape[1], len(times), g.num_vertices)), np.empty((4, F.shape[1], len(times)))
    for k, (t, pt_gam, pt_sq, pt_lap, integral) in enumerate(zip(
            times, h._apply(times, gamma_array(g, F, F), True), h._apply(times, F * F, True),
            h._apply(times, lap_F, False), integrals)):
        ptF = fluct = F
        if t:
            decay = np.exp(-t * lam)
            ptF = (U @ (coeff * decay[:, None])) / sqrt_m
            decay[h.kernel_modes] = 0.0
            fluct = (U @ (coeff * decay[:, None])) / sqrt_m
        gam_ptF, variance, lap_sq = gamma_array(g, fluct, fluct), pt_sq - ptF * ptF, inv_n * pt_lap * pt_lap
        plus, minus, plus2, minus2 = _coefficients(K, t)
        terms = ((math.exp(2 * K * t) * pt_gam, -2.0 * inv_n * integral, -gam_ptF),
                 (math.exp(2 * K * t) * pt_gam, -plus * lap_sq, -gam_ptF),
                 (plus * pt_gam, -plus2 * lap_sq, -variance),
                 (variance, -minus * gam_ptF, -minus2 * lap_sq))
        for i, ((a, b, c), floor) in enumerate(zip(terms, floors)):
            scale[i, :, k] = np.max(np.abs(a) + np.abs(b) + np.abs(c), axis=0) + floor
            slacks[i, :, k] = (a + b + c).T
    return slacks, scale


@pytest.mark.parametrize("n", [math.inf, 4.0])
def test_kernel_part_of_every_component_matches_one_transform(monkeypatch, n):
    # two components and an isolated vertex make three kernel modes; the sweep
    # adds their part to the kernel-free P_t f, and must reach the verdicts of
    # P_t f formed in one transform, with its slacks within rounding.  K is
    # overclaimed by 0.5, so that every estimate fails and its worst triple is
    # a failure, not one of the slacks that are rounding on a constant part
    rng = np.random.default_rng(72)
    parts = [random_connected_graph(rng, 7), random_connected_graph(rng, 5)]
    g = WeightedGraph(
        [f"{k}{v}" for k, p in enumerate(parts) for v in p.vertices] + ["z"],
        {(f"{k}{u}", f"{k}{v}"): w for k, p in enumerate(parts) for u, v, w in p.edges()},
        {**{f"{k}{v}": p.measure(v) for k, p in enumerate(parts) for v in p.vertices}, "z": 0.7},
    )
    h = build_heat(g)
    assert np.count_nonzero(h.kernel_modes) == 3
    kappa, times = curvature_profile(g, n).global_curvature, (0.0, 0.01, 0.3, 2.0)
    corpus = default_corpus(g, seed=3, num_random=5)
    for v in g.vertices[:-1]:
        w = cd_extremal_function(g, v, n, kappa + 0.5).array
        corpus.append((f"witness:{v}", GraphFunction(g, w - min(0.0, float(w.min())))))
    K = -kappa - 0.5
    F = np.stack([f.array for _, f in corpus], axis=1)
    slacks, scale = _slack_arrays(g, h, K, n, F, times)
    result, summary = estimate_sweep(g, K, n, times, corpus)
    monkeypatch.setattr(estimates, "_slack_arrays", _one_transform_slack_arrays)
    ref_slacks, ref_scale = _one_transform_slack_arrays(g, h, K, n, F, times)
    ref_result, ref_summary = estimate_sweep(g, K, n, times, corpus)

    assert np.all(np.abs(slacks - ref_slacks) <= 1e-13 * ref_scale[..., None])
    assert np.array_equal(result.verdicts, ref_result.verdicts)
    assert summary.num_failures == ref_summary.num_failures > 0
    assert summary.failures_by_estimate == ref_summary.failures_by_estimate
    first, ref_first = summary.first_counterexample, ref_summary.first_counterexample
    assert (first.function_id, first.t, first.x) == (ref_first.function_id, ref_first.t, ref_first.x)
    assert {name: (e["function_id"], e["t"], e["x"]) for name, e in summary.worst.items()} == {
        name: (e["function_id"], e["t"], e["x"]) for name, e in ref_summary.worst.items()}


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
    base = _slack_arrays(g, build_heat(g), K, 3.0, F, [0.9])[0]
    slacks = _slack_arrays(scaled, build_heat(scaled), K * c, 3.0, F, [0.9 / c])[0]
    for got, want, power in zip(slacks, base, (1, 1, 0, 0)):
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got / c**power - want))) <= 1e-12 * scale


# -- estimate_sweep --------------------------------------------------------------


def test_sweep_passes_at_solved_curvature():
    rng = np.random.default_rng(52)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    kappa = curvature_profile(g, math.inf).global_curvature
    corpus = default_corpus(g, seed=0)
    reports, summary = estimate_sweep(g, -kappa, math.inf, [0.01, 0.5, 2.0], corpus)
    assert summary.passed and summary.num_failures == 0
    assert summary.num_reports == len(corpus) * 3 * g.num_vertices


def test_sweep_converse_detects_overclaim():
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    kappa = curvature_profile(g, math.inf).global_curvature
    corpus = default_corpus(g, seed=0)
    for v in g.vertices:
        w = cd_extremal_function(g, v, math.inf, kappa + 0.1)
        corpus.append((f"witness:{v}", GraphFunction(g, w.array - min(0.0, float(w.array.min())))))
    t_scan = [float(t) for t in np.geomspace(1e-3, 1.0, 11)]
    reports, summary = estimate_sweep(g, -kappa - 0.1, math.inf, t_scan, corpus)
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


def _overclaim_sweep_inputs():
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    kappa = curvature_profile(g, math.inf).global_curvature
    h = build_heat(g)
    corpus = default_corpus(g, seed=0)
    for v in g.vertices:
        w = cd_extremal_function(g, v, math.inf, kappa + 0.1)
        corpus.append((f"witness:{v}", GraphFunction(g, w.array - min(0.0, float(w.array.min())))))
    t_scan = [float(t) for t in np.geomspace(1e-3, 1.0, 11)]
    return g, -kappa - 0.1, math.inf, t_scan, corpus, h


def _solved_sweep_inputs():
    rng = np.random.default_rng(52)
    g = random_connected_graph(rng, 8, weight_range=(0.5, 1.5), measure_range=(0.5, 1.5))
    h = build_heat(g)
    corpus = default_corpus(g, seed=0, num_random=5)
    return g, -curvature_profile(g, 4.0).global_curvature, 4.0, [0.01, 0.5, 2.0], corpus, h


@pytest.mark.parametrize("inputs", [_overclaim_sweep_inputs, _solved_sweep_inputs])
def test_sweep_result_matches_eager_reports(inputs):
    g, K, n, t_grid, corpus, h = inputs()
    result, summary = estimate_sweep(g, K, n, t_grid, corpus)
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
    result, summary = estimate_sweep(g, K, n, t_grid, corpus)
    assert summary.failures_by_estimate["ii"] > 0
    # the tolerance of every (estimate, function, t), from its verdict scale
    F = np.stack([f.array for _, f in corpus], axis=1)
    tol = {t: REPORT_TOL * _slack_arrays(g, h, K, n, F, [t])[1][:, :, 0] for t in t_grid}
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


@pytest.mark.parametrize("n", [math.inf, 4.0])
@pytest.mark.parametrize("overclaim", [0.0, 1.0])
def test_sweep_in_chunks_matches_one_chunk(monkeypatch, n, overclaim):
    # at the solved curvature the sweep passes; overclaimed by max Deg it
    # fails.  The default corpus of 36 functions goes in chunks of 7, and
    # the folded summary must name the triples the one-chunk sweep names
    g = random_connected_graph(np.random.default_rng(53), 8, weight_range=(0.5, 1.5),
                               measure_range=(0.5, 1.5))
    K = -curvature_profile(g, n).global_curvature - overclaim * float(np.max(g.weighted_degrees))
    t_grid = [0.01, 0.1, 1.0]
    corpus = default_corpus(g, seed=0)
    one, one_summary = estimate_sweep(g, K, n, t_grid, corpus)
    assert one_summary.passed == (overclaim == 0.0)

    widths = []

    def counted(*args):
        widths.append(args[4].shape[1])
        return _slack_arrays(*args)

    monkeypatch.setattr(estimates, "_slack_arrays", counted)
    monkeypatch.setattr(estimates, "SWEEP_ENTRIES", 4 * len(t_grid) * g.num_vertices * 7 + 5)
    result, summary = estimate_sweep(g, K, n, t_grid, corpus)
    assert widths == [7] * 5 + [1]
    assert result.function_ids == one.function_ids
    for field in ("passed", "num_reports", "num_failures", "warning", "failures_by_estimate"):
        assert getattr(summary, field) == getattr(one_summary, field), field
    first, one_first = summary.first_counterexample, one_summary.first_counterexample
    assert (first is None) == (one_first is None) == (overclaim == 0.0)
    if first is not None:
        assert (first.function_id, first.t, first.x, first.verdicts) == (
            one_first.function_id, one_first.t, one_first.x, one_first.verdicts)
    where = ("function_id", "t", "x")
    assert summary.worst.keys() == one_summary.worst.keys() == set(estimates.ESTIMATES)
    for name, entry in summary.worst.items():
        assert [entry[k] for k in where] == [one_summary.worst[name][k] for k in where], name
    F = np.stack([f.array for _, f in corpus], axis=1)
    scale = _slack_arrays(g, build_heat(g), K, n, F, t_grid)[1]
    assert np.all(np.abs(result.slacks - one.slacks) <= 1e-12 * scale[..., None])
    # the command line's path keeps no table and folds the same summary
    lean, lean_summary = estimates._sweep(g, K, n, tuple(t_grid), one.function_ids, F, full=False)
    assert lean is None and lean_summary == summary


@pytest.mark.parametrize("full", [True, False])
def test_sweep_first_failure_in_a_later_chunk(monkeypatch, full):
    # the only failing function comes last, in the sixth chunk, after five
    # chunks of 7 functions that pass; the one-pass summary must name the
    # triples that the one-chunk sweep and the eager reports name
    g, K, n, t_grid, corpus, h = _overclaim_sweep_inputs()
    witness = dict(corpus)["witness:v1"]
    corpus = [(fid, f) for fid, f in corpus if not fid.startswith("witness:")] + [("witness:v1", witness)]
    one, one_summary = estimate_sweep(g, K, n, t_grid, corpus)
    reports, num_failures, first = eager_sweep(g, K, n, t_grid, corpus, h)

    widths = []

    def counted(*args):
        widths.append(args[4].shape[1])
        return _slack_arrays(*args)

    monkeypatch.setattr(estimates, "_slack_arrays", counted)
    monkeypatch.setattr(estimates, "SWEEP_ENTRIES", 4 * len(t_grid) * g.num_vertices * 7 + 5)
    F = np.stack([f.array for _, f in corpus], axis=1)
    result, summary = estimates._sweep(g, K, n, tuple(t_grid), one.function_ids, F, full=full)
    assert widths == [7] * 5 + [2]
    assert first.function_id == "witness:v1" and all(r.passed for r in reports[:-len(t_grid) * g.num_vertices])
    assert summary.first_counterexample == one_summary.first_counterexample == first
    assert summary.num_failures == one_summary.num_failures == num_failures > 0
    assert summary.failures_by_estimate == one_summary.failures_by_estimate == {
        name: sum(not r.verdicts[name] for r in reports) for name in estimates.ESTIMATES}
    assert summary.worst == one_summary.worst
    at = {(r.function_id, r.t, r.x): r for r in reports}
    for name, entry in summary.worst.items():
        assert entry["function_id"] == "witness:v1"
        assert entry["slack"] == getattr(at[entry["function_id"], entry["t"], entry["x"]], f"slack_{name}")
    assert result == reports if full else result is None


@pytest.mark.parametrize("n", [math.inf, 4.0])
def test_sweep_width_follows_the_stored_entries(monkeypatch, n):
    # on an anti-tree the per-entry arrays of Gamma and Delta, (2E x width), outgrow
    # the slacks, (4 T N x width): the width is sized by the larger, and the summary
    # does not depend on it.  p = 2, R = 14 peaked at 4,991 MB when only 4 T N counted
    g, _ = antitree(2, 5)
    nnz, t_grid = len(g.csr.indices), (0.01, 0.1)
    assert nnz > 4 * len(t_grid) * g.num_vertices
    K = -curvature_profile(g, n).global_curvature - float(g.weighted_degrees.max())
    function_ids, F = _corpus_array(g, 0, 4)
    one = estimates._sweep(g, K, n, t_grid, function_ids, F, full=False)[1]
    assert not one.passed
    widths = []

    def counted(*args):
        widths.append(args[4].shape[1])
        return _slack_arrays(*args)

    monkeypatch.setattr(estimates, "_slack_arrays", counted)
    monkeypatch.setattr(estimates, "SWEEP_ENTRIES", nnz * 9 + 5)
    summary = estimates._sweep(g, K, n, t_grid, function_ids, F, full=False)[1]
    assert widths == [9] * (F.shape[1] // 9) + [F.shape[1] % 9] * bool(F.shape[1] % 9)
    for field in ("passed", "num_reports", "num_failures", "failures_by_estimate"):
        assert getattr(summary, field) == getattr(one, field), field
    first, one_first = summary.first_counterexample, one.first_counterexample
    assert (first.function_id, first.t, first.x, first.verdicts) == (
        one_first.function_id, one_first.t, one_first.x, one_first.verdicts)
    for name, entry in summary.worst.items():
        assert [entry[k] for k in ("function_id", "t", "x")] == [one.worst[name][k] for k in ("function_id", "t", "x")]
        assert entry["slack"] == pytest.approx(one.worst[name]["slack"], abs=1e-12 * entry["tolerance"] / REPORT_TOL)


def test_sweep_worst_keeps_the_earliest_of_exact_ties(monkeypatch):
    # two identical chunks of 7 functions have bit-identical slacks, so each
    # triple of the second chunk ties exactly with one of the first: every
    # worst entry and the first counterexample must come from the first
    g, K, n, t_grid, corpus, _ = _overclaim_sweep_inputs()
    seven = corpus[-7:]
    ids = tuple(f"{fid}#{copy}" for copy in (0, 1) for fid, _ in seven)
    F = np.stack([f.array for _, f in seven] * 2, axis=1)
    monkeypatch.setattr(estimates, "SWEEP_ENTRIES", 4 * len(t_grid) * g.num_vertices * 7)
    result, summary = estimates._sweep(g, K, n, tuple(t_grid), ids, F, full=True)
    assert np.array_equal(result.slacks[:, :7], result.slacks[:, 7:]) and not summary.passed
    assert summary.worst.keys() == set(estimates.ESTIMATES)
    assert all(entry["function_id"].endswith("#0") for entry in summary.worst.values())
    assert summary.first_counterexample.function_id.endswith("#0")


def test_default_corpus_is_the_columns_of_its_array():
    g = random_connected_graph(np.random.default_rng(59), 9)
    corpus = default_corpus(g, seed=3, num_random=4)
    function_ids, F = _corpus_array(g, 3, 4)
    assert [fid for fid, _ in corpus] == list(function_ids)
    assert F.shape == (9, len(corpus))
    for (_, f), column in zip(corpus, F.T):
        assert f.array.tobytes() == column.tobytes()


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


def test_ec_norm_with_isolated_vertices_matches_loops():
    # column maxima over the CSR rows: empty rows (first, middle, last) must read 0
    rng = np.random.default_rng(59)
    core = random_connected_graph(rng, 8)
    names = ["iso0", *core.vertices[:4], "iso1", *core.vertices[4:], "iso2"]
    measure = {v: 0.01 if v.startswith("iso") else core.measure(v) for v in names}
    g = WeightedGraph(names, {(u, v): w for u, v, w in core.edges()}, measure)
    assert ec_norm_check(g) == (ellipticity_constant(g).constant, loop_adjacency_norm(g))
    assert ec_norm_check(g) == ec_norm_check(core)


def test_ec_norm_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        c, norm = ec_norm_check(g)
        assert abs(c - norm) <= 1e-12 * max(1.0, c)


# -- cutoff ------------------------------------------------------------------------


def test_cutoff_full_universe_is_trivial():
    g = single_edge()
    c = build_cutoff(g, {"v0"}, 1.0, set(g.vertices))
    assert np.allclose(c.eta.array, 1.0)
    assert c.max_gamma == 0.0


def test_cutoff_negative_curvature_rejected():
    g = generate("star", 5)
    with pytest.raises(PreconditionError, match="CD\\(0"):
        build_cutoff(g, {"c"}, 1.0, set(g.vertices))


def test_cutoff_rejects_negative_curvature_at_any_scale():
    # star5 with weights x1e-12 has curvature -1e-12, which an absolute
    # 1e-9 tolerance on the profile minimum let through
    g = scaled_weights(generate("star", 5), 1e-12)
    with pytest.raises(PreconditionError, match="CD\\(0"):
        build_cutoff(g, {"c"}, 1.0, set(g.vertices))


def test_curvature_precondition_names_the_first_failing_vertex():
    # the star's leaves are one class of twins, judged once at its lowest
    # index; the refusal names the first vertex in index order below K
    star = generate("star", 5)
    g = scaled_weights(star, 1.0, order=["l3", "l1", "c", "l0", "l2", "l4"])
    _require_curvature(g, -1.5)
    for K, first in ((-0.5, "c"), (0.5, "l3")):
        with pytest.raises(PreconditionError, match=f"the curvature at '{first}' is below"):
            _require_curvature(g, K)


def test_cutoff_universe_too_small_rejected():
    g = generate("path", 20)
    with pytest.raises(PreconditionError, match="too small"):
        build_cutoff(g, {"v19"}, 1.0, [f"v{i}" for i in range(10)])


def test_cutoff_partial_universe_bounds():
    g = generate("path", 20)  # curvature profile sits exactly at 0
    h = build_heat(g)
    U = [f"v{i}" for i in range(10)]
    for eps in (0.5, 1.0, 2.0):
        c = build_cutoff(g, ["v0", "v1"], eps, U)
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


# -- finiteness probe -----------------------------------------------------------------


def test_finiteness_single_edge_threshold():
    g = single_edge()
    rep = finiteness_probe(g, 2.0)
    assert rep["vertices"] == ("v0", "v1")
    assert rep["degree"].tolist() == [1.0, 1.0]
    assert rep["epsilon_threshold"].tolist() == [2.0, 2.0]  # K^2 / (2 Deg)
    assert rep["min_epsilon_threshold"] == {"vertex": "v0", "epsilon_threshold": 2.0}
    assert rep["total_measure"] == pytest.approx(2.0)


def _parent_entries(degree: float, K: float, epsilons) -> tuple[float, bool, list]:
    """The per-vertex entry of the epsilon-grid report, by its own formulas."""
    vacuous = degree == 0.0
    entries = []
    for eps in epsilons:
        bound = math.sqrt(2.0 * eps * degree) / K
        entries.append({"epsilon": eps, "bound": bound, "forces_contradiction": (not vacuous) and bound < 1.0})
    return (math.inf if vacuous else K * K / (2.0 * degree)), vacuous, entries


_THRESHOLD_GRAPHS = {
    **{f"hypercube{d} {profile}": (lambda d=d, profile=profile: generate("hypercube", d, profile))
       for d in (3, 4, 5, 6) for profile in ("unit", "normalizing")},
    "complete10": lambda: generate("complete", 10),
    "complete30": lambda: generate("complete", 30),
    "edge": single_edge,
}


@pytest.mark.parametrize("name", list(_THRESHOLD_GRAPHS))
def test_finiteness_columns_rebuild_the_epsilon_table(name):
    # each entry of the per-(vertex, epsilon) table the columns replace follows from
    # theta = K^2 / (2 Deg): bound = sqrt(epsilon / theta), forces_contradiction =
    # epsilon < theta away from Deg = 0, vacuous = (Deg = 0)
    g = _THRESHOLD_GRAPHS[name]()
    K = curvature_profile(g, math.inf).global_curvature
    rep = finiteness_probe(g, K)
    assert rep["vertices"] == g.vertices
    theta = rep["epsilon_threshold"]
    assert rep["min_epsilon_threshold"] == {"vertex": g.vertices[int(np.argmin(theta))],
                                            "epsilon_threshold": float(theta.min())}
    for v, degree, t in zip(rep["vertices"], rep["degree"].tolist(), theta.tolist()):
        assert degree == g.weighted_degrees[g.index(v)]
        grid = [t * (1.0 + r) for r in (-0.5, -1e-9, -1e-15, -2.2e-16, 0.0, 2.2e-16, 1e-15, 1e-9, 0.5, 3.0)]
        threshold, vacuous, entries = _parent_entries(degree, K, grid)
        assert t == pytest.approx(threshold, rel=1e-15)
        assert (degree == 0.0) == vacuous
        for eps, entry in zip(grid, entries):
            assert math.sqrt(eps / t) == pytest.approx(entry["bound"], rel=1e-15)
            if abs(eps - t) > 1e-15 * t:
                assert (eps < t and degree > 0.0) == entry["forces_contradiction"], (v, eps)


def test_finiteness_threshold_scales_with_the_weights():
    # under (b, K) -> (c b, c K) every threshold K^2 / (2 Deg) scales by c, and the
    # vertex of the smallest, the largest degree (v7), stays put
    rng = np.random.default_rng(30)
    g = generate("complete", 8)
    g = WeightedGraph(g.vertices, {(u, v): w * rng.uniform(1.0, 2.0) for u, v, w in g.edges()},
                      {v: rng.uniform(1.0, 2.0) for v in g.vertices})
    K = curvature_profile(g, math.inf).global_curvature
    base = finiteness_probe(g, K)
    assert base["min_epsilon_threshold"]["vertex"] == "v7"
    for c in (1e-100, 1e-8, 1.0, 1e8, 1e100):
        rep = finiteness_probe(scaled_weights(g, c), c * K)
        assert np.all(np.abs(rep["epsilon_threshold"] - c * base["epsilon_threshold"])
                      <= 1e-15 * c * base["epsilon_threshold"]), c
        assert rep["min_epsilon_threshold"]["vertex"] == "v7"


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
        finiteness_probe(disconnected, 1.0)
    with pytest.raises(PreconditionError, match="curvature"):
        finiteness_probe(generate("star", 5), 1.0)
    with pytest.raises(ValueError):
        finiteness_probe(single_edge(), -1.0)


@pytest.mark.parametrize("family, size, K, c", [
    ("complete", 30, 16.0, 1e5), ("complete", 30, 16.0, 1e8), ("hypercube", 3, 2.0, 1e8),
])
def test_finiteness_accepts_exact_bound_at_scale(family, size, K, c):
    # the exact curvature K c was refused against an absolute tolerance
    rep = finiteness_probe(scaled_weights(generate(family, size), c), K * c)
    assert rep["curvature_bound"] == K * c


def test_curvature_preconditions_on_repeated_forms():
    # K_12 with one heavier vertex: v0..v6 share one form and v8..v11 another,
    # each solved once; the refusal names the first vertex cd_check refutes
    g = generate("complete", 12)
    g = WeightedGraph(g.vertices, {(u, v): w for u, v, w in g.edges()},
                      {v: 2.0 if v == "v7" else 1.0 for v in g.vertices})
    K = [curvature_solve(g, x, math.inf).curvature for x in g.vertices]
    for bound in (0.5 * (min(K) + max(K)), 1.01 * max(K)):
        first = next(x for x in g.vertices if not cd_check(g, bound, math.inf, x)[0])
        with pytest.raises(PreconditionError, match=f"curvature at {first!r} is below"):
            finiteness_probe(g, bound)
    assert finiteness_probe(g, min(K))["curvature_bound"] == min(K)
    assert build_cutoff(g, {"v0"}, 1.0, g.vertices).max_gamma == 0.0


def test_finiteness_isolated_vertex_vacuous():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    rep = finiteness_probe(g, 1.0)
    assert rep["degree"].tolist() == [0.0]
    assert rep["epsilon_threshold"].tolist() == [math.inf]  # no epsilon is a contradiction
    assert rep["min_epsilon_threshold"] == {"vertex": "a", "epsilon_threshold": math.inf}


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


def test_taylor_judges_the_second_order_where_it_is_a_double():
    # with weights times 4^266 (about 1e160) the second-order coefficients, of
    # the order of max Deg^2, are -inf in g's units and their scale inf: the
    # mismatch taken from them was nan, which max() dropped, and the check passed
    # on its first order alone.  Judged on the normalized graph it is the unit
    # graph's, bit for bit, at both ends of the range
    g = generate("weighted_tree", 12, seed=3)
    f = GraphFunction(g, np.random.default_rng(5).uniform(0.0, 1.0, g.num_vertices))
    base = taylor_check(g, f, "v0", K=0.5)
    assert 0.0 < base["relative_mismatch"]["second_order"] <= 1e-6
    for j in (266, -335):
        scaled = scaled_weights(g, math.ldexp(1.0, 2 * j))
        rep = taylor_check(scaled, GraphFunction(scaled, f.array), "v0", K=math.ldexp(0.5, 2 * j))
        assert rep["relative_mismatch"] == base["relative_mismatch"]
        assert rep["scale"]["second_order"] == (math.inf if j > 0 else 0.0)
        assert rep["variance"]["second_order"] == {"fitted": -math.inf if j > 0 else 0.0,
                                                  "exact": -math.inf if j > 0 else 0.0}


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
