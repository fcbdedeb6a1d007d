import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_kernel_columns,
    assert_kernel_modes,
    dense_weights,
    random_connected_graph,
    random_function,
    scaled_weights,
    two_triangles,
)
from graphcurv import (
    GraphFunction,
    WeightedGraph,
    ball,
    build_heat,
    gamma_k,
    generate,
    heat,
    laplacian,
    semigroup_gamma_path,
)
from graphcurv import serialize_graph
from graphcurv.cli import run
from graphcurv.heat import HeatOperator, clamp_mass
from graphcurv.operators import gamma_recursive_array


def single_edge():
    return generate("complete", 2)


def graph_with_isolated_vertices():
    rng = np.random.default_rng(61)
    core = random_connected_graph(rng, 9)
    names = ["iso0", *core.vertices[:5], "iso1", *core.vertices[5:], "iso2"]
    return WeightedGraph(names, {(u, v): w for u, v, w in core.edges()},
                         {v: float(rng.uniform(0.1, 2.0)) for v in names})


# -- construction ---------------------------------------------------------------


def test_spectrum_single_edge():
    h = build_heat(single_edge())
    assert h.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_spectrum_single_vertex():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    assert build_heat(g).eigenvalues == pytest.approx([0.0])


def test_factorization_reconstructs_the_dense_generator():
    # S = D_m^{1/2} (-Delta) D_m^{-1/2} is assembled from the edges; compare it
    # with the dense reference, full and Dirichlet, with isolated vertices
    g = graph_with_isolated_vertices()
    names = g.vertices
    W, m = dense_weights(g), g.measure_vector
    S_ref = -W / np.sqrt(np.outer(m, m))
    np.fill_diagonal(S_ref, W.sum(axis=1) / m)
    for domain in (None, names[::2]):
        h = build_heat(g, dirichlet_domain=domain)
        idx = np.arange(g.num_vertices) if domain is None else sorted(g.index(v) for v in domain)
        S = (h.eigenbasis * h.eigenvalues) @ h.eigenbasis.T
        assert np.max(np.abs(S - S_ref[np.ix_(idx, idx)])) <= 1e-13 * np.max(np.abs(S_ref))


def test_spectrum_dirichlet_restriction():
    h = build_heat(single_edge(), dirichlet_domain={"v0"})
    assert h.eigenvalues == pytest.approx([1.0])


def test_full_semigroup_is_built_once_per_graph():
    g = generate("cycle", 6)
    h = build_heat(g)
    assert build_heat(g) is h and h.graph is g and h.dirichlet_domain is None
    # a Dirichlet operator, even on every vertex, is built apart and anew
    for domain in ({"v0", "v1"}, set(g.vertices)):
        d = build_heat(g, dirichlet_domain=domain)
        assert d is not h and d.dirichlet_domain == frozenset(domain)
        assert build_heat(g, dirichlet_domain=domain) is not d
    assert build_heat(g) is h


def test_dirichlet_empty_domain_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        build_heat(single_edge(), dirichlet_domain=set())
    with pytest.raises(ValueError, match="nonempty"):
        HeatOperator(single_edge(), frozenset())


def test_spectral_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_connected_graph(rng, 12)
        h = build_heat(g)
        assert float(h.eigenvalues.min()) >= -1e-10
        assert float(h.eigenvalues[0]) <= 1e-10
        gram = h.eigenbasis.T @ h.eigenbasis
        assert np.allclose(gram, np.eye(g.num_vertices), atol=1e-10)
        ground = h.eigenbasis[:, 0] / h.measure_half
        assert np.ptp(ground) <= 1e-10  # constant on the (connected) graph


def test_ground_modes_constant_per_component():
    g = WeightedGraph(
        ["a", "b", "c", "d"],
        {("a", "b"): 1.0, ("c", "d"): 2.0},
        {"a": 1.0, "b": 2.0, "c": 1.0, "d": 1.0},
    )
    h = build_heat(g)
    zero_modes = h.eigenbasis[:, h.eigenvalues <= 1e-10]
    assert zero_modes.shape[1] == 2
    comp = {"a": 0, "b": 0, "c": 1, "d": 1}
    for j in range(zero_modes.shape[1]):
        pulled = zero_modes[:, j] / h.measure_half
        for c in (0, 1):
            vals = [pulled[g.index(v)] for v in g.vertices if comp[v] == c]
            assert max(vals) - min(vals) <= 1e-10


def test_kernel_modes_are_the_components_inside_the_domain():
    # an edge of weight 1e-14 joins the triangles: its eigenvalue, about 6e-15,
    # lies far below lambda_max but is no kernel mode, and on the domain
    # {a, b, c} that edge drains the heat, so there is no kernel at all
    joined = two_triangles(1e-14)
    assert_kernel_modes(build_heat(joined), 1)
    assert_kernel_modes(build_heat(joined, dirichlet_domain={"a", "b", "c"}), 0)
    # a domain holding one whole component and part of the other keeps the
    # constant of the whole one only
    split = two_triangles()
    assert_kernel_columns(build_heat(split), [list("abc"), list("def")])
    assert_kernel_modes(build_heat(split, dirichlet_domain=set("abcde")), 1)


@pytest.mark.parametrize("bridge", [1e-14, 1e-17, 1e-20])
def test_eigenbasis_keeps_the_mass_across_a_light_bridge(bridge):
    # the bridge's eigenvalue lies at or below eigh's rounding, about 1e-16
    # lambda_max, where eigh mixes its kernel vector with the next mode; the
    # kernel vector is sqrt(m) on the whole graph all the same, so P_t keeps
    # the ones column and the mass of a point mass however long t is
    g = two_triangles(bridge)
    h = build_heat(g)
    assert_kernel_columns(h, [g.vertices])
    times = (1.0, 1e12, 1e20)
    for ones, point in zip(h._apply(times, np.ones(6), keep_kernel=True),
                           h._apply(times, np.eye(6)[0], keep_kernel=True)):
        assert np.max(np.abs(ones - 1.0)) <= 1e-13
        assert abs(g.measure_vector @ point - 1.0) <= 1e-13


def test_dirichlet_semigroup_grows_along_no_mode_across_a_light_bridge():
    # on {a, b, c, d} the triangle abc drains only through the bridge, so its
    # slowest eigenvalue, about 1e-17, is below eigh's rounding, which may
    # return it below 0; raised to 0, P_t 1 stays in [0, 1] however long t is
    h = build_heat(two_triangles(1e-17), dirichlet_domain=set("abcd"))
    assert_kernel_modes(h, 0)
    assert h.eigenvalues.min() >= 0.0
    for mass in h._apply((1e15, 1e18, 1e20), np.ones(6), keep_kernel=True):
        assert np.all((mass >= 0.0) & (mass <= 1.0))


# -- apply ------------------------------------------------------------------------


def test_apply_single_edge_formula():
    g = single_edge()
    h = build_heat(g)
    f = GraphFunction(g, {"v0": 0.0, "v1": 1.0})
    for t in (1e-9, 0.05, 0.3, 1.0, 4.0, 30.0):
        out = h.apply(t, f)
        assert out.value("v0") == pytest.approx(0.5 - math.exp(-2 * t) / 2, abs=1e-12)
        assert out.value("v1") == pytest.approx(0.5 + math.exp(-2 * t) / 2, abs=1e-12)


def test_apply_time_zero_identity():
    rng = np.random.default_rng(32)
    g = random_connected_graph(rng, 8)
    h = build_heat(g)
    f = random_function(rng, g)
    assert np.array_equal(h.apply(0.0, f).array, f.array)


def test_apply_negative_time_rejected():
    g = single_edge()
    with pytest.raises(ValueError):
        build_heat(g).apply(-0.1, GraphFunction.constant(g, 1.0))


def test_conserves_constants():
    rng = np.random.default_rng(33)
    g = random_connected_graph(rng, 10)
    h = build_heat(g)
    one = GraphFunction.constant(g, 1.0)
    for t in (0.1, 1.0, 10.0):
        assert np.allclose(h.apply(t, one).array, 1.0, atol=1e-10)


def test_semigroup_law():
    rng = np.random.default_rng(34)
    for _ in range(5):
        g = random_connected_graph(rng, 9)
        h = build_heat(g)
        f = random_function(rng, g)
        s, t = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        once = h.apply(t + s, f).array
        twice = h.apply(t, h.apply(s, f)).array
        assert np.all(np.abs(once - twice) <= 1e-9 * np.maximum(1.0, np.abs(once)))


def test_sup_norm_contraction_and_positivity():
    rng = np.random.default_rng(35)
    for _ in range(5):
        g = random_connected_graph(rng, 10)
        h = build_heat(g)
        f = random_function(rng, g)
        for t in (0.2, 1.5, 7.0):
            out = h.apply(t, f).array
            assert np.max(np.abs(out)) <= np.max(np.abs(f.array)) + 1e-10
        nonneg = GraphFunction(g, np.abs(f.array))
        for t in (0.2, 1.5, 7.0):
            assert float(h.apply(t, nonneg).array.min()) >= -1e-10


def test_heat_equation_centered_difference():
    rng = np.random.default_rng(36)
    g = random_connected_graph(rng, 8)
    h = build_heat(g)
    f = random_function(rng, g)
    t = 0.7
    target = laplacian(g, h.apply(t, f)).array
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        diff = (h.apply(t + step, f).array - h.apply(t - step, f).array) / (2 * step)
        errs.append(float(np.max(np.abs(diff - target))))
    assert errs[1] <= errs[0] / 3.0  # O(h^2): halving cuts the error ~4x
    assert errs[2] <= errs[1] / 3.0


def test_self_adjoint_in_weighted_inner_product():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 11)
    h = build_heat(g)
    m = g.measure_vector
    f = random_function(rng, g)
    w = random_function(rng, g)
    for t in (0.3, 2.0):
        lhs = float(np.sum(h.apply(t, f).array * w.array * m))
        rhs = float(np.sum(f.array * h.apply(t, w).array * m))
        assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


# -- the Chebyshev expansion against the eigenbasis -------------------------------------


_FAMILIES = [generate(family, size, profile)
             for family, size in (("path", 12), ("cycle", 11), ("complete", 9), ("star", 7),
                                  ("hypercube", 4), ("weighted_tree", 14))
             for profile in ("unit", "normalizing")] + [graph_with_isolated_vertices()]


@pytest.mark.parametrize("g", _FAMILIES, ids=lambda g: repr(g))
def test_expansion_matches_the_eigenbasis(g):
    rng = np.random.default_rng(62)
    F = np.column_stack([rng.uniform(-1.0, 1.0, g.num_vertices), np.ones(g.num_vertices),
                         np.eye(g.num_vertices)[0]])
    times = (1e-9, 0.1, 1.0, 10.0, 100.0)
    for domain in (None, g.vertices[1::2]):
        h = build_heat(g, dirichlet_domain=domain)
        expanded = h.expand(times, F)
        assert "_spectrum" not in h.__dict__  # the expansion factorizes nothing
        for (got, bound), expected in zip(expanded, h._apply(times, F, keep_kernel=True)):
            assert 0.0 <= bound <= 1e-15
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(F))
        for t, (got, _) in zip(times, expanded):
            assert np.array_equal(h.apply_array(t, F[:, 0]), got[:, 0])  # one pass, same values


def test_expansion_is_exact_at_time_zero_and_without_degrees():
    g = graph_with_isolated_vertices()
    F = np.random.default_rng(63).uniform(-1.0, 1.0, (g.num_vertices, 2))
    ((out, bound),) = build_heat(g).expand((0.0,), F)
    assert np.array_equal(out, F) and bound == 0.0
    isolated = ["iso0", "iso1", "iso2"]
    rows = [g.index(v) for v in isolated]
    h = build_heat(g, dirichlet_domain=isolated)
    for (out, bound) in h.expand((0.0, 1.0, 1e6), F):
        assert np.array_equal(out[rows], F[rows]) and bound == 0.0
        assert not np.any(np.delete(out, rows, axis=0))


@pytest.mark.parametrize("c", [1e-8, 1e8])
def test_expansion_follows_the_units(c):
    # P_{t/c} under the weights c b is P_t under b: the coefficients depend on t Lambda only
    g = graph_with_isolated_vertices()
    rng = np.random.default_rng(64)
    F = rng.uniform(-1.0, 1.0, (g.num_vertices, 3))
    times = (0.1, 1.0, 10.0)
    for domain in (None, g.vertices[::2]):
        expected = build_heat(g, dirichlet_domain=domain).expand(times, F)
        got = build_heat(scaled_weights(g, c), dirichlet_domain=domain).expand([t / c for t in times], F)
        for (a, _), (b, _) in zip(got, expected):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(F))
    # P_t (s F) = s P_t F at the ends of the float range, where the terms of
    # the plain recurrence overflow (s = 1e308) or lose their bits (s = 1e-320).
    # Multiples of 1/8 keep s F exact; the outputs below the normal range
    # round to its grid, so they may differ from s P_t F by one spacing there
    F = np.column_stack([rng.integers(-8, 9, g.num_vertices) / 8.0, np.ones(g.num_vertices)])
    for s in (1e-320, 1e308):
        assert np.array_equal(s * F / s, F)
        for domain in (None, g.vertices[::2]):
            expected = build_heat(g, dirichlet_domain=domain).expand(times, F)
            got = build_heat(scaled_weights(g, c), dirichlet_domain=domain).expand(
                [t / c for t in times], s * F)
            for (a, _), (b, _) in zip(got, expected):
                assert np.all(np.isfinite(a))
                assert np.max(np.abs(a - s * b)) <= 1e-12 * s + np.spacing(s)


def test_edge_bound_holds_on_the_spectrum():
    # Anderson-Morley: lambda_max(-Delta) <= max over edges of Deg(x) + Deg(y),
    # with any measure and on a Dirichlet domain (degrees outside it taken as 0)
    for g in _FAMILIES:
        for domain in (None, g.vertices[1::2]):
            h = build_heat(g, dirichlet_domain=domain)
            rows = [g.index(v) for v in domain] if domain is not None else slice(None)
            bound = h._bound
            assert h.eigenvalues[-1] <= bound * (1.0 + 1e-14)
            assert bound <= 2.0 * g.weighted_degrees[rows].max()
    h = build_heat(generate("star", 7))  # the unit star: lambda_max = 8 = Deg(c) + Deg(leaf)
    assert h._bound == 8.0
    assert h.eigenvalues[-1] == pytest.approx(8.0, rel=1e-14)


def test_expansion_coefficient_pass_is_linear_in_the_stop_degree(monkeypatch):
    starts = []
    scaled_bessel = heat._scaled_bessel

    def counted(c, n):
        starts.append(n)
        return scaled_bessel(c, n)

    monkeypatch.setattr(heat, "_scaled_bessel", counted)
    # one recurrence per c, with the stop degree in its lower half, from 1e-12 up to
    # the largest c the expansion accepts
    ceiling = heat.MAX_DEGREE**2 / (2.0 * math.log(1e15))
    for c in (0.5, 30.0, 1e5, *np.geomspace(1e-12, ceiling, 40).tolist()):
        starts.clear()
        coeffs, tail = heat._chebyshev_coefficients(c)
        stop = len(coeffs) - 1
        assert tail < 1e-15 and np.sum(np.abs(coeffs)) == pytest.approx(1.0, abs=1e-13)
        (n,) = starts
        assert 2 * stop <= n <= min(4 * stop + 64, 2 * heat.MAX_DEGREE + 32)
        assert stop <= math.sqrt(2 * c * math.log(1e15)) + 16


def test_expansion_refuses_a_t_past_the_ceiling_before_allocating(monkeypatch):
    # two vertices joined by a weight of 1e300, Lambda = 2e300: t = 1 asked numpy for
    # an array past its largest dimension, and t = 1e-287 (c = 1e13) for a recurrence
    # of 5.3e7 terms, looped in Python
    def refused(c, n):
        raise AssertionError(f"recurrence of {n} terms sized at c = {c:g}")

    monkeypatch.setattr(heat, "_scaled_bessel", refused)
    h = build_heat(WeightedGraph(["a", "b"], {("a", "b"): 1e300}, {"a": 1.0, "b": 1.0}))
    for t in (1.0, 1e-287, 1.01 * heat.MAX_DEGREE**2 / (2.0 * math.log(1e15)) / 1e300):
        with pytest.raises(ValueError, match=f"t = {t:g} is too large .* Lambda = 2e\\+300, exceeds 1048576"):
            h.expand([t], np.ones(2))


@pytest.mark.parametrize("g", _FAMILIES[:-1], ids=lambda g: repr(g))
def test_expansion_rounding_at_large_c(g):
    # t max Deg = 1e5, far past mixing: P_t f is the m-mean of f on the full
    # (connected) graph and 0 on the Dirichlet domain.  The truncation bound
    # leaves rounding out; the rounding stays below 1e-12 ||f||_inf, where
    # the eigenbasis path is off by up to about 1e-11 on these graphs
    rng = np.random.default_rng(65)
    F = np.column_stack([rng.uniform(-1.0, 1.0, g.num_vertices), np.eye(g.num_vertices)[0]])
    m = g.measure_vector
    for domain, limit in ((None, np.tile(m @ F / m.sum(), (g.num_vertices, 1))),
                          (g.vertices[1::2], np.zeros_like(F))):
        h = build_heat(g, dirichlet_domain=domain)
        rows = [g.index(v) for v in domain] if domain is not None else slice(None)
        t = 1e5 / g.weighted_degrees[rows].max()
        ((out, bound),) = h.expand((t,), F)
        gap = h.eigenvalues[1] if domain is None else h.eigenvalues[0]
        assert gap * t > 40  # the limit is exact to machine precision
        assert bound < 1e-15
        assert np.max(np.abs(out - limit)) <= 1e-12 * np.max(np.abs(F))


# -- heat mass ---------------------------------------------------------------------


def _mass(h, t):
    return clamp_mass(h.apply_array(t, np.ones(h.graph.num_vertices)))


def test_mass_conserved_without_dirichlet():
    rng = np.random.default_rng(38)
    g = random_connected_graph(rng, 9)
    h = build_heat(g)
    for t in (0.0, 0.5, 3.0):
        assert _mass(h, t) == pytest.approx(np.ones(9), abs=1e-10)


@pytest.mark.parametrize("g", [generate("cycle", 10), generate("hypercube", 5), generate("path", 40),
                               generate("complete", 30)], ids=lambda g: repr(g))
def test_eigenbasis_keeps_the_mass_at_long_times(g):
    # the kernel eigenvalue is exactly 0, so P_t 1 = 1 to rounding however far
    # past mixing t lies; decayed by an eigenvalue of rounding size, about
    # 1e-16, P_t 1 would drift by t 1e-16
    times = (1e5, 1e8, 1e12, 1e16)
    for mass in build_heat(g)._apply(times, np.ones(g.num_vertices), keep_kernel=True):
        assert np.max(np.abs(mass - 1.0)) <= 1e-13


def test_eigenbasis_keeps_each_component_mass():
    rng = np.random.default_rng(39)
    parts = [random_connected_graph(rng, 6), random_connected_graph(rng, 9, measure_range=(1e-2, 1e2))]
    g = WeightedGraph(
        [f"{k}{v}" for k, p in enumerate(parts) for v in p.vertices],
        {(f"{k}{u}", f"{k}{v}"): w for k, p in enumerate(parts) for u, v, w in p.edges()},
        {f"{k}{v}": p.measure(v) for k, p in enumerate(parts) for v in p.vertices},
    )
    m, f = g.measure_vector, rng.uniform(0.0, 1.0, g.num_vertices)
    components = [np.array([v.startswith(str(k)) for v in g.vertices]) for k in range(len(parts))]
    for out in build_heat(g)._apply((1.0, 1e5, 1e12, 1e16), f, keep_kernel=True):
        for c in components:
            assert abs(m[c] @ out[c] - m[c] @ f[c]) <= 1e-13 * (m[c] @ f[c])


def test_mass_dirichlet_single_edge():
    h = build_heat(single_edge(), dirichlet_domain={"v0"})
    for t in (1e-9, 0.3, 1.0, 4.0, 30.0):
        assert _mass(h, t).tolist() == pytest.approx([math.exp(-t), 0.0], abs=1e-12)
    assert _mass(h, 0.0).tolist() == [1.0, 0.0]


def test_mass_dirichlet_monotone_and_below_one():
    rng = np.random.default_rng(39)
    g = random_connected_graph(rng, 10)
    h = build_heat(g, dirichlet_domain=list(g.vertices[:6]))
    masses = np.array([_mass(h, t) for t in np.linspace(0.0, 5.0, 11)])
    assert np.all(masses[:, :6] <= 1.0 + 1e-12)
    assert np.all(masses[:-1, :6] >= masses[1:, :6] - 1e-10)
    assert np.all(masses[:, 6:] == 0.0)


def _spread(g, lo, hi, seed):
    """g with each weight and measure times 10^u, u uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    return WeightedGraph(g.vertices, {(u, v): w * 10.0 ** rng.uniform(lo, hi) for u, v, w in g.edges()},
                         {v: g.measure(v) * 10.0 ** rng.uniform(lo, hi) for v in g.vertices})


_MASS_GRAPHS = _FAMILIES + [_spread(graph_with_isolated_vertices(), lo, hi, seed)
                            for lo, hi, seed in ((-300, 0, 66), (0, 300, 67), (-150, 150, 68))]


@pytest.mark.parametrize("g", _MASS_GRAPHS, ids=lambda g: repr(g))
def test_no_eigenvalue_is_below_zero(g):
    # -Delta is positive semidefinite; an eigenvalue that eigh returns below 0
    # would make P_t grow along its mode as t grows
    for domain in (None, g.vertices[1::2]):
        assert build_heat(g, dirichlet_domain=domain).eigenvalues.min() >= 0.0


def _mass_times(h):
    """0, 1e-3 / Lambda, 1 / Lambda, 100 / Lambda, and 1 where t Lambda stays at most 1e3."""
    lam = h._bound
    return [0.0, 1e-3 / lam, 1.0 / lam, 100.0 / lam] + ([1.0] if lam <= 1e3 else [])


def _heat_report(tmp_path, capsys, g, times, dirichlet=None):
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    extra = [] if dirichlet is None else ["--dirichlet", ",".join(dirichlet)]
    code = run(["heat", "--graph", str(path), "--t", ",".join(map(repr, times)),
                "--indicator", g.vertices[-1], *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("g", _MASS_GRAPHS, ids=lambda g: repr(g))
def test_cli_full_mass_is_the_expanded_constant_bit_for_bit(tmp_path, capsys, g):
    # the heat command reads a full graph's P_t 1 off the series at lambda = 0;
    # the reference is the computation it replaced, the ones column expanded
    # beside the initial one, clamped to [0, 1]
    h = build_heat(g)
    times = _mass_times(h)
    results = _heat_report(tmp_path, capsys, g, times)
    F = np.column_stack([np.eye(g.num_vertices)[-1], np.ones(g.num_vertices)])
    for result, (out, _) in zip(results, h.expand(times, F), strict=True):
        expected = clamp_mass(out[:, 1])
        assert np.array_equal(np.array(list(result["values"].values())), out[:, 0])
        assert list(result["mass"]) == list(g.vertices)
        assert np.array_equal(np.array(list(result["mass"].values())), expected)
        assert len({*result["mass"].values()}) == 1 and abs(expected[0] - 1.0) <= 1e-14


@pytest.mark.parametrize("g", _MASS_GRAPHS, ids=lambda g: repr(g))
def test_cli_dirichlet_mass_is_the_expanded_constant(tmp_path, capsys, g):
    domain = sorted(g.vertices[::2])
    h = build_heat(g, dirichlet_domain=domain)
    times = _mass_times(h)
    results = _heat_report(tmp_path, capsys, g, times, dirichlet=domain)
    where = [g.index(v) for v in domain]
    F = np.column_stack([np.eye(g.num_vertices)[-1], np.ones(g.num_vertices)])
    for result, (out, _) in zip(results, h.expand(times, F), strict=True):
        assert np.array_equal(np.array(list(result["values"].values())), out[:, 0])
        assert list(result["mass"]) == domain
        assert np.array_equal(np.array(list(result["mass"].values())), clamp_mass(out[where, 1]))


def test_full_mass_needs_the_full_graph():
    g = graph_with_isolated_vertices()
    assert build_heat(g).full_mass([0.0]) == [1.0]
    assert build_heat(WeightedGraph(["a", "b"], {}, {"a": 1.0, "b": 2.0})).full_mass([0.0, 1.0]) == [1.0, 1.0]
    with pytest.raises(ValueError, match="full graph only"):
        build_heat(g, dirichlet_domain=g.vertices[:3]).full_mass([1.0])


@pytest.mark.parametrize("g", [
    random_connected_graph(np.random.default_rng(40), 200, extra_edge_prob=0.02),
    generate("cycle", 2000),
    generate("weighted_tree", 3000, seed=4),
    generate("hypercube", 8),
], ids=["fuzzed200", "cycle2000", "weighted_tree3000", "hypercube8"])
def test_mass_grows_along_an_exhaustion_by_balls(g):
    # B_R grows with R, and so does P_t^{B_R} 1 at every vertex (0 outside B_R),
    # up to the whole graph
    times, ones, previous = (0.1, 1.0, 10.0), np.ones(g.num_vertices), None
    for r in (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        domain = ball(g, g.vertices[0], r)
        masses = [clamp_mass(out) for out, _ in build_heat(g, domain).expand(times, ones)]
        assert all(np.all(mass <= 1.0) for mass in masses)
        if previous is not None:
            assert all(np.all(mass >= before - 1e-12) for mass, before in zip(masses, previous))
        previous = masses
    assert len(domain) == g.num_vertices


def test_dirichlet_terms_live_on_the_domain(monkeypatch):
    # the operator holds the domain in its own coordinates, and every term
    # of the expansion is a (B, |D|) batch, however large the graph
    g = generate("cycle", 1000)
    domain = ball(g, "v500", 3)
    h = build_heat(g, dirichlet_domain=domain)
    n = len(domain)
    assert h._degrees.shape == h._measure.shape == h.measure_half.shape == (n,)
    assert len(h._rows) == len(h._columns) == len(h._weights) == 2 * (n - 1)
    assert h._rows.max() < n and h._columns.max() < n
    shapes, terms = [], HeatOperator._terms

    def recorded(self, batch):
        for term in terms(self, batch):
            shapes.append(term.shape)
            yield term

    monkeypatch.setattr(HeatOperator, "_terms", recorded)
    out = h.apply_array(1.0, np.ones((g.num_vertices, 2))).T
    assert len(shapes) > 10 and set(shapes) == {(2, n)}
    assert out.shape == (2, g.num_vertices) and np.count_nonzero(out) == 2 * n


# -- the Gamma path and its derivative ----------------------------------------------


def test_gamma_path_endpoints_k0():
    rng = np.random.default_rng(40)
    g = random_connected_graph(rng, 8)
    h = build_heat(g)
    f = GraphFunction(g, rng.uniform(0, 1, g.num_vertices))
    t, x = 1.2, g.vertices[2]
    start, end = semigroup_gamma_path(h, 0, f, t, [0.0, t], x)
    ptf = h.apply(t, f)
    assert start == pytest.approx(ptf.value(x) ** 2, abs=1e-10)
    f_sq = GraphFunction(g, f.array**2)
    assert end == pytest.approx(h.apply(t, f_sq).value(x), abs=1e-10)


def test_gamma_path_increasing_on_positive_curvature_graph():
    g = single_edge()
    h = build_heat(g)
    f = GraphFunction(g, {"v0": 0.0, "v1": 1.0})
    vals = semigroup_gamma_path(h, 1, f, 1.0, [0.0, 0.25, 0.5, 0.75, 1.0], "v0")
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gamma_path_constant_function_vanishes():
    g = single_edge()
    h = build_heat(g)
    vals = semigroup_gamma_path(h, 1, GraphFunction.constant(g, 2.0), 1.0, [0.0, 0.5, 1.0], "v0")
    assert vals == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_gamma_path_grid_validation():
    g = single_edge()
    h = build_heat(g)
    f = GraphFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        semigroup_gamma_path(h, 1, f, 1.0, [0.0, 1.5], "v0")
    with pytest.raises(ValueError):
        semigroup_gamma_path(h, 1, f, 1.0, [0.5, 0.25], "v0")
    with pytest.raises(ValueError):
        semigroup_gamma_path(h, 2, f, 1.0, [0.5], "v0")
    assert semigroup_gamma_path(h, 1, f, 1.0, [], "v0") == []
    assert h.expand((), np.ones(2)) == []


@pytest.mark.parametrize("k", [0, 1])
def test_path_derivative_is_twice_next_gamma(k):
    rng = np.random.default_rng(41 + k)
    g = random_connected_graph(rng, 9)
    h = build_heat(g)
    f = GraphFunction(g, rng.uniform(0, 1, g.num_vertices))
    t, s0 = 1.0, 0.4
    x = g.vertices[1]
    inner = h.apply_array(t - s0, f.array)
    exact = 2.0 * float(h.apply_array(s0, gamma_recursive_array(g, k + 1, inner, inner))[g.index(x)])
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        lo, hi = semigroup_gamma_path(h, k, f, t, [s0 - step, s0 + step], x)
        errs.append(abs((hi - lo) / (2 * step) - exact))
    assert errs[1] <= errs[0] / 3.0
    assert errs[2] <= errs[1] / 3.0


def test_fluctuation_apply_matches_apply_on_mean_zero_input():
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 8)
    h = build_heat(g)
    f = random_function(rng, g)
    lap = laplacian(g, f).array  # mean-zero in the m-inner product
    for t in (0.3, 2.0):
        a = h.apply_array(t, lap)
        (b,) = h._apply((t,), lap, keep_kernel=False)
        assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponent=st.floats(-8.0, 8.0), order_seed=st.integers(0, 2**16))
def test_semigroup_scaling_and_relabelling_property(exponent, order_seed):
    # P_t under c b is P_{ct} under b, and relabelling the vertices permutes P_t
    c = 10.0**exponent
    rng = np.random.default_rng(44)
    g = random_connected_graph(rng, 12)
    F = rng.uniform(-1.0, 1.0, (g.num_vertices, 3))
    h = build_heat(g)
    for t in (0.05, 1.0, 20.0):
        expected = h.apply_array(t, F)
        got = build_heat(scaled_weights(g, c)).apply_array(t / c, F)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
    perm = np.random.default_rng(order_seed).permutation(g.num_vertices)
    relabelled = scaled_weights(g, 1.0, order=[g.vertices[i] for i in perm])
    got = build_heat(relabelled).apply_array(1.0, F[perm])
    assert np.allclose(got, h.apply_array(1.0, F)[perm], rtol=0.0, atol=1e-12)
