import math

import numpy as np
import pytest

from conftest import (
    antitree,
    dense_degrees,
    dense_gamma,
    dense_laplacian,
    naive_gamma,
    naive_gamma2,
    naive_laplacian,
    naive_twin_representatives,
    planted_twins,
    random_connected_graph,
    random_function,
    reference_local_forms,
    scaled_weights,
)
from graphcurv import (
    GraphFunction,
    WeightedGraph,
    gamma_closed_form,
    gamma_k,
    generate,
    laplacian,
    local_forms,
)
from graphcurv import operators
from graphcurv.graphs import ball
from graphcurv.operators import gamma_array, gamma_recursive_array, laplacian_array, twin_representatives


def single_edge():
    return WeightedGraph(["a", "b"], {("a", "b"): 1.0}, {"a": 1.0, "b": 1.0})


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- laplacian ------------------------------------------------------------------


def test_laplacian_single_edge():
    g = single_edge()
    f = GraphFunction(g, {"a": 0.0, "b": 1.0})
    assert laplacian(g, f).as_dict() == {"a": 1.0, "b": -1.0}


def test_laplacian_kills_constants():
    g = single_edge()
    out = laplacian(g, GraphFunction.constant(g, 3.7))
    assert np.allclose(out.array, 0.0, atol=1e-14)


def test_laplacian_path_indicator():
    g = WeightedGraph(
        ["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0}
    )
    out = laplacian(g, GraphFunction.indicator(g, "a"))
    assert out.as_dict() == {"a": -1.0, "b": 1.0, "c": 0.0}


def test_laplacian_domain_mismatch():
    g = single_edge()
    other = WeightedGraph(["x", "y"], {("x", "y"): 1.0}, {"x": 1.0, "y": 1.0})
    with pytest.raises(ValueError):
        laplacian(g, GraphFunction.constant(other, 1.0))


# -- gamma_k ----------------------------------------------------------------------


def test_gamma0_is_product():
    g = single_edge()
    f = GraphFunction(g, {"a": 0.0, "b": 1.0})
    assert gamma_k(g, 0, f).as_dict() == {"a": 0.0, "b": 1.0}


def test_gamma1_single_edge():
    g = single_edge()
    f = GraphFunction(g, {"a": 0.0, "b": 1.0})
    out = gamma_k(g, 1, f)
    assert out.as_dict() == {"a": 0.5, "b": 0.5}


def test_gamma2_single_edge():
    g = single_edge()
    f = GraphFunction(g, {"a": 0.0, "b": 1.0})
    assert gamma_k(g, 2, f).as_dict() == {"a": 1.0, "b": 1.0}


def test_gamma_k_range():
    g = single_edge()
    f = GraphFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        gamma_k(g, 3, f)


def test_recursion_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(5, 51)))
        f = random_function(rng, g)
        h = random_function(rng, g)
        rec = gamma_k(g, 1, f, h).array
        closed = gamma_closed_form(g, f, h).array
        assert np.all(np.abs(rec - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


def test_pointwise_operators_match_naive_loops():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_connected_graph(rng, 12)
        f = random_function(rng, g)
        h = random_function(rng, g)
        fd, hd = f.as_dict(), h.as_dict()
        lap = laplacian(g, f).as_dict()
        gam = gamma_k(g, 1, f, h).as_dict()
        gam2 = gamma_k(g, 2, f, h).as_dict()
        nl, ng, ng2 = naive_laplacian(g, fd), naive_gamma(g, fd, hd), naive_gamma2(g, fd, hd)
        for x in g.vertices:
            assert rel_close(lap[x], nl[x], 1e-11)
            assert rel_close(gam[x], ng[x], 1e-11)
            assert rel_close(gam2[x], ng2[x], 1e-10)


def test_constant_invariance():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 14)
    f = random_function(rng, g)
    h = random_function(rng, g)
    c, c2 = 1.3, -0.8
    f_shift = GraphFunction(g, f.array + c)
    h_shift = GraphFunction(g, h.array + c2)
    assert np.allclose(laplacian(g, f_shift).array, laplacian(g, f).array, rtol=1e-12, atol=1e-12)
    for k in (1, 2):
        a = gamma_k(g, k, f_shift, h_shift).array
        b = gamma_k(g, k, f, h).array
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))


def test_bilinearity_and_symmetry():
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 10)
    f1, f2, h = (random_function(rng, g) for _ in range(3))
    a, b = 0.7, -2.1
    for k in (0, 1, 2):
        combo = GraphFunction(g, a * f1.array + b * f2.array)
        lhs = gamma_k(g, k, combo, h).array
        rhs = a * gamma_k(g, k, f1, h).array + b * gamma_k(g, k, f2, h).array
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
        assert np.allclose(
            gamma_k(g, k, f1, h).array, gamma_k(g, k, h, f1).array, rtol=1e-12, atol=1e-14
        )


def test_cauchy_schwarz_pointwise():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_connected_graph(rng, 12)
        f = random_function(rng, g)
        h = random_function(rng, g)
        cross = gamma_k(g, 1, f, h).array
        gf = gamma_k(g, 1, f).array
        gh = gamma_k(g, 1, h).array
        assert np.all(cross**2 <= gf * gh + 1e-12)


def test_summed_green_identity():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = random_connected_graph(rng, 15)
        f = random_function(rng, g)
        h = random_function(rng, g)
        m = g.measure_vector
        lhs = float(np.sum(gamma_k(g, 1, f, h).array * m))
        rhs = -float(np.sum(f.array * laplacian(g, h).array * m))
        assert rel_close(lhs, rhs, 1e-12)


def test_gamma_nonnegative_and_zero_iff_locally_constant():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 12)
    f = random_function(rng, g)
    # the edge-difference form is exactly nonnegative; the recursion only
    # up to rounding
    assert np.all(gamma_closed_form(g, f).array >= 0.0)
    assert np.all(gamma_k(g, 1, f).array >= -1e-12)
    # constant on ball(x,1) forces Gamma(f)(x) = 0; genuine variation forbids it
    x = g.vertices[0]
    arr = np.array([2.0 if v in ball(g, x, 1) else rng.uniform(5, 6) for v in g.vertices])
    assert gamma_closed_form(g, GraphFunction(g, arr)).value(x) == 0.0
    assert abs(gamma_k(g, 1, GraphFunction(g, arr)).value(x)) <= 1e-12
    bumped = arr.copy()
    bumped[g.index(g.neighbors(x)[0])] += 1.0
    assert gamma_closed_form(g, GraphFunction(g, bumped)).value(x) > 0.0


# -- edge-list kernels against dense references ---------------------------------------


def _graph_with_isolated(rng, places):
    """A fuzzed connected graph with isolated vertices at the named places in the order."""
    g = random_connected_graph(rng, int(rng.integers(3, 12)),
                               extra_edge_prob=float(rng.uniform(0.05, 0.5)))
    names = list(g.vertices)
    for place in places:
        names.insert({"first": 0, "middle": len(names) // 2, "last": len(names)}[place],
                     f"isolated_{place}")
    measure = {v: float(rng.uniform(0.1, 2.0)) for v in names}
    return WeightedGraph(names, {(u, v): w for u, v, w in g.edges()}, measure)


@pytest.mark.parametrize("places", [(), ("first",), ("middle",), ("last",),
                                    ("first", "middle", "last"), "edgeless"], ids=str)
def test_edge_list_kernels_match_dense_references(places):
    # reduceat returns the next row's first entry for an empty row, so the
    # rows of isolated vertices must come out as exact zeros
    rng = np.random.default_rng(23)
    for _ in range(10):
        if places == "edgeless":
            names = ["a", "b", "c"]
            g = WeightedGraph(names, {}, {v: float(rng.uniform(0.1, 2.0)) for v in names})
        else:
            g = _graph_with_isolated(rng, places)
        F = rng.uniform(-1.0, 1.0, (g.num_vertices, 4))
        H = rng.uniform(-1.0, 1.0, (g.num_vertices, 4))
        pairs = [
            (g.weighted_degrees, dense_degrees(g)),
            (laplacian_array(g, F), dense_laplacian(g, F)),
            (laplacian_array(g, F[:, 0]), dense_laplacian(g, F[:, 0])),
            (gamma_array(g, F, H), dense_gamma(g, F, H)),
            (gamma_array(g, F[:, 0], H[:, 0]), dense_gamma(g, F[:, 0], H[:, 0])),
        ]
        isolated = [g.index(v) for v in g.vertices if not g.neighbors(v)]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want),
                                                                             initial=0.0)
            assert np.all(got[isolated] == 0.0)


# -- local forms --------------------------------------------------------------------


def test_local_forms_single_edge():
    g = single_edge()
    lf = local_forms(g, "a")
    assert lf.support == ("b",)
    assert lf.gamma2_matrix == pytest.approx(np.array([[1.0]]))
    assert lf.gamma_matrix == pytest.approx(np.array([[0.5]]))
    assert lf.laplace_vector == pytest.approx(np.array([1.0]))


def test_local_forms_isolated_vertex():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    lf = local_forms(g, "a")
    assert lf.support == ()
    assert lf.gamma2_matrix.shape == (0, 0)


def test_local_forms_path_end_vertex():
    g = WeightedGraph(
        ["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0}
    )
    rng = np.random.default_rng(19)
    lf = local_forms(g, "a")
    assert lf.support == ("b", "c")
    for _ in range(10):
        arr = rng.uniform(-1, 1, 3)
        arr[0] = 0.0
        coeff = arr[1:]
        f = GraphFunction(g, arr)
        assert float(coeff @ lf.gamma2_matrix @ coeff) == pytest.approx(
            gamma_k(g, 2, f).value("a"), rel=1e-12, abs=1e-13
        )


def test_local_forms_match_pointwise_operators():
    rng = np.random.default_rng(14)
    graphs = [random_connected_graph(rng, 10) for _ in range(3)]
    for g in graphs:
        for x in g.vertices[:4]:
            lf = local_forms(g, x)
            idx = [g.index(v) for v in lf.support]
            ix = g.index(x)
            for _ in range(10):
                arr = rng.uniform(-1.0, 1.0, g.num_vertices)
                pinned = arr - arr[ix]  # operators ignore constants
                coeff = pinned[idx]
                f = GraphFunction(g, pinned)
                assert float(coeff @ lf.gamma2_matrix @ coeff) == pytest.approx(
                    gamma_k(g, 2, f).value(x), rel=1e-9, abs=1e-11
                )
                assert float(coeff @ lf.gamma_matrix @ coeff) == pytest.approx(
                    gamma_k(g, 1, f).value(x), rel=1e-9, abs=1e-11
                )
                assert float(lf.laplace_vector @ coeff) == pytest.approx(
                    laplacian(g, f).value(x), rel=1e-9, abs=1e-11
                )


def test_local_forms_match_reference_assembly():
    # the 2-ball matrix assembly against whole-graph indicator evaluation
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 16)),
                                   extra_edge_prob=float(rng.uniform(0.05, 0.5)))
        for x in g.vertices:
            lf, ref = local_forms(g, x), reference_local_forms(g, x)
            assert lf.support == ref.support
            assert lf.num_neighbors == ref.num_neighbors
            for got, want in ((lf.gamma2_matrix, ref.gamma2_matrix),
                              (lf.gamma_matrix, ref.gamma_matrix),
                              (lf.laplace_vector, ref.laplace_vector)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_local_forms_one_ball_support_pattern():
    rng = np.random.default_rng(15)
    g = random_connected_graph(rng, 12)
    x = g.vertices[3]
    lf = local_forms(g, x)
    one_ball = ball(g, x, 1) - {x}
    eigs = np.linalg.eigvalsh(lf.gamma_matrix) if lf.size else np.array([0.0])
    assert eigs.min() >= -1e-12
    for i, v in enumerate(lf.support):
        if v not in one_ball:
            assert lf.laplace_vector[i] == 0.0
            assert np.all(lf.gamma_matrix[i] == 0.0)
            assert np.all(lf.gamma_matrix[:, i] == 0.0)


def test_gamma_batch_matches_single():
    rng = np.random.default_rng(16)
    g = random_connected_graph(rng, 9)
    F = rng.uniform(-1, 1, (g.num_vertices, 6))
    batch = gamma_recursive_array(g, 2, F, F)
    for j in range(6):
        single = gamma_recursive_array(g, 2, F[:, j], F[:, j])
        assert np.allclose(batch[:, j], single, rtol=1e-13, atol=1e-14)


# -- twin classes -------------------------------------------------------------


def _representatives(g: WeightedGraph) -> list[int]:
    """``twin_representatives``, checked against the pair-by-pair reference."""
    rep = twin_representatives(g).tolist()
    assert rep == naive_twin_representatives(g)
    return rep


def _twin_classes(g: WeightedGraph) -> set[frozenset[str]]:
    rep = _representatives(g)
    return {frozenset(v for v, r in zip(g.vertices, rep) if r == c) for c in set(rep)}


def _moved(g: WeightedGraph, edge: tuple[str, str] | None = None, vertex: str | None = None) -> WeightedGraph:
    """g with the weight of ``edge`` or the measure of ``vertex`` one ulp up."""
    up = lambda value: float(np.nextafter(value, math.inf))  # noqa: E731
    return WeightedGraph(g.vertices, {(u, v): up(w) if {u, v} == set(edge or ()) else w for u, v, w in g.edges()},
                         {v: up(g.measure(v)) if v == vertex else g.measure(v) for v in g.vertices})


def test_twin_classes_of_the_paper_families():
    # all of K_n is one class (true twins), the star's leaves are one (false
    # twins), and so is each sphere of an anti-tree
    assert _representatives(generate("complete", 9)) == [0] * 9
    assert _representatives(generate("star", 6)) == [0] + [1] * 6
    g, spheres = antitree(2, 6)
    assert _representatives(g) == [s.start for s in spheres for _ in s]


@pytest.mark.parametrize("g", [generate("cycle", n) for n in (5, 6, 31)]
                         + [generate("hypercube", d) for d in (3, 4, 6)]
                         + [random_connected_graph(np.random.default_rng(s), 40, extra_edge_prob=0.1)
                            for s in range(3)])
def test_graphs_without_twins(g):
    assert _representatives(g) == list(range(g.num_vertices))


def test_one_ulp_splits_a_class():
    # b(v0, v2) one ulp up: v0 and v2 stay twins (their mutual weight is
    # theirs alone) and leave the rest of K_6; m(v3) one ulp up splits v3 off
    complete, star = generate("complete", 6), generate("star", 6)
    assert _representatives(_moved(complete, edge=("v0", "v2"))) == [0, 1, 0, 1, 1, 1]
    assert _representatives(_moved(complete, vertex="v3")) == [0, 0, 0, 3, 0, 0]
    assert _representatives(_moved(star, edge=("c", "l2"))) == [0, 1, 1, 3, 1, 1, 1]
    assert _representatives(_moved(star, vertex="l0")) == [0, 1, 2, 2, 2, 2, 2]
    # b(v1, v5) one ulp up splits v1 off the anti-tree's sphere 1 and v5 off sphere 2
    assert _representatives(_moved(antitree(2, 4)[0], edge=("v1", "v5"))) == (
        [0, 1, 2, 2, 2, 5] + [6] * 8 + [14] * 16)


def test_a_row_fingerprint_only_proposes(monkeypatch):
    # with every word 0, each vertex is proposed the lowest vertex of its
    # measure or of its edges: only the exact comparison keeps non-twins apart
    monkeypatch.setattr(operators, "_entry_words", lambda y, b: np.zeros(len(y), dtype=np.uint64))
    unit = random_connected_graph(np.random.default_rng(46), 20, extra_edge_prob=0.2,
                                  weight_range=(1.0, 1.0), measure_range=(1.0, 1.0))
    star = generate("star", 6)
    leaves_first = scaled_weights(_moved(star, vertex="l0"), 1.0, order=[*star.vertices[1:], "c"])
    for g in (star, leaves_first, antitree(2, 4)[0], generate("cycle", 8), unit):
        naive = naive_twin_representatives(g)
        assert all(naive[r] == naive[x] for x, r in enumerate(twin_representatives(g).tolist()))
    assert not twin_representatives(generate("complete", 9)).any()


def test_twin_classes_do_not_depend_on_the_labels():
    rng = np.random.default_rng(44)
    fuzzed = random_connected_graph(np.random.default_rng(45), 30, extra_edge_prob=0.1)
    for g in (antitree(2, 5)[0], generate("star", 6), generate("complete", 9), planted_twins(rng, fuzzed, 3, 3)[0]):
        relabelled = scaled_weights(g, 1.0, order=[g.vertices[i] for i in rng.permutation(g.num_vertices)])
        assert _twin_classes(relabelled) == _twin_classes(g)


@pytest.mark.parametrize("seed", range(4))
def test_planted_twins_are_found(seed):
    rng = np.random.default_rng(seed)
    g, classes = planted_twins(rng, random_connected_graph(rng, 30, extra_edge_prob=0.1), 3, 3)
    planted = {frozenset(c) for c in classes}
    assert _twin_classes(g) == planted | {frozenset([v]) for v in g.vertices if not any(v in c for c in classes)}


def test_gamma_of_a_function_with_itself_takes_its_differences_once():
    # gamma_array(g, F, F) forms the differences of F once; the result must
    # be bit for bit the one two equal arrays give
    rng = np.random.default_rng(29)
    g = random_connected_graph(rng, 12)
    F = rng.uniform(-1.0, 1.0, (g.num_vertices, 5))
    for A in (F, F[:, 0], F[:, 1:3]):
        assert gamma_array(g, A, A).tobytes() == gamma_array(g, A, A.copy()).tobytes()
