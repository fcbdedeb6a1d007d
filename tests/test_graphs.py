import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphcurv
from conftest import bfs_ball, naive_adjacency, random_connected_graph, random_function
from graphcurv import (
    GraphFunction,
    WeightedGraph,
    ball,
    build_heat,
    cd_check,
    curvature_profile,
    degree,
    ec_norm_check,
    ellipticity_constant,
    finiteness_probe,
    gamma_k,
    generate,
    green_check,
    is_connected,
    laplacian,
    parse_graph,
    serialize_graph,
    validate,
)
from graphcurv.graphs import _components


def single_edge():
    return WeightedGraph(["a", "b"], {("a", "b"): 1.0}, {"a": 1.0, "b": 1.0})


def path3():
    return WeightedGraph(
        ["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0}
    )


# -- validate ----------------------------------------------------------------


def test_validate_accepts_symmetric_pair():
    g = WeightedGraph(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 1.0}, {"a": 1.0, "b": 1.0})
    assert validate(g) == []


def test_validate_flags_asymmetry():
    g = WeightedGraph(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 2.0}, {"a": 1.0, "b": 1.0})
    violations = validate(g)
    assert len(violations) == 1
    assert "asymmetry" in violations[0] and "'a'" in violations[0]


def test_validate_flags_nonpositive_measure():
    g = WeightedGraph(["a"], {}, {"a": 0.0})
    violations = validate(g)
    assert len(violations) == 1
    assert "measure" in violations[0] and "'a'" in violations[0]


def test_validate_flags_diagonal_and_bad_weight():
    g = WeightedGraph(["a", "b"], {("a", "a"): 1.0, ("a", "b"): -2.0}, {"a": 1.0, "b": 1.0})
    joined = " / ".join(validate(g))
    assert "diagonal" in joined
    assert "nonpositive weight" in joined


def test_invalid_graph_rejects_numeric_access():
    g = WeightedGraph(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 2.0}, {"a": 1.0, "b": 1.0})
    with pytest.raises(ValueError, match="invalid graph"):
        _ = g.edge_arrays


def test_validate_lists_every_kind_of_violation_in_order():
    # duplicate ids first, then the weight entries in the order given (each
    # for its first fault), then the measures in vertex order, then the
    # measure keys that name no vertex
    g = WeightedGraph(
        ["a", "b", "c", "a", "d", "e"],
        {("a", "zz"): 1.0, ("c", "c"): 2.0, ("a", "b"): -1.0, ("b", "c"): 1.0, ("c", "b"): 2.0,
         ("d", "e"): math.nan, ("e", "d"): 3.0, ("qq", "rr"): 1.0, ("d", "c"): math.inf},
        {"a": 1.0, "b": 0.0, "c": math.nan, "d": -1.0, "ghost": 1.0, "zz": 2.0},
    )
    assert validate(g) == [
        "duplicate vertex id 'a'",
        "edge ('a', 'zz') has an undeclared endpoint",
        "nonzero diagonal at 'c'",
        "nonpositive weight at ('a', 'b')",
        "asymmetry at ('b', 'c')",
        "non-finite weight at ('d', 'e')",
        "edge ('qq', 'rr') has an undeclared endpoint",
        "non-finite weight at ('d', 'c')",
        "nonpositive measure at 'b'",
        "non-finite measure at 'c'",
        "nonpositive measure at 'd'",
        "missing measure at 'e'",
        "measure entry for unknown vertex 'ghost'",
        "measure entry for unknown vertex 'zz'",
    ]
    with pytest.raises(ValueError, match="^invalid graph: duplicate vertex id 'a'; edge"):
        _ = g.csr


@pytest.mark.parametrize("weights,expected", [
    ({("b", "a"): 1.0, ("a", "b"): 2.0}, ["asymmetry at ('a', 'b')"]),  # at the entry named in order
    ({("a", "b"): -1.0, ("b", "a"): 2.0}, ["nonpositive weight at ('a', 'b')"]),
    ({("a", "b"): 1.0, ("b", "a"): math.nan},
     ["asymmetry at ('a', 'b')", "non-finite weight at ('b', 'a')"]),
])
def test_validate_names_an_asymmetry_once(weights, expected):
    assert validate(WeightedGraph(["b", "a"], weights, {"a": 1.0, "b": 1.0})) == expected


def test_from_arrays_rejects_malformed_arrays():
    names, m = ["a", "b", "c"], np.ones(3)
    with pytest.raises(ValueError, match="one length"):
        WeightedGraph.from_arrays(names, [0, 1], [1], [1.0, 1.0], m)
    with pytest.raises(ValueError, match="in range"):
        WeightedGraph.from_arrays(names, [0], [3], [1.0], m)
    with pytest.raises(ValueError, match="in range"):
        WeightedGraph.from_arrays(names, [0], [-1], [1.0], m)  # no undeclared names
    with pytest.raises(ValueError, match="m per vertex"):
        WeightedGraph.from_arrays(names, [0], [1], [1.0], np.ones(2))
    with pytest.raises(ValueError, match="twice in one orientation"):
        WeightedGraph.from_arrays(names, [0, 0], [1, 1], [1.0, 1.0], m)
    both = WeightedGraph.from_arrays(names, [0, 1], [1, 0], [1.0, 1.0], m)
    assert validate(both) == [] and both.edge_arrays[2].tolist() == [1.0]
    undeclared = WeightedGraph.from_arrays(names, [0, -2], [-1, 1], [1.0, 1.0], m, undeclared=["x", "y"])
    assert validate(undeclared) == ["edge ('a', 'x') has an undeclared endpoint",
                                    "edge ('y', 'b') has an undeclared endpoint"]


def test_triples_constructor_refuses_a_pair_listed_twice_in_one_orientation():
    # the triples were collapsed into a dict first, which kept the last weight, 2.0, and validated clean
    with pytest.raises(ValueError, match="listed twice in one orientation"):
        WeightedGraph(["a", "b"], [("a", "b", 1.0), ("a", "b", 2.0)], {"a": 1.0, "b": 1.0})
    both = WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)], {"a": 1.0, "b": 1.0})
    assert validate(both) == [] and both.edge_arrays[2].tolist() == [1.0]


def _parity_graphs():
    for family, size in [("path", 1), ("path", 6), ("cycle", 7), ("complete", 5), ("star", 4),
                         ("hypercube", 3), ("weighted_tree", 9)]:
        for profile in ("unit", "normalizing"):
            if (family, size) != ("path", 1) or profile == "unit":
                yield generate(family, size, profile, seed=2)
    rng = np.random.default_rng(17)
    for n in (2, 9, 20):
        yield random_connected_graph(rng, n)
    yield WeightedGraph(["a", "b", "c"], {("a", "b"): 0.5}, {"a": 1.0, "b": 2.0, "c": 3.0})


def _four_ways(names, triples, measure):
    """The graph of (u, v, w) triples and a measure by name, built by each constructor and parser."""
    at = {v: i for i, v in enumerate(names)}
    iu = np.array([at[u] for u, _, _ in triples], dtype=int)
    iv = np.array([at[v] for _, v, _ in triples], dtype=int)
    arrays = WeightedGraph.from_arrays(names, iu, iv, [w for _, _, w in triples],
                                       [measure[v] for v in names])
    mapping = WeightedGraph(names, {(u, v): w for u, v, w in triples}, measure)
    edge_list = parse_graph("".join(f"{u} {v} {w!r}\n" for u, v, w in triples),
                            "".join(f"{v} {measure[v]!r}\n" for v in names))
    return arrays, mapping, parse_graph(serialize_graph(mapping)), edge_list


def _numeric_arrays(g):
    return (*g.edge_arrays, g.measure_vector, g.csr.indptr, g.csr.indices, g.csr.weights, g.csr.rows)


@pytest.mark.parametrize("relabel", [False, True], ids=["as_built", "relabelled"])
def test_every_constructor_builds_one_graph(relabel):
    # relabelled: the vertices in another order, the edges shuffled and half
    # of them listed the other way round
    rng = np.random.default_rng(23)
    for g in _parity_graphs():
        names, triples = list(g.vertices), list(g.edges())
        measure = {v: g.measure(v) for v in names}
        if relabel:
            names = [names[i] for i in rng.permutation(len(names))]
            triples = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
                       for u, v, w in (triples[i] for i in rng.permutation(len(triples)))]
        graphs = _four_ways(names, triples, measure)
        for other in graphs[1:]:
            assert other.vertices == graphs[0].vertices == tuple(names)
            for a, b in zip(_numeric_arrays(graphs[0]), _numeric_arrays(other)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        adjacency = naive_adjacency(names, triples)
        connected = bfs_ball(adjacency, names[0], len(names)) == set(names)
        lowest = [min(map(names.index, bfs_ball(adjacency, u, len(names)))) for u in names]
        for h in graphs:
            assert is_connected(h) == connected
            assert _components(h).tolist() == lowest
            for u in names:
                assert h.neighbors(u) == tuple(sorted(adjacency[u], key=names.index))
                assert [h.weight(u, v) for v in names] == [adjacency[u].get(v, 0.0) for v in names]
                assert all(ball(h, u, r) == bfs_ball(adjacency, u, r) for r in range(4))


def _random_functions(g, k):
    rng = np.random.default_rng(5)
    return [random_function(rng, g) for _ in range(k)]


@pytest.mark.parametrize("call", [
    lambda g: curvature_profile(g, 4.0),
    lambda g: cd_check(g, 0.5, math.inf, "v1"),
    lambda g: laplacian(g, *_random_functions(g, 1)),
    lambda g: gamma_k(g, 2, *_random_functions(g, 2)),
    lambda g: green_check(g, *_random_functions(g, 2)),
    lambda g: ec_norm_check(g),
    lambda g: finiteness_probe(g, 0.5),
    lambda g: build_heat(g).apply_array(1.0, np.ones(g.num_vertices)),
    lambda g: build_heat(g, dirichlet_domain=["v0", "v2", "v3"]),
], ids=["curvature_profile", "cd_check", "laplacian", "gamma_k", "green_check",
        "ec_norm_check", "finiteness_probe", "build_heat", "build_heat_dirichlet"])
def test_computations_never_build_the_dense_weight_matrix(call):
    g = generate("complete", 6)
    call(g)
    N = g.num_vertices  # no dense N x N array is cached on the graph
    assert not [k for k, v in vars(g).items() if getattr(v, "shape", None) == (N, N)]


# -- degree, ball, connectivity ------------------------------------------------


def test_degree_single_edge():
    assert degree(single_edge(), "a") == 1.0


def test_degree_isolated_vertex():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    assert degree(g, "a") == 0.0


def test_degree_respects_measure():
    g = WeightedGraph(
        ["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 1.0, "b": 2.0, "c": 1.0}
    )
    assert degree(g, "b") == pytest.approx(1.0)


@pytest.mark.parametrize("num_vertices", [300, 70_000])
def test_csr_sorted_by_a_narrow_key_equals_an_int64_key_build(num_vertices):
    # the rows are sorted as the narrowest unsigned type that holds them, a
    # 16-bit key on the random graph and a 32-bit one on the path
    if num_vertices < 2**16:
        g = random_connected_graph(np.random.default_rng(71), num_vertices)
    else:
        g = generate("path", num_vertices)
    iu, iv, w = g.edge_arrays
    rows = np.concatenate((iv, iu)).astype(np.int64)
    order = np.argsort(rows, kind="stable")
    csr = g.csr
    assert csr.indptr.tobytes() == np.append(0, np.cumsum(np.bincount(rows, minlength=g.num_vertices))).tobytes()
    assert csr.indices.tobytes() == np.concatenate((iu, iv))[order].tobytes()
    assert csr.weights.tobytes() == np.concatenate((w, w))[order].tobytes()
    assert csr.rows.tobytes() == rows[order].tobytes()


def test_weighted_degrees_scale_each_row_by_its_measure():
    # each row is summed and divided by its measure's power of two: inside the
    # range that is the plain sum over m, bit for bit
    for g in (*_parity_graphs(), generate("hypercube", 5, "normalizing"), generate("weighted_tree", 500)):
        csr = g.csr
        assert g.weighted_degrees.tobytes() == (csr.row_reduce(np.add, csr.weights) / g.measure_vector).tobytes()
    # the raw weights of a row summed to inf, though every Deg is 2e8
    g = WeightedGraph(["a", "b", "c"], {("a", "b"): 1e308, ("b", "c"): 1e308, ("a", "c"): 1e308},
                      dict.fromkeys("abc", 1e300))
    assert g.weighted_degrees.tolist() == [2e8] * 3


@pytest.mark.parametrize("measure,weight,exponents,shared", [
    # max m = 2 needs no power (a = 0), max Deg = 32 does (c = 2): the measure is shared
    (2.0, 64.0, (0, 2), {"measure"}),
    # max m = 16 (a = 2), max Deg = 1/8 (c = -2): b 4^-(a+c) = b, so the weights are shared
    (16.0, 2.0, (2, -2), {"weights", "csr weights"}),
])
def test_the_normalized_graph_shares_each_array_it_does_not_scale(measure, weight, exponents, shared):
    g = WeightedGraph(["a", "b"], {("a", "b"): weight}, {"a": measure, "b": measure})
    u, a, c = g._scale
    assert (a, c) == exponents
    pairs = {"measure": (u.measure_vector, g.measure_vector),
             "weights": (u.edge_arrays[2], g.edge_arrays[2]),
             "csr weights": (u.csr.weights, g.csr.weights),
             "degrees": (u.weighted_degrees, g.weighted_degrees)}
    for name, (scaled, own) in pairs.items():
        assert np.shares_memory(scaled, own) == (name in shared)
        assert np.array_equal(scaled, np.ldexp(own, -2 * {"measure": a, "degrees": c}.get(name, a + c)))


def test_degree_unknown_vertex():
    with pytest.raises(KeyError):
        degree(single_edge(), "zz")


def test_ball_radii():
    g = path3()
    assert ball(g, "a", 0) == {"a"}
    assert ball(g, "a", 1) == {"a", "b"}
    assert ball(g, "a", 2) == {"a", "b", "c"}
    assert ball(g, "a", 5) == {"a", "b", "c"}


def test_ball_monotone_and_one_ball_size():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 15)
    for x in g.vertices:
        prev = set()
        for r in range(4):
            cur = ball(g, x, r)
            assert prev <= cur
            prev = cur
        assert len(ball(g, x, 1)) == 1 + len(g.neighbors(x))


def test_ball_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, 1.7 MB of RSS for a sort
    # of the frontier; a fresh interpreter shows whether ball pulls it in
    code = ("import sys, graphcurv; "
            "graphcurv.ball(graphcurv.generate('cycle', 10), 'v0', 3); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(graphcurv.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_is_connected():
    assert is_connected(single_edge())
    assert is_connected(path3())
    two = WeightedGraph(["a", "b"], {}, {"a": 1.0, "b": 1.0})
    assert not is_connected(two)
    with pytest.raises(ValueError):
        is_connected(WeightedGraph([], {}, {}))


# -- ellipticity ----------------------------------------------------------------


def test_ellipticity_single_edge():
    cert = ellipticity_constant(single_edge())
    assert cert.constant == pytest.approx(1.0)
    assert cert.witness_edge == ("a", "b")


def test_ellipticity_uneven_measure():
    g = WeightedGraph(["a", "b"], {("a", "b"): 1.0}, {"a": 2.0, "b": 1.0})
    assert ellipticity_constant(g).constant == pytest.approx(0.5)


def test_ellipticity_edgeless():
    g = WeightedGraph(["a", "b"], {}, {"a": 1.0, "b": 1.0})
    cert = ellipticity_constant(g)
    assert cert.constant == 0.0
    assert cert.witness_edge is None


def test_ellipticity_dominates_all_pairs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, 12)
        c = ellipticity_constant(g).constant
        for u in g.vertices:
            for v in g.vertices:
                b = g.weight(u, v) if u != v else 0.0
                assert b <= c * g.measure(u) * g.measure(v) * (1 + 1e-12)


# -- generators -------------------------------------------------------------------


def test_generate_path3():
    g = generate("path", 3)
    assert g.num_vertices == 3
    assert g.weight("v0", "v1") == 1.0 and g.weight("v1", "v2") == 1.0
    assert g.weight("v0", "v2") == 0.0
    assert all(g.measure(v) == 1.0 for v in g.vertices)


def test_generate_complete2_is_single_edge():
    g = generate("complete", 2)
    assert list(g.edges()) == [("v0", "v1", 1.0)]


def test_generate_hypercube2_normalizing():
    g = generate("hypercube", 2, "normalizing")
    assert g.num_vertices == 4
    assert all(len(g.neighbors(v)) == 2 for v in g.vertices)
    assert all(g.measure(v) == 2.0 for v in g.vertices)


@pytest.mark.parametrize(
    "family,size",
    [("path", 1), ("path", 6), ("cycle", 3), ("cycle", 7), ("complete", 5),
     ("star", 1), ("star", 6), ("hypercube", 1), ("hypercube", 3),
     ("weighted_tree", 1), ("weighted_tree", 9)],
)
def test_generated_graphs_are_valid(family, size):
    assert validate(generate(family, size)) == []


@pytest.mark.parametrize("family", ["cycle", "complete", "star", "hypercube", "weighted_tree"])
def test_normalizing_measure_degree_one(family):
    size = {"cycle": 5, "complete": 4, "star": 3, "hypercube": 3, "weighted_tree": 7}[family]
    g = generate(family, size, "normalizing", seed=4)
    for v in g.vertices:
        assert degree(g, v) == pytest.approx(1.0, abs=1e-12)


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate("path", 0)
    with pytest.raises(ValueError):
        generate("cycle", 2)
    with pytest.raises(ValueError):
        generate("moebius", 5)
    with pytest.raises(ValueError):
        generate("path", 1, "normalizing")  # isolated vertex has no normalizing measure


def test_weighted_tree_deterministic_per_seed():
    a = generate("weighted_tree", 10, seed=3)
    b = generate("weighted_tree", 10, seed=3)
    c = generate("weighted_tree", 10, seed=4)
    assert a == b
    assert a != c


# -- GraphFunction -----------------------------------------------------------------


def test_graph_function_domain_must_match():
    g = single_edge()
    with pytest.raises(ValueError, match="domain"):
        GraphFunction(g, {"a": 1.0})
    with pytest.raises(ValueError, match="domain"):
        GraphFunction(g, {"a": 1.0, "b": 2.0, "c": 3.0})


def test_graph_function_accessors():
    g = single_edge()
    f = GraphFunction.indicator(g, "b")
    assert f.value("a") == 0.0 and f.value("b") == 1.0
    assert f.as_dict() == {"a": 0.0, "b": 1.0}
    assert GraphFunction.constant(g, 2.5).value("a") == 2.5


def test_graph_function_array_read_only():
    f = GraphFunction.indicator(single_edge(), "a")
    with pytest.raises(ValueError):
        f.array[0] = 5.0
