import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import antitree, bisection_solve, planted_twins, random_connected_graph, scaled_weights
from graphcurv import (
    GraphFunction,
    PreconditionError,
    WeightedGraph,
    build_heat,
    cd_check,
    cd_extremal_function,
    curvature_profile,
    curvature_solve,
    gamma_k,
    generate,
    laplacian,
    local_forms,
)
from graphcurv import operators
from graphcurv.curvature import EIG_TOL, _cd_holds, _cd_matrices, _cd_scales, _factorizes, _solve, _stack_of
from graphcurv.graphs import ball
from graphcurv.operators import STACK_ENTRIES, local_form_stack, local_form_stacks, twin_representatives


CURVATURE_TOL = 1e-9  # absolute tolerance of the solver soundness and tightness checks


def single_edge():
    return generate("complete", 2)


# -- cd_check -------------------------------------------------------------------


def test_cd_check_hand_values():
    g = single_edge()
    holds, eig = cd_check(g, 2.0, math.inf, "v0")
    assert holds and eig == pytest.approx(0.0, abs=1e-12)
    holds, eig = cd_check(g, 2.1, math.inf, "v0")
    assert not holds and eig == pytest.approx(-0.05, abs=1e-12)
    holds, eig = cd_check(g, 1.0, 2.0, "v0")
    assert holds and eig == pytest.approx(0.0, abs=1e-12)


def test_judge_never_factorizes_a_non_finite_matrix():
    # LAPACK's Cholesky returns a matrix of nan for one, without an error
    assert not _factorizes(np.full((1, 2, 2), np.nan))
    assert not _factorizes(np.array([[[1.0, 0.0], [0.0, np.inf]]]))
    assert _factorizes(np.eye(2)[None])


@pytest.mark.parametrize("c", [1e154, 1e160, 1e-200])
def test_local_forms_outside_the_double_range_are_refused(c):
    # the unit 3-cube has max Deg 3; times c, Gamma_2 at the scale of max Deg^2 is no
    # longer a double in the graph's units (inf, or 0 at x1e-200): local_forms refuses
    # to return it, while the solvers, on the normalized graph, answer
    g = scaled_weights(generate("hypercube", 3), c)
    with pytest.raises(PreconditionError, match="are not doubles in the graph's units"):
        local_forms(g, g.vertices[0])


@pytest.mark.parametrize("c, measure", [(1e153, 1.0), (1e-153, 1.0), (1e154, 1.0), (1e160, 1.0), (1e-200, 1.0),
                                        (1e-310, 1e-310)])
def test_curvature_at_the_ends_of_the_double_range(c, measure):
    # the unit 3-cube, K = 2, with its weights times c and its measure times
    # `measure`.  From x1e154 its local forms left the normal doubles: curvature was
    # nan, and at x1e160, x1e-200 and both x1e-310 eigh failed to converge.  A max Deg
    # range then refused them; the normalized graph answers at every scale
    g = scaled_weights(generate("hypercube", 3), c, measure)
    x, K = g.vertices[0], 2 * c / measure
    profile = curvature_profile(g, math.inf)
    assert profile.global_curvature == pytest.approx(K, rel=1e-15) and profile.converged.all()
    assert cd_check(g, K, math.inf, x)[0] and not cd_check(g, 2.5 * K, math.inf, x)[0]
    assert curvature_solve(g, x, 4.0).curvature == pytest.approx(K / 4, rel=1e-14)
    eta = cd_extremal_function(g, x, math.inf, K).array
    assert np.isfinite(eta).all() and np.linalg.norm(eta) == pytest.approx(1.0, rel=1e-14)
    if 1e-150 < c / measure < 1e150:
        assert local_forms(g, x).gamma2_matrix == pytest.approx(local_forms(generate("hypercube", 3), x).gamma2_matrix
                                                              * (c / measure) ** 2, rel=1e-14)


def test_cd_check_at_a_huge_K():
    # K = -1e300 on the 3-cube times 1e10 crashed in eigvalsh (M(K) held inf); on the
    # normalized graph -K is about 1e290 times max Deg and CD(-1e300) holds.  Where
    # |K| / max Deg leaves the doubles, as on the cube times 1e-10, it is refused
    cube = generate("hypercube", 3)
    holds, eig = cd_check(scaled_weights(cube, 1e10), -1e300, math.inf, "000")
    assert holds and math.isfinite(eig)
    with pytest.raises(PreconditionError, match=r"\|K\| / max Deg is too large"):
        cd_check(scaled_weights(cube, 1e-10), -1e300, math.inf, "000")


def test_degrees_past_the_doubles_are_refused():
    # a triangle of weights 1e308 has max Deg 2e308, an inf as summed; its curvature,
    # 2.5e308, is no double either.  Without a refusal the normalized graph kept
    # inf degrees and the profile was nan
    g = WeightedGraph(["a", "b", "c"], {("a", "b"): 1e308, ("b", "c"): 1e308, ("a", "c"): 1e308},
                      dict.fromkeys("abc", 1.0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="weighted degrees overflow double precision"):
        curvature_profile(g, math.inf)


def test_degrees_at_the_top_of_the_range_are_answered():
    # weights 1e308 with measures 1e300: the weights of a row sum past the doubles,
    # but Deg is 2e8.  Summed raw, the degrees were inf and the graph was refused
    g = WeightedGraph(["a", "b", "c"], {("a", "b"): 1e308, ("b", "c"): 1e308, ("a", "c"): 1e308},
                      dict.fromkeys("abc", 1e300))
    assert curvature_profile(g, math.inf).global_curvature == pytest.approx(2.5e8, rel=1e-15)


@pytest.mark.parametrize("m_b, ratio", [(1e-30, "1e-330"), (1e-10, "1e-310"), (1e-5, None)])
def test_a_spread_past_the_doubles_is_refused(m_b, ratio):
    # an edge of weight 1/3 with m(a) = 1e300.  With max m taken to [1, 4) the
    # weight and m(b) went to 0 at m(b) = 1e-30, and the heat semigroup built S
    # from 0 / 0; the measure scale now keeps every weight and measure exact.  The
    # local forms at a still need b / (m max Deg) to leave Gamma's diagonal a
    # normal double: at 1e-330 and 1e-310 the curvature at a was nan and inf
    g = WeightedGraph(["a", "b"], {("a", "b"): 1.0 / 3.0}, {"a": 1e300, "b": m_b})
    h = build_heat(g)
    assert np.isfinite(h.apply_array(1.0 / h._bound, np.eye(2))).all()
    if ratio is None:
        assert curvature_profile(g, math.inf).global_curvature == pytest.approx(1.0 / (6.0 * m_b), rel=1e-12)
        return
    for compute in (lambda: curvature_profile(g, math.inf), lambda: cd_check(g, 0.0, 4.0, "a")):
        with pytest.raises(PreconditionError, match=f"^b / \\(m max Deg\\) is about {ratio}: "):
            compute()


def test_weights_and_measures_past_the_doubles_are_refused():
    # m from 1e-310 to 1e308 and b / max Deg down to 1e-310: no power of four
    # takes all of them into the normal doubles
    g = WeightedGraph(["a", "b"], {("a", "b"): 1e-300}, {"a": 1e308, "b": 1e-310})
    for compute in (lambda: curvature_profile(g, math.inf), lambda: build_heat(g)):
        with pytest.raises(ValueError, match="the largest of m and b / max Deg is about 1e618 times the smallest"):
            compute()


def test_cd_check_isolated_vertex_vacuous():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    holds, eig = cd_check(g, 1e5, math.inf, "a")
    assert holds and math.isinf(eig)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exponent=st.floats(-8.0, 8.0), n=st.sampled_from([1.0, 4.0, math.inf]))
def test_cd_check_verdicts_scale_invariant_property(exponent, n):
    # an absolute eigenvalue tolerance accepted CD(2 K) on complete30 with
    # weights x1e-8 and reported a bracket of 0.017 around K = 1.6e-7
    c = 10.0 ** exponent
    fuzzed = random_connected_graph(np.random.default_rng(33), 10)
    for g, x in ((generate("complete", 30), "v0"), (fuzzed, "v3"), (fuzzed, "v4")):
        k = curvature_solve(g, x, n).curvature
        scaled = scaled_weights(g, c)
        for K in (k, 2.0 * k):
            assert cd_check(scaled, c * K, n, x)[0] == (K <= k)
        r = curvature_solve(scaled, x, n)
        assert r.converged and r.bracket_width <= 1e-9 * c * max(1.0, abs(k))
        assert cd_check(scaled, r.curvature - 2 * r.bracket_width, n, x)[0]
        assert not cd_check(scaled, r.curvature + 2 * r.bracket_width, n, x)[0]


def test_cd_check_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cd_check(single_edge(), 0.0, -1.0, "v0")


def test_a_dimension_whose_inverse_overflows_is_refused():
    # n = 1e-310 on the unit 3-cube failed with "Eigenvalues did not converge": the
    # 1/n term, below 64 / n on the normalized graph, overflowed.  n = 1e-306 is answered
    cube = generate("hypercube", 3)
    for call in (lambda n: cd_check(cube, 0.0, n, "000"), lambda n: curvature_solve(cube, "000", n),
                 lambda n: curvature_profile(cube, n)):
        with pytest.raises(ValueError, match=r"dimension n = 1e-310 is too small"):
            call(1e-310)
    assert curvature_solve(cube, "000", 1e-306).curvature == pytest.approx(-6e306, rel=1e-14)


# -- curvature_solve ---------------------------------------------------------------


def test_solver_single_edge_dimensions():
    g = single_edge()
    assert curvature_solve(g, "v0", math.inf).curvature == pytest.approx(2.0, abs=1e-8)
    for n in (1.0, 2.0, 5.0, 100.0):
        r = curvature_solve(g, "v0", n)
        assert r.converged
        assert r.curvature == pytest.approx(2.0 - 2.0 / n, abs=1e-8)


def test_solver_isolated_vertex_caps():
    g = WeightedGraph(["a"], {}, {"a": 1.0})
    r = curvature_solve(g, "a", math.inf)
    assert r.curvature == math.inf and r.converged


def test_solver_bracket_certificate():
    rng = np.random.default_rng(21)
    g = random_connected_graph(rng, 10)
    for x in g.vertices[:3]:
        r = curvature_solve(g, x, math.inf)
        assert cd_check(g, r.curvature - 2 * r.bracket_width, math.inf, x)[0]
        assert not cd_check(g, r.curvature + 2 * r.bracket_width + 1e-12, math.inf, x)[0]


def test_solver_soundness_random_functions():
    rng = np.random.default_rng(22)
    g = random_connected_graph(rng, 12)
    for x in g.vertices[:4]:
        r = curvature_solve(g, x, math.inf)
        K = r.curvature - 10 * CURVATURE_TOL
        for _ in range(50):
            f = GraphFunction(g, rng.uniform(-1, 1, g.num_vertices))
            slack = (
                gamma_k(g, 2, f).value(x) - K * gamma_k(g, 1, f).value(x)
            )
            assert slack >= -1e-9


def test_solver_tightness_witness():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 10)
    for x in g.vertices[:3]:
        r = curvature_solve(g, x, math.inf)
        w = cd_extremal_function(g, x, math.inf, r.curvature)
        slack = gamma_k(g, 2, w).value(x) - r.curvature * gamma_k(g, 1, w).value(x)
        assert abs(slack) <= 10 * CURVATURE_TOL


def test_monotone_in_dimension():
    rng = np.random.default_rng(24)
    g = random_connected_graph(rng, 10)
    dims = [1.0, 2.0, 5.0, 50.0, math.inf]
    for x in g.vertices[:3]:
        values = [curvature_solve(g, x, n).curvature for n in dims]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-8


def test_weight_scaling_scales_curvature():
    rng = np.random.default_rng(25)
    g = random_connected_graph(rng, 9)
    lam = 3.25
    scaled = WeightedGraph(
        g.vertices,
        {(u, v): lam * w for u, v, w in g.edges()},
        {v: g.measure(v) for v in g.vertices},
    )
    for x in g.vertices[:3]:
        k1 = curvature_solve(g, x, math.inf).curvature
        k2 = curvature_solve(scaled, x, math.inf).curvature
        assert k2 == pytest.approx(lam * k1, rel=1e-8, abs=1e-7)


def test_solver_matches_bisection_reference():
    # the bisection brackets sup{K : cd_check accepts} in [K, K + 2 * width]
    # and reports the lower end; the closed form must lie below the upper
    # end and, being exact, may sit below the lower one only by rounding
    rng = np.random.default_rng(32)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 13)),
                                   extra_edge_prob=float(rng.uniform(0.05, 0.5)))
        for x in g.vertices[:3]:
            for n in (1.0, 4.0, math.inf):
                r = curvature_solve(g, x, n)
                ref_k, ref_width = bisection_solve(g, x, n)
                assert r.converged
                assert cd_check(g, r.curvature, n, x)[0]
                assert r.curvature <= ref_k + 2 * ref_width
                assert r.curvature >= ref_k - 1e-6 * max(1.0, abs(ref_k))


@pytest.mark.parametrize("c", [1e-8, 1e5])
def test_solver_scale_extremes_complete30(c):
    # complete30 has K = 1 + N/2 = 16 at unit weights; an absolute eigenvalue
    # tolerance gave 0.02 at c = 1e-8 and a |K| cap gave 1e6 at c = 1e5
    g = scaled_weights(generate("complete", 30), c)
    r = curvature_solve(g, "v0", math.inf)
    assert r.converged
    assert r.curvature == pytest.approx(16.0 * c, rel=1e-9)
    assert cd_check(g, r.curvature, math.inf, "v0")[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exponent=st.floats(-8.0, 8.0), n=st.sampled_from([1.0, 4.0, math.inf]),
       order_seed=st.integers(0, 2**16))
def test_curvature_scales_with_weights_property(exponent, n, order_seed):
    # K(c b, m) = c K(b, m), K(c b, c m) = K(b, m), and relabelling the
    # vertices permutes the profile
    c = 10.0 ** exponent
    fuzzed = random_connected_graph(np.random.default_rng(31), 10)
    for g, x in ((generate("complete", 30), "v0"), (fuzzed, "v3"), (fuzzed, "v4")):
        k = curvature_solve(g, x, n).curvature
        assert curvature_solve(scaled_weights(g, c), x, n).curvature == pytest.approx(c * k, rel=1e-9)
        assert curvature_solve(scaled_weights(g, c, c), x, n).curvature == pytest.approx(k, rel=1e-9)
    order = [fuzzed.vertices[i] for i in np.random.default_rng(order_seed).permutation(10)]
    profile = curvature_profile(scaled_weights(fuzzed, c, order=order), n)
    assert [r.vertex for r in profile.per_vertex] == order
    expected = {r.vertex: c * r.curvature for r in curvature_profile(fuzzed, n).per_vertex}
    for r in profile.per_vertex:
        assert r.curvature == pytest.approx(expected[r.vertex], rel=1e-9)


def test_solver_certifies_with_one_cd_check(monkeypatch):
    # the profile's certificates come from the batched judge: it decides every
    # vertex with a neighbour exactly once, and no isolated vertex
    import graphcurv.curvature as curvature

    decided = []

    def counting_judge(stack, K, n):
        decided.extend(stack.centers.tolist())
        return judge(stack, K, n)

    judge = curvature._cd_holds
    monkeypatch.setattr(curvature, "_cd_holds", counting_judge)
    g = random_connected_graph(np.random.default_rng(34), 12)
    with_isolated = WeightedGraph([*g.vertices, "iso"], {(u, v): w for u, v, w in g.edges()},
                                  {"iso": 1.0, **{v: g.measure(v) for v in g.vertices}})
    profile = curvature_profile(with_isolated, 4.0)
    assert sorted(decided) == [with_isolated.index(v) for v in g.vertices]
    assert all(r.converged for r in profile.per_vertex)


def _with_isolated_vertices(g: WeightedGraph) -> WeightedGraph:
    """g with isolated vertices added first, in the middle and last."""
    half = g.num_vertices // 2
    names = ["iso0", *g.vertices[:half], "iso1", *g.vertices[half:], "iso2"]
    return WeightedGraph(names, {(u, v): w for u, v, w in g.edges()},
                         {**{v: g.measure(v) for v in g.vertices}, "iso0": 1.0, "iso1": 0.5,
                          "iso2": 2.0})


def test_profile_stacks_agree_with_the_stack_of_one(monkeypatch):
    # the batched profile against curvature_solve at each vertex, on graphs
    # whose 2-balls take many shapes; at the smaller budget the 300-vertex graph
    # spans several runs and each |S1| several stacks.  A relabelled complete
    # graph and cycle and the 4-cube repeat their forms within and across
    # stacks, and in a unit-weight random graph forms of one degree differ in
    # their 2-balls
    rng = np.random.default_rng(36)
    graphs = [random_connected_graph(rng, int(rng.integers(8, 40)),
                                     extra_edge_prob=float(rng.uniform(0.05, 0.4))) for _ in range(4)]
    graphs.append(random_connected_graph(rng, 300, extra_edge_prob=0.03))
    graphs = [_with_isolated_vertices(g) for g in graphs]
    order = [graphs[-1].vertices[i] for i in rng.permutation(graphs[-1].num_vertices)]
    graphs.append(scaled_weights(graphs[-1], 1.0, order=order))
    for family, size in (("complete", 40), ("cycle", 50)):
        g = generate(family, size)
        graphs.append(scaled_weights(g, 1.0, order=[g.vertices[i] for i in rng.permutation(size)]))
    graphs.append(random_connected_graph(rng, 60, extra_edge_prob=0.08, weight_range=(1.0, 1.0),
                                         measure_range=(1.0, 1.0)))
    graphs.append(generate("hypercube", 4))
    for g in graphs:
        for n in (4.0, math.inf):
            for budget in (STACK_ENTRIES, 2**12):
                monkeypatch.setattr(operators, "STACK_ENTRIES", budget)
                _assert_profile_matches_the_stack_of_one(g, n)


def _assert_profile_matches_the_stack_of_one(g: WeightedGraph, n: float) -> None:
    """``curvature_profile`` against ``curvature_solve`` at each vertex."""
    for r in curvature_profile(g, n).per_vertex:
        one = curvature_solve(g, r.vertex, n)
        assert r.vertex == one.vertex and r.converged == one.converged
        if math.isinf(one.curvature):
            assert r.curvature == one.curvature and r.bracket_width == 0.0
            continue
        stack = local_form_stack(g, np.array([g.index(r.vertex)]))[0]
        c = g._scale[2]  # the stack is the normalized graph's: sigma in g's units is 4^(2c) times its sigma
        sigma = math.ldexp(_cd_scales(stack, math.ldexp(one.curvature, -2 * c), n)[0], 4 * c)
        assert abs(r.curvature - one.curvature) <= 1e-13 * sigma
        assert r.bracket_width == pytest.approx(one.bracket_width, rel=1e-12)


def _solved_members(monkeypatch, g: WeightedGraph, n: float):
    """The profile of g and how many stack members reached ``curvature._solve``."""
    import graphcurv.curvature as curvature

    members = []

    def counting_solve(stack, n):
        members.append(len(stack.gamma))
        return solve(stack, n)

    solve = curvature._solve
    monkeypatch.setattr(curvature, "_solve", counting_solve)
    profile = curvature_profile(g, n)
    monkeypatch.setattr(curvature, "_solve", solve)
    return profile, sum(members)


def test_each_representative_is_solved_once(monkeypatch):
    # twins are the only repeats: each twin representative is solved once, in
    # its one stack, even where its form equals another's.  K_60 is one class
    # of twins, so one form is solved; a cycle has no twins, so every vertex is.
    # Relabelled, the vertices of one class are scattered over the index order
    def solved(g, n):
        profile, members = _solved_members(monkeypatch, g, n)
        assert members == np.count_nonzero(twin_representatives(g) == np.arange(g.num_vertices))
        return profile, members

    profile, members = solved(generate("complete", 60), math.inf)
    assert members == 1
    for r in profile.per_vertex:
        assert r.curvature == pytest.approx(31.0, rel=1e-9) and r.converged
    assert solved(generate("cycle", 300), 4.0)[1] == 300
    rng = np.random.default_rng(42)
    for family, size, count in (("complete", 40, 1), ("cycle", 50, 50)):
        g = generate(family, size)
        relabelled = scaled_weights(g, 1.0, order=[g.vertices[i] for i in rng.permutation(size)])
        for n in (4.0, math.inf):
            assert solved(relabelled, n)[1] == count
    # two K_12 at the two ends of the index order and a 3,000-vertex weighted
    # tree between them: one solve per K_12 and one per tree vertex
    tree = generate("weighted_tree", 3000, seed=7)
    names = [f"a{i}" for i in range(12)] + list(tree.vertices) + [f"b{i}" for i in range(12)]
    weights = {(u, v): w for u, v, w in tree.edges()}
    for side in "ab":
        weights.update({(f"{side}{i}", f"{side}{j}"): 1.0 for i in range(12) for j in range(i + 1, 12)})
    g = WeightedGraph(names, weights, {v: 1.0 if v[0] in "ab" else tree.measure(v) for v in names})
    assert solved(g, math.inf)[1] == 3000 + 2
    # two paths of 5 vertices with a triangle between them in the index order:
    # the triangle is one class of twins, and each path vertex is solved
    names = ["c", "a", "x", "b", "d", "t0", "t1", "t2", "c2", "a2", "x2", "b2", "d2"]
    edges = [("c", "a"), ("a", "x"), ("x", "b"), ("b", "d"), ("t0", "t1"), ("t1", "t2"), ("t0", "t2"),
             ("c2", "a2"), ("a2", "x2"), ("x2", "b2"), ("b2", "d2")]
    g = WeightedGraph(names, dict.fromkeys(edges, 1.0), dict.fromkeys(names, 1.0))
    assert solved(g, math.inf)[1] == 11


@pytest.mark.parametrize("seed", range(3))
def test_twins_get_their_own_curvature(monkeypatch, seed):
    # a twin's form is its representative's up to the order of its support, so
    # the profile's copy differs from the twin's own solve by rounding only; the
    # judge holds at the reported K at every vertex
    rng = np.random.default_rng(seed)
    g, classes = planted_twins(rng, random_connected_graph(rng, 30, extra_edge_prob=0.1), 2, 2)
    for n in (4.0, math.inf):
        profile, members = _solved_members(monkeypatch, g, n)
        assert members == g.num_vertices - sum(len(c) - 1 for c in classes)
        _assert_profile_matches_the_stack_of_one(g, n)
        assert all(cd_check(g, r.curvature, n, r.vertex)[0] for r in profile.per_vertex)


def test_one_two_ball_per_class_of_twins(monkeypatch):
    # complete 60 walks the 2-ball of v0 alone; an anti-tree walks one vertex
    # per sphere, and each sphere's value is what curvature_solve gives at a
    # member that is not its representative
    def counting_two_balls(g, centers):
        walked.append(centers.tolist())
        return two_balls(g, centers)

    two_balls, walked = operators._two_balls, []
    monkeypatch.setattr(operators, "_two_balls", counting_two_balls)
    profile = curvature_profile(generate("complete", 60), math.inf)
    assert walked == [[0]] and [r.curvature for r in profile.per_vertex] == pytest.approx([31.0] * 60, rel=1e-12)
    walked.clear()
    g, spheres = antitree(2, 6)
    profile = curvature_profile(g, math.inf)
    assert sorted(sum(walked, [])) == [s.start for s in spheres]
    monkeypatch.setattr(operators, "_two_balls", two_balls)
    for s in spheres[1:]:
        assert {profile.per_vertex[x].curvature for x in s} == {profile.per_vertex[s.start].curvature}
        one = curvature_solve(g, g.vertices[s.stop - 1], math.inf).curvature
        assert profile.per_vertex[s.stop - 1].curvature == pytest.approx(one, rel=1e-12)


def test_forms_one_ulp_apart_are_solved_apart(monkeypatch):
    # twins are compared bitwise: on K_20 one measure off by one ulp leaves its
    # vertex out of the class, solved on its own and reported as by
    # curvature_solve.  A cycle with one weight off by one ulp is checked the same way
    complete = generate("complete", 20)
    measure = {v: np.nextafter(1.0, 0.0) if v == "v7" else 1.0 for v in complete.vertices}
    perturbed = WeightedGraph(complete.vertices, {(u, v): w for u, v, w in complete.edges()}, measure)
    cycle = generate("cycle", 30)
    near = {(u, v): np.nextafter(1.0, 2.0) if (u, v) == ("v10", "v11") else w for u, v, w in cycle.edges()}
    near_cycle = WeightedGraph(cycle.vertices, near, dict.fromkeys(cycle.vertices, 1.0))
    for n in (4.0, math.inf):
        assert _solved_members(monkeypatch, perturbed, n)[1] == 2
        assert _solved_members(monkeypatch, complete, n)[1] == 1
        _assert_profile_matches_the_stack_of_one(perturbed, n)
        _assert_profile_matches_the_stack_of_one(near_cycle, n)


@pytest.mark.parametrize("budget", [2**10, STACK_ENTRIES])
def test_each_run_is_walked_once(monkeypatch, budget):
    # the vertices are ordered by (|S1|, walks) before any walk, and each run
    # of that order is walked once.  |S2| is not sorted within one |S1| and
    # walk count, yet each stack keeps within the budget
    g = random_connected_graph(np.random.default_rng(40), 300, extra_edge_prob=0.03)
    k = np.diff(g.csr.indptr)
    walks = g.csr.row_reduce(np.add, k[g.csr.indices])
    order = np.lexsort((walks, k))
    runs, total = 0, math.inf
    for c in np.maximum(walks, (k + 1) ** 2)[order].tolist():
        runs, total = (runs, total + c) if total + c <= budget else (runs + 1, c)
    walked = []

    def counting_two_balls(g, centers):
        walked.append(centers)
        return two_balls(g, centers)

    two_balls = operators._two_balls
    monkeypatch.setattr(operators, "STACK_ENTRIES", budget)
    monkeypatch.setattr(operators, "_two_balls", counting_two_balls)
    stacks = _checked_stacks(g, budget)
    assert len(walked) == runs > 1 and np.array_equal(np.concatenate(walked), order)
    assert sorted(np.concatenate([stack.centers for stack in stacks]).tolist()) == list(range(g.num_vertices))


def _sphere_size(g: WeightedGraph, i: int) -> tuple[int, int]:
    """(|S1|, |S2|) of vertex i."""
    stack = local_form_stack(g, np.array([i]))[0]
    return stack.gamma.shape[1], stack.r.shape[1]


def _mixed_sphere_centers(g: WeightedGraph) -> np.ndarray:
    """The vertices of the |S1| whose 2-spheres take the most sizes, in index order."""
    shapes = [_sphere_size(g, i) for i in range(g.num_vertices)]
    k = max({k for k, _ in shapes}, key=lambda k: len({s2 for kk, s2 in shapes if kk == k}))
    return np.array([i for i, (kk, _) in enumerate(shapes) if kk == k])


@pytest.mark.parametrize("n", [4.0, math.inf])
@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_padded_two_spheres_are_decoupled(n, c):
    # a stack of one |S1| whose 2-spheres differ in size: each member's padded
    # forms give its own scale, curvature, width and verdicts, in any units
    g = scaled_weights(random_connected_graph(np.random.default_rng(38), 30, extra_edge_prob=0.1), c)
    centers = _mixed_sphere_centers(g)
    stack = local_form_stack(g, centers)[0]
    K, converged, width = _solve(stack, n)
    assert len({_sphere_size(g, x)[1] for x in centers}) >= 3
    for i, x in enumerate(centers):
        one = local_form_stack(g, np.array([x]))[0]
        s2 = one.r.shape[1]
        for padded, alone in ((stack.p[i], one.p[0]), (stack.q[i, :, :s2], one.q[0]), (stack.r[i, :s2], one.r[0])):
            np.testing.assert_allclose(padded, alone, rtol=1e-15, atol=0.0)
        assert not stack.q[i, :, s2:].any() and (stack.r[i, s2:] > 0).all()
        K1, converged1, width1 = _solve(one, n)
        sigma = _cd_scales(one, K1, n)[0]
        assert _cd_scales(stack, K1, n)[i] == pytest.approx(sigma, rel=1e-15)
        assert abs(K[i] - K1[0]) <= 1e-13 * sigma
        assert converged[i] == converged1[0]
        assert width[i] == pytest.approx(width1[0], rel=1e-12)
        # the judge refutes beyond K + width; at K + width itself rounding decides
        for at, holds in ((K1[0] - 10.0 * EIG_TOL * sigma, True),
                          (K1[0] + 10.0 * EIG_TOL * sigma, _cd_holds(one, K1[0] + 10.0 * EIG_TOL * sigma, n)[0]),
                          (K1[0] + 1.1 * width1[0], False)):
            assert _cd_holds(stack, np.full(len(centers), at), n)[i] == _cd_holds(one, at, n)[0] == holds


def test_empty_two_spheres_are_not_padded():
    # the center of a star with five unit leaves has a zero gamma2 diagonal, so
    # it cannot be padded; the hub of the second component has |S1| = 5 too
    names = ["c", *[f"l{i}" for i in range(5)], "h", *[f"m{i}" for i in range(5)], "far"]
    weights = {**{("c", f"l{i}"): 1.0 for i in range(5)}, **{("h", f"m{i}"): 1.0 for i in range(5)},
               ("m0", "far"): 1.0}
    g = WeightedGraph(names, weights, {v: 1.0 for v in names})
    assert not np.diagonal(local_forms(g, "c").gamma2_matrix).any()
    for n in (4.0, math.inf):
        for r in curvature_profile(g, n).per_vertex:
            assert math.isfinite(r.curvature) and r.converged
            assert r.curvature == pytest.approx(curvature_solve(g, r.vertex, n).curvature, rel=1e-13)


@pytest.mark.parametrize("extra_edge_prob", [0.04, 0.05, 0.06])
def test_irregular_graphs_batch_by_one_sphere_size(extra_edge_prob):
    # 100 vertices at the density of the benchmark's fuzzed graph: one run of
    # vertices, and a stack for each |S1|, not for each (|S1|, |S2|)
    g = random_connected_graph(np.random.default_rng(39), 100, extra_edge_prob=extra_edge_prob)
    k = np.diff(g.csr.indptr)
    cost = np.maximum(g.csr.row_reduce(np.add, k[g.csr.indices]), (k + 1) ** 2)
    assert cost.sum() <= STACK_ENTRIES  # one run
    assert len(_checked_stacks(g, STACK_ENTRIES)) <= len(set(k.tolist()))


@pytest.mark.parametrize("budget", [2**10, STACK_ENTRIES])
def test_padded_stacks_fit_the_budget(monkeypatch, budget):
    # the 2-balls of a random tree take many shapes
    monkeypatch.setattr(operators, "STACK_ENTRIES", budget)
    assert len(_checked_stacks(generate("weighted_tree", 3000, seed=7), budget)) > 1


def _checked_stacks(g: WeightedGraph, budget: int) -> list:
    """``local_form_stacks`` of the twin representatives, checked to hold each
    representative as a member of exactly one stack, each member with one |S1|
    and, when a stack has more than one member, its padded blocks within
    budget.  Twins are checked against their own solves by
    ``test_twins_get_their_own_curvature``.
    """
    k = np.diff(g.csr.indptr)
    rep = twin_representatives(g)
    stacks = list(local_form_stacks(g, rep))
    for stack in stacks:
        (V, k1), s2 = stack.gamma.shape, stack.r.shape[1]
        assert set(k[stack.centers].tolist()) <= {k1}
        assert V * (k1 + 1) * (k1 + s2 + 1) <= budget or V == 1
    members = np.concatenate([stack.centers for stack in stacks])
    assert sorted(members.tolist()) == np.flatnonzero(rep == np.arange(g.num_vertices)).tolist()
    return stacks


def test_judge_refutes_only_the_failing_member_of_a_stack():
    # a stack whose Cholesky fails as a whole is decided member by member,
    # also when the members' 2-spheres are padded to one size
    g = generate("cycle", 9)
    stack = local_form_stack(g, np.arange(9))[0]
    K = np.full(9, curvature_solve(g, "v0", 4.0).curvature)
    assert _cd_holds(stack, K, 4.0).all()
    K[4] += 0.5
    assert _cd_holds(stack, K, 4.0).tolist() == [True] * 4 + [False] + [True] * 4
    g = random_connected_graph(np.random.default_rng(38), 30, extra_edge_prob=0.1)
    centers = _mixed_sphere_centers(g)
    stack = local_form_stack(g, centers)[0]  # the normalized graph's forms, so K goes in times 4^-c
    scale = g._scale[2]
    K = np.ldexp([curvature_solve(g, g.vertices[c], 4.0).curvature for c in centers], -2 * scale)
    assert _cd_holds(stack, K, 4.0).all()
    for i in (0, int(np.argmax([_sphere_size(g, c)[1] for c in centers]))):
        bumped = K.copy()
        bumped[i] += math.ldexp(0.5, -2 * scale)
        assert _cd_holds(stack, bumped, 4.0).tolist() == [j != i for j in range(len(centers))]


@pytest.mark.parametrize("n", [4.0, math.inf])
def test_judge_on_each_side_of_the_threshold(n):
    # lambda_min(M(K)) moved to +-10 EIG_TOL sigma(K) by a shift of gamma2_matrix:
    # the Cholesky judge accepts above the threshold -EIG_TOL sigma(K), refutes
    # below it, and agrees with the sign of eigvalsh at both points
    fuzzed = random_connected_graph(np.random.default_rng(37), 12)
    for g, x in ((single_edge(), "v0"), (generate("complete", 30), "v0"), (fuzzed, "v5")):
        r = curvature_solve(g, x, n)
        assert r.converged
        forms = local_forms(g, x)
        lam = float(np.linalg.eigvalsh(_cd_matrices(_stack_of(forms), r.curvature, n)[0])[0])
        sigma = _cd_scales(_stack_of(forms), r.curvature, n)[0]
        for side in (10.0, -10.0):
            shifted = dataclasses.replace(forms, gamma2_matrix=forms.gamma2_matrix
                                          + (side * EIG_TOL * sigma - lam) * np.eye(forms.size))
            holds, eig = cd_check(g, r.curvature, n, x, shifted)
            assert holds == (side > 0) == (eig > 0)
            assert eig == pytest.approx(side * EIG_TOL * sigma, rel=1e-2)


def test_smallest_eigenvalue_decreases_in_K():
    rng = np.random.default_rng(26)
    g = random_connected_graph(rng, 10)
    x = g.vertices[0]
    forms = local_forms(g, x)
    eigs = [
        float(np.linalg.eigvalsh(_cd_matrices(_stack_of(forms), K, math.inf)[0])[0])
        for K in np.linspace(-5, 5, 21)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(eigs, eigs[1:]))


def test_kernel_safety():
    # functions vanishing on the 1-ball: no gradient, no Laplacian, Gamma_2 >= 0
    rng = np.random.default_rng(27)
    g = random_connected_graph(rng, 14)
    x = g.vertices[0]
    inner = ball(g, x, 1)
    for _ in range(20):
        arr = rng.uniform(-1, 1, g.num_vertices)
        for v in inner:
            arr[g.index(v)] = 0.0
        f = GraphFunction(g, arr)
        assert gamma_k(g, 1, f).value(x) == 0.0
        assert laplacian(g, f).value(x) == 0.0
        assert gamma_k(g, 2, f).value(x) >= -1e-12


# -- profile -----------------------------------------------------------------------


def test_profile_single_edge_symmetric():
    p = curvature_profile(single_edge(), math.inf)
    assert p.global_curvature == pytest.approx(2.0, abs=1e-8)
    assert len(p.per_vertex) == 2
    assert p.global_curvature == min(r.curvature for r in p.per_vertex)


def test_profile_per_vertex_is_a_sequence_of_results():
    g = random_connected_graph(np.random.default_rng(36), 7)
    p = curvature_profile(g, 3.0)
    results = tuple(curvature_solve(g, x, 3.0) for x in g.vertices)
    # the profile and the single-vertex solve share one closed form, so only K may differ by rounding
    expected = tuple(dataclasses.replace(r, curvature=float(k), converged=bool(c), bracket_width=float(w))
                     for r, k, c, w in zip(results, p.curvature, p.converged, p.bracket_width))
    assert [r.curvature for r in expected] == pytest.approx([r.curvature for r in results], rel=1e-12)
    per_vertex = p.per_vertex
    assert type(per_vertex) is tuple and per_vertex is p.per_vertex
    assert len(per_vertex) == 7
    assert per_vertex == expected
    assert per_vertex[-1] == expected[-1] and per_vertex[-7] == expected[0]
    assert per_vertex[1:6:2] == expected[1:6:2] and per_vertex[::-1] == expected[::-1]
    assert isinstance(per_vertex[2:4], tuple) and per_vertex[5:2] == ()
    for i in (7, -8):
        with pytest.raises(IndexError):
            per_vertex[i]
    with pytest.raises(TypeError):
        per_vertex["v0"]
    assert per_vertex != expected[:-1] and per_vertex != expected[::-1]
    assert all(type(r.curvature) is float and type(r.converged) is bool for r in per_vertex)


def test_profile_columns_are_read_only():
    p = curvature_profile(generate("cycle", 5), 4.0)
    assert p.vertices == ("v0", "v1", "v2", "v3", "v4") and p.dimension == 4.0
    assert p.converged.dtype == bool
    for column in (p.curvature, p.converged, p.bracket_width):
        assert column.shape == (5,)
        with pytest.raises(ValueError):
            column[0] = 0


def test_profile_equality():
    g = random_connected_graph(np.random.default_rng(37), 6)
    p, q = curvature_profile(g, math.inf), curvature_profile(g, math.inf)
    assert p == q and not p != q
    assert p != curvature_profile(g, 4.0)
    assert p != curvature_profile(scaled_weights(g, 2.0), math.inf)
    assert p != dataclasses.replace(p, global_curvature=p.global_curvature - 1.0)
    assert p != dataclasses.replace(p, bracket_width=p.bracket_width + 1.0)
    assert p != dataclasses.replace(p, converged=~p.converged)
    assert p != dataclasses.replace(p, vertices=p.vertices[::-1])
    assert p != p.per_vertex and p != "profile"
    # an isolated vertex reports +inf, which equals itself
    iso = WeightedGraph(["iso"], {}, {"iso": 1.0})
    assert curvature_profile(iso, 2.0) == curvature_profile(iso, 2.0)


def test_profile_path3_cross_checked_pointwise():
    g = generate("path", 3)
    p = curvature_profile(g, math.inf)
    rng = np.random.default_rng(28)
    K = p.global_curvature - 1e-6
    F = rng.uniform(-1, 1, (g.num_vertices, 1000))
    from graphcurv.operators import gamma_array, gamma_recursive_array

    g2 = gamma_recursive_array(g, 2, F, F)
    g1 = gamma_array(g, F, F)
    assert float(np.min(g2 - K * g1)) >= -1e-9


def test_profile_large_n_approaches_infinity_case():
    rng = np.random.default_rng(29)
    g = random_connected_graph(rng, 8)
    p_inf = curvature_profile(g, math.inf)
    p_big = curvature_profile(g, 1e9)
    for a, b in zip(p_inf.per_vertex, p_big.per_vertex):
        assert a.curvature == pytest.approx(b.curvature, abs=1e-6)


def test_known_family_values():
    # classical values for unit weights and counting measure: complete graphs
    # carry (N+2)/2, hypercubes carry 2, and the 4-cycle is the 2-cube
    assert curvature_profile(generate("complete", 5), math.inf).global_curvature == pytest.approx(3.5, abs=1e-8)
    assert curvature_profile(generate("hypercube", 3), math.inf).global_curvature == pytest.approx(2.0, abs=1e-8)
    assert curvature_profile(generate("cycle", 4), math.inf).global_curvature == pytest.approx(2.0, abs=1e-8)


def test_profile_of_disjoint_union_concatenates_profiles():
    # each 2-ball lies in one component; an isolated vertex reports +inf
    fuzzed = random_connected_graph(np.random.default_rng(35), 9)
    cube = generate("hypercube", 3, "normalizing")
    iso = WeightedGraph(["iso"], {}, {"iso": 2.0})
    parts = [fuzzed, cube, iso]
    union = WeightedGraph(
        [v for p in parts for v in p.vertices],
        {(u, v): w for p in parts for u, v, w in p.edges()},
        {v: p.measure(v) for p in parts for v in p.vertices},
    )
    for n in (2.0, math.inf):
        profiles = [curvature_profile(p, n) for p in parts]
        got = curvature_profile(union, n)
        expected = [r for p in profiles for r in p.per_vertex]
        assert [r.vertex for r in got.per_vertex] == [r.vertex for r in expected]
        for r, e in zip(got.per_vertex, expected):
            assert r.curvature == pytest.approx(e.curvature, rel=1e-12, abs=0.0)
            assert r.converged and e.converged
        assert profiles[2].global_curvature == math.inf
        assert got.global_curvature == min(p.global_curvature for p in profiles)
