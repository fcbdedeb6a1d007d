"""Shared test helpers: random graphs and naive single-vertex oracles.

The naive oracles below follow the pointwise definitions with plain Python
loops over neighbors.  They deliberately share no code with the package's
vectorized kernels so that agreement between the two is a genuine check.
The reference curvature path (whole-graph indicator assembly of the local
forms and a bisection solver) is the slow but formula-free computation the
package's 2-ball assembly and closed-form solver are compared against, a
dense uniform quadrature is the reference for the closed form of the
gradient integral in estimate (ii), an eager one-report-per-triple builder
is the reference for the columnar estimate sweep, and edge and column
loops are the references for the ellipticity constant and the adjacency
operator norm.  Dense N x N references, filled pair by pair from
``WeightedGraph.weight``, check the package's edge-list kernels, and a
dict-of-dicts adjacency with a plain breadth-first search checks the
graph's own lookups (``weight``, ``neighbors``, ``ball``, ``is_connected``),
and a pair-by-pair comparison of weights checks the classes of twins.
``assert_kernel_modes`` pins the kernel of a heat eigenbasis to its first
modes, one per component inside the domain, with eigenvalues exactly 0, and
``assert_kernel_columns`` pins those modes to sqrt(m) on each component.
``two_triangles`` is the nearly disconnected graph of the kernel tests.
"""

from __future__ import annotations

import math

import numpy as np

from graphcurv import EstimateReport, GraphFunction, LocalForms, WeightedGraph
from graphcurv.curvature import cd_check
from graphcurv.estimates import REPORT_TOL, _slack_arrays
from graphcurv.graphs import ball
from graphcurv.heat import HeatOperator
from graphcurv.operators import gamma_recursive_array, laplacian_array


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra_edge_prob: float = 0.15,
    weight_range: tuple[float, float] = (0.1, 2.0),
    measure_range: tuple[float, float] = (0.1, 2.0),
) -> WeightedGraph:
    """Random spanning tree plus extra edges, fuzzed weights and measures."""
    names = [f"v{i}" for i in range(n)]
    weights: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        weights[(names[parent], names[i])] = float(rng.uniform(*weight_range))
    for i in range(n):
        for j in range(i + 1, n):
            if (names[i], names[j]) not in weights and rng.random() < extra_edge_prob:
                weights[(names[i], names[j])] = float(rng.uniform(*weight_range))
    measure = {v: float(rng.uniform(*measure_range)) for v in names}
    return WeightedGraph(names, weights, measure)


def scaled_weights(g: WeightedGraph, c: float, measure_factor: float = 1.0,
                   order=None) -> WeightedGraph:
    """Weights times c, measures times measure_factor, vertices listed in order."""
    return WeightedGraph(
        g.vertices if order is None else order,
        {(u, v): c * w for u, v, w in g.edges()},
        {v: measure_factor * g.measure(v) for v in g.vertices},
    )


def antitree(p: int, radius: int) -> tuple[WeightedGraph, list[range]]:
    """The unit anti-tree with spheres of (r + 1)^p vertices, r < radius, consecutive
    spheres completely joined, and its spheres as ranges of vertex indices."""
    starts = np.cumsum([0] + [(r + 1) ** p for r in range(radius)]).tolist()
    spheres = [range(a, b) for a, b in zip(starts, starts[1:])]
    iu = np.concatenate([np.repeat(s, len(t)) for s, t in zip(spheres, spheres[1:])])
    iv = np.concatenate([np.tile(t, len(s)) for s, t in zip(spheres, spheres[1:])])
    g = WeightedGraph.from_arrays([f"v{i}" for i in range(starts[-1])], iu, iv, np.ones(len(iu)),
                                  np.ones(starts[-1]))
    return g, spheres


def planted_twins(rng: np.random.Generator, g: WeightedGraph, false: int, true: int) -> tuple[
        WeightedGraph, list[set[str]]]:
    """g with planted classes of twins, listed in a random order, and the classes.

    Each of ``false`` vertices gets one or two copies of its row and measure,
    not joined to it; each of ``true`` vertices gets one or two copies joined to
    it and to each other by one drawn weight.
    """
    weights = {(u, v): w for u, v, w in g.edges()}
    measure = {v: g.measure(v) for v in g.vertices}
    classes = []
    for i, x in enumerate(rng.choice(g.vertices, false + true, replace=False).tolist()):
        mutual = float(rng.uniform(0.1, 2.0))
        classes.append({x})
        for j in range(int(rng.integers(1, 3))):
            twin = f"{x}'{j}"
            row = {(twin, y if u == x else u): w for (u, y), w in weights.items() if x in (u, y)}
            weights.update(row)
            if i >= false:
                weights.update({(twin, c): mutual for c in classes[-1]})
            measure[twin] = measure[x]
            classes[-1].add(twin)
    names = list(measure)
    return WeightedGraph([names[i] for i in rng.permutation(len(names))], weights, measure), classes


def naive_twin_representatives(g: WeightedGraph) -> list[int]:
    """The lowest index y with m(y) = m(x) and b(x, z) = b(y, z) for every z
    outside {x, y}, for each vertex x, pair by pair from ``WeightedGraph.weight``."""
    names, rep = g.vertices, []
    for x in names:
        rep.append(next(i for i, y in enumerate(names) if y == x or g.measure(y) == g.measure(x) and all(
            g.weight(x, z) == g.weight(y, z) for z in names if z not in (x, y))))
    return rep


def random_function(rng: np.random.Generator, g: WeightedGraph, lo=-1.0, hi=1.0) -> GraphFunction:
    return GraphFunction(g, rng.uniform(lo, hi, g.num_vertices))


def naive_laplacian(g: WeightedGraph, f: dict[str, float]) -> dict[str, float]:
    out = {}
    for x in g.vertices:
        acc = 0.0
        for y in g.neighbors(x):
            acc += g.weight(x, y) * (f[y] - f[x])
        out[x] = acc / g.measure(x)
    return out


def naive_gamma(g: WeightedGraph, f: dict[str, float], h: dict[str, float]) -> dict[str, float]:
    out = {}
    for x in g.vertices:
        acc = 0.0
        for y in g.neighbors(x):
            acc += g.weight(x, y) * (f[y] - f[x]) * (h[y] - h[x])
        out[x] = acc / (2.0 * g.measure(x))
    return out


def naive_gamma2(g: WeightedGraph, f: dict[str, float], h: dict[str, float]) -> dict[str, float]:
    lap_h = naive_laplacian(g, h)
    lap_f = naive_laplacian(g, f)
    term1 = naive_laplacian(g, naive_gamma(g, f, h))
    term2 = naive_gamma(g, f, lap_h)
    term3 = naive_gamma(g, lap_f, h)
    return {x: 0.5 * (term1[x] - term2[x] - term3[x]) for x in g.vertices}


def dense_weights(g: WeightedGraph) -> np.ndarray:
    """W[i, j] = b(x_i, x_j), filled pair by pair."""
    W = np.zeros((g.num_vertices, g.num_vertices))
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            if i != j:
                W[i, j] = g.weight(u, v)
    return W


def dense_degrees(g: WeightedGraph) -> np.ndarray:
    return dense_weights(g).sum(axis=1) / g.measure_vector


def dense_laplacian(g: WeightedGraph, F: np.ndarray) -> np.ndarray:
    """(W F - diag(row sums) F) / m for one function (N,) or a batch (N, B)."""
    W = dense_weights(g)
    F2 = F.reshape(g.num_vertices, -1)
    out = (W @ F2 - W.sum(axis=1)[:, None] * F2) / g.measure_vector[:, None]
    return out.reshape(F.shape)


def dense_gamma(g: WeightedGraph, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """(1/2m(x)) sum_y W[x,y] (F[y]-F[x]) (H[y]-H[x]) over all N^2 pairs."""
    W = dense_weights(g)
    F2, H2 = F.reshape(g.num_vertices, -1), H.reshape(g.num_vertices, -1)
    dF, dH = F2[None] - F2[:, None], H2[None] - H2[:, None]
    out = np.einsum("xy,xyb,xyb->xb", W, dF, dH) / (2.0 * g.measure_vector[:, None])
    return out.reshape(F.shape)


# -- reference curvature path ---------------------------------------------------


def reference_local_forms(g: WeightedGraph, x: str) -> LocalForms:
    """Local forms from the pointwise bilinear operators on the whole graph.

    Each matrix entry is the operator evaluated on a pair of coordinate
    indicator functions of the punctured 2-ball, so the assembly has no
    formula of its own to get wrong.
    """
    ix = g.index(x)
    one_ball = sorted(g.index(v) for v in ball(g, x, 1) if v != x)
    two_sphere = sorted(g.index(v) for v in ball(g, x, 2) - ball(g, x, 1))
    support_idx = one_ball + two_sphere
    s = len(support_idx)
    names = tuple(g.vertices[i] for i in support_idx)
    if s == 0:
        return LocalForms(x, (), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0), 0)

    basis = np.zeros((g.num_vertices, s))
    basis[support_idx, np.arange(s)] = 1.0
    ii, jj = np.triu_indices(s)
    g2_vals = gamma_recursive_array(g, 2, basis[:, ii], basis[:, jj])[ix]
    g1_vals = gamma_recursive_array(g, 1, basis[:, ii], basis[:, jj])[ix]
    A2 = np.zeros((s, s))
    B = np.zeros((s, s))
    A2[ii, jj] = A2[jj, ii] = g2_vals
    B[ii, jj] = B[jj, ii] = g1_vals
    return LocalForms(x, names, A2, B, laplacian_array(g, basis)[ix], len(one_ball))


def bisection_solve(g: WeightedGraph, x: str, n: float) -> tuple[float, float]:
    """(K, bracket_width) for sup{K : CD(K,n) at x} by bisection.

    Bisects on cd_check's acceptance rule applied to the reference forms.
    The bracket [-1, 1] doubles until it straddles feasibility (upwards only
    as far as 1e6) and then halves to an absolute 1e-9; K is the feasible
    end.  Isolated vertices, where CD is vacuous, give +inf.
    """
    limit = 1e6
    forms = reference_local_forms(g, x)
    if forms.size == 0:
        return math.inf, 0.0

    def feasible(K: float) -> bool:
        return cd_check(g, K, n, x, forms)[0]

    lo, hi = -1.0, 1.0
    hi_ok = feasible(hi)
    while hi_ok and hi < limit:
        lo, hi = hi, min(2.0 * hi, limit)
        hi_ok = feasible(hi)
    if hi_ok:
        return limit, 0.0
    while not feasible(lo):
        lo, hi = 2.0 * lo, lo
    while hi - lo > 2.0 * 1e-9:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, 0.5 * (hi - lo)


# -- reference gradient integral ------------------------------------------------


def reference_gradient_integral(
    h: HeatOperator, K: float, lap_f: np.ndarray, t: float, panels: int = 512, order: int = 24
) -> np.ndarray:
    """Int_0^t e^{2Ks} P_s (P_{t-s} lap_f)^2 ds by a dense uniform composite Gauss rule.

    One function (N,) on a full-graph operator.  All nodes are evaluated at
    once in the eigenbasis.  lap_f is a Laplacian, so its kernel component
    is zero in exact arithmetic; it is set to zero here rather than carried
    as rounding that P_{t-s} would keep while the rest decays.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    s = (edges[:-1, None] + half * (x + 1.0)).ravel()
    ws = (half * w).ravel()
    lam, V, mh = h.eigenvalues, h.eigenbasis, h.measure_half
    c = V.T @ (mh * lap_f)
    c[h.kernel_modes] = 0.0
    u = (V @ (np.exp(-np.outer(lam, t - s)) * c[:, None])) / mh[:, None]
    ps_u2 = (V @ (np.exp(-np.outer(lam, s)) * (V.T @ (mh[:, None] * u * u)))) / mh[:, None]
    return ps_u2 @ (ws * np.exp(2.0 * K * s))


def assert_kernel_modes(h: HeatOperator, k: int) -> None:
    """The kernel of h is its first k modes, and their eigenvalues are exactly 0.0."""
    assert h.kernel_modes.tolist() == [True] * k + [False] * (len(h.eigenvalues) - k)
    assert h.eigenvalues[:k].tolist() == [0.0] * k


def assert_kernel_columns(h: HeatOperator, components: list[list[str]]) -> None:
    """The kernel modes of the full-graph h are sqrt(m) 1_C / ||sqrt(m) 1_C||, one per component C in order.

    Each entry within 1e-15, the components given by name.
    """
    g, m = h.graph, h.graph.measure_vector
    expected = np.zeros((g.num_vertices, len(components)))
    for j, c in enumerate(components):
        idx = [g.index(v) for v in c]
        expected[idx, j] = np.sqrt(m[idx] / np.sum(m[idx]))
    assert_kernel_modes(h, len(components))
    assert np.max(np.abs(h.eigenbasis[:, h.kernel_modes] - expected), initial=0.0) <= 1e-15


def two_triangles(bridge: float | None = None) -> WeightedGraph:
    """Two unit triangles abc and def, joined by an edge c-d of weight ``bridge`` unless it is None."""
    weights = {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0, ("d", "e"): 1.0, ("e", "f"): 1.0, ("d", "f"): 1.0}
    if bridge is not None:
        weights[("c", "d")] = bridge
    return WeightedGraph(list("abcdef"), weights, {v: 1.0 for v in "abcdef"})


# -- reference estimate sweep and ellipticity norm --------------------------------


def eager_sweep(
    g: WeightedGraph, K: float, n: float, t_grid, corpus, h: HeatOperator
) -> tuple[list[EstimateReport], int, EstimateReport | None]:
    """(reports, number of failures, first counterexample) of a sweep, built eagerly.

    One ``EstimateReport`` per (function, t, vertex), in that order, each
    judged on its own against REPORT_TOL times the verdict scale of its
    (function, t).  The slacks are evaluated one t at a time, each t a grid
    of one.
    """
    F = np.stack([f.array for _, f in corpus], axis=1)
    per_t = {t: _slack_arrays(g, h, K, n, F, [t]) for t in t_grid}
    reports = []
    for col, (fid, _) in enumerate(corpus):
        for t in t_grid:
            slacks, scale = per_t[t]
            for ix, x in enumerate(g.vertices):
                values = [float(a[col, 0, ix]) for a in slacks]
                verdicts = {
                    name: v >= -REPORT_TOL * float(scale[k, col, 0])
                    for k, (name, v) in enumerate(zip(("ii", "iii", "iv", "v"), values))
                }
                reports.append(EstimateReport(fid, float(t), x, float(K), float(n), *values,
                                              verdicts))
    failures = [r for r in reports if not r.passed]
    return reports, len(failures), failures[0] if failures else None


def loop_ellipticity_constant(g: WeightedGraph) -> tuple[float, tuple[str, str] | None]:
    """max b(x,y)/(m(x)m(y)) over the edges in order; the first edge wins a tie."""
    best, witness = 0.0, None
    for u, v, w in g.edges():
        ratio = w / (g.measure(u) * g.measure(v))
        if ratio > best:
            best, witness = ratio, (u, v)
    return best, witness


def loop_adjacency_norm(g: WeightedGraph) -> float:
    """max over y of ||A 1_y||_inf / ||1_y||_1, one indicator column at a time."""
    W, m = dense_weights(g), g.measure_vector
    norm = 0.0
    for iy in range(g.num_vertices):
        norm = max(norm, float(np.max(np.abs(W[:, iy] / m))) / float(m[iy]))
    return norm


# -- reference adjacency and breadth-first search -----------------------------------


def naive_adjacency(names, triples) -> dict[str, dict[str, float]]:
    """b(u, v) by name from (u, v, w) triples, each pair stored both ways."""
    adjacency: dict[str, dict[str, float]] = {v: {} for v in names}
    for u, v, w in triples:
        adjacency[u][v] = adjacency[v][u] = w
    return adjacency


def bfs_ball(adjacency: dict[str, dict[str, float]], x: str, r: int) -> set[str]:
    """Vertices within r steps of x, by a plain breadth-first search."""
    seen, frontier = {x}, [x]
    for _ in range(r):
        reached = []
        for y in frontier:
            for z in adjacency[y]:
                if z not in seen:
                    seen.add(z)
                    reached.append(z)
        frontier = reached
    return seen
