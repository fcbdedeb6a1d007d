"""Weighted graphs with vertex measures, and functions living on them.

A graph here is a finite vertex set X together with a symmetric edge weight
b(x,y) > 0 (zero diagonal, no entry stored for non-edges) and a strictly
positive vertex measure m(x).  The graph is held in arrays: one dict maps
vertex ids to indices, and ``WeightedGraph.from_arrays`` takes the edges
as index arrays.  The local operators (Laplacian, carre du champ, degrees,
curvature forms) read the compressed rows of ``WeightedGraph.csr``, so they
run in memory linear in the number of vertices and edges, and so does the
heat semigroup's Chebyshev expansion; the estimates factorize a dense
N x N matrix.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "WeightedGraph",
    "GraphFunction",
    "EllipticityCertificate",
    "validate",
    "degree",
    "ball",
    "is_connected",
    "ellipticity_constant",
    "generate",
]


class AdjacencyCSR:
    """Compressed sparse rows of the weight matrix, every edge stored in both directions.

    Row x lists the neighbours y of x in index order,
    ``indices[indptr[x]:indptr[x + 1]]``, with the weights b(x, y) in
    ``weights`` at the same positions; ``rows`` holds the row of every stored
    entry.  All arrays are read-only.
    """

    def __init__(self, num_vertices: int, iu: np.ndarray, iv: np.ndarray, w: np.ndarray):
        """From ``WeightedGraph.edge_arrays``: each edge once, iu < iv, sorted by (iu, iv).

        Row x is then the edges (a, x) in the order of a < x followed by the
        edges (x, b) in the order of b > x, so a stable sort by row alone puts
        every row in index order.  It sorts the rows as the narrowest type
        that holds them: numpy's stable sort is a radix sort up to 16 bits.
        """
        rows = np.concatenate((iv, iu))
        order = np.argsort(rows.astype(np.min_scalar_type(max(num_vertices - 1, 0))), kind="stable")
        lengths = np.bincount(rows, minlength=num_vertices)
        self.indptr = np.append(0, np.cumsum(lengths))
        self.indices = np.concatenate((iu, iv))[order]
        self.weights = np.concatenate((w, w))[order]
        self.rows = rows[order]
        self._lengths = lengths
        self._nonempty = lengths > 0
        self._starts = self.indptr[:-1][self._nonempty]
        for a in (self.indptr, self.indices, self.weights, self.rows, lengths,
                  self._nonempty, self._starts):
            a.setflags(write=False)

    def row_reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """Reduce ``values`` (one entry per stored entry, or a batch (2E, B)) over each row.

        Rows of isolated vertices are 0.  They are masked out of ``reduceat``,
        which would return the first entry of the next row for an empty row
        (and fails on empty rows at the end).
        """
        out = np.zeros((len(self._lengths),) + values.shape[1:])
        if values.shape[0]:
            out[self._nonempty] = ufunc.reduceat(values, self._starts, axis=0)
        return out

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stored entries of ``rows`` laid end to end, and the position in ``rows`` of each.

        Applied to the centers' entries x -> y and then to their ends y, it
        gives the two-step walks x -> y -> z in a fixed number of numpy calls.
        """
        lengths = self._lengths[rows]
        owner = np.repeat(np.arange(len(lengths)), lengths)
        return (self.indptr[rows] - np.cumsum(lengths) + lengths)[owner] + np.arange(len(owner)), owner


def _pair_order(iu: np.ndarray, iv: np.ndarray):
    """The entries' stable order by unordered pair (min, max), the sorted min and max, and repeats.

    ``repeat`` marks the sorted entries whose pair is that of the entry
    before.  Input already in that order is not sorted again: ``edge_arrays``
    are, and ``serialize_graph`` writes its edge columns in their order, so
    every document it has written, of any version, parses without a sort.
    """
    lo, hi = np.minimum(iu, iv), np.maximum(iu, iv)
    if ((lo[1:] > lo[:-1]) | (lo[1:] == lo[:-1]) & (hi[1:] >= hi[:-1])).all():
        order = np.arange(len(lo))
    else:
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
    repeat = np.zeros(len(lo), dtype=bool)
    repeat[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    return order, lo, hi, repeat


def _indices(names: list[str], index: dict[str, int], unknown: dict[str, int]) -> np.ndarray:
    """The index of each name; a name that is not a vertex is numbered -1, -2, ... in ``unknown``."""
    try:
        return np.fromiter(map(index.__getitem__, names), np.intp, len(names))
    except KeyError:
        return np.array([index[x] if x in index else unknown.setdefault(x, -1 - len(unknown))
                         for x in names], dtype=np.intp)


def _power_of_four(x: float) -> int:
    """k with x 4^-k in [1, 4), exactly, for x > 0; 0 for x = 0."""
    return (math.frexp(x)[1] - 1) // 2 if x else 0


class WeightedGraph:
    """Finite weighted graph over a discrete measure space.

    Vertex ids are opaque strings mapped to dense indices 0..N-1 by one dict.
    The graph holds its edges as index arrays, once per unordered pair
    (``edge_arrays``), its measure as a vector in vertex order, and the
    compressed rows ``csr`` built from them on first use.  ``from_arrays``
    is the one constructor; the mapping constructor converts names to
    indices and calls it.  Construction does not fail on bad data: the
    structural checks run once on the arrays, ``validate`` returns what they
    found, and the numeric views of an invalid graph raise ``ValueError``.
    Instances are immutable and safe to share across threads.
    """

    def __init__(self, vertices: Iterable[str],
                 weights: Mapping[tuple[str, str], float] | Iterable[tuple[str, str, float]],
                 measure: Mapping[str, float]):
        """The graph with b(u, v) = ``weights[u, v]`` (or (u, v, w) triples) and m = ``measure``.

        A thin converter onto ``from_arrays``, which takes the pairs as given
        and applies its pair rule to them, as to those of every parser.
        Endpoints and measure keys that are not vertices, and vertices without
        a measure, are passed on by name for ``validate``.
        """
        names = [str(v) for v in vertices]
        pairs = [*weights.items()] if isinstance(weights, Mapping) else [((u, v), w) for u, v, w in weights]
        measure = {str(v): float(mv) for v, mv in measure.items()}
        index, unknown = dict(zip(names, range(len(names)))), {}
        ends = _indices([str(x) for pair, _ in pairs for x in pair], index, unknown).reshape(-1, 2)
        self.__dict__.update(vars(WeightedGraph.from_arrays(
            names, ends[:, 0], ends[:, 1], np.fromiter((float(w) for _, w in pairs), float, len(pairs)),
            [measure.get(v, math.nan) for v in names], undeclared=list(unknown), measure_keys=measure)))

    @classmethod
    def from_arrays(cls, vertices: Sequence[str], iu: np.ndarray, iv: np.ndarray, w: np.ndarray,
                    m: np.ndarray, *, undeclared: Sequence[str] = (),
                    measure_keys: Collection[str] | None = None) -> "WeightedGraph":
        """Edges (iu[k], iv[k]) of weight w[k] and the measure m, over ``vertices`` in index order.

        The one pair rule of every constructor and parser: a pair listed in both orientations
        with one weight is one edge, with two weights an asymmetry for ``validate``, and one
        listed twice in one orientation a ``ValueError`` naming the first such entry.  Index
        -1 - j is an endpoint that is not a vertex, ``undeclared[j]``.  ``measure_keys``, if
        given, are the ids with a declared measure: a vertex outside them has none (m is not
        read there), and a key that is not a vertex is a violation.
        """
        g = cls.__new__(cls)
        g._vertices = tuple(vertices)
        g._index = dict(zip(g._vertices, range(len(g._vertices))))
        iu, iv = np.asarray(iu, dtype=np.intp), np.asarray(iv, dtype=np.intp)
        w, m = np.asarray(w, dtype=float), np.array(m, dtype=float)
        n = len(g._vertices)
        if (not iu.shape == iv.shape == w.shape == (len(w),) or m.shape != (n,) or len(w)
                and (max(iu.max(), iv.max()) >= n or min(iu.min(), iv.min()) < -len(undeclared))):
            raise ValueError("expected edge arrays of one length, with indices in range, and m per vertex")
        order, lo, hi, repeat = _pair_order(iu, iv)
        up = (iu < iv)[order]  # the orientation of each entry, in pair order
        twice = repeat[1:] & (repeat[:-1] | (up[1:] == up[:-1]))
        if twice.any():
            k, labels = int(order[1:][twice].min()), g._vertices + tuple(reversed(undeclared))
            raise ValueError(f"edge ({labels[iu[k]]!r}, {labels[iv[k]]!r}) is listed twice in one orientation")
        g._violations = _violations(g, iu, iv, w, m, order, repeat, tuple(undeclared), measure_keys)
        g._edges, g._measure = tuple(a[~repeat] for a in (lo, hi, w[order])), m
        for a in (*g._edges, m):
            a.setflags(write=False)
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    def index(self, x: str) -> int:
        """Dense index of vertex ``x``; raises KeyError for unknown ids."""
        try:
            return self._index[x]
        except KeyError:
            raise KeyError(f"unknown vertex {x!r}") from None

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and all(map(np.array_equal, self.edge_arrays, other.edge_arrays))
            and np.array_equal(self.measure_vector, other.measure_vector)
        )

    __hash__ = None  # equality is structural; instances are not hashable

    def __repr__(self) -> str:
        edges = len(self.edge_arrays[2]) if not self._violations else "?"
        return f"WeightedGraph({self.num_vertices} vertices, {edges} edges)"

    def _require_valid(self) -> None:
        if self._violations:
            raise ValueError(
                "invalid graph: " + "; ".join(self._violations)
            )

    # -- numeric views ----------------------------------------------------

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(iu, iv, w), one entry per unordered edge, iu < iv, sorted by (iu, iv); read-only."""
        self._require_valid()
        return self._edges

    @cached_property
    def csr(self) -> AdjacencyCSR:
        """Compressed rows of the weights, built once from ``edge_arrays``."""
        return AdjacencyCSR(self.num_vertices, *self.edge_arrays)

    @property
    def measure_vector(self) -> np.ndarray:
        """m in vertex order; read-only."""
        self._require_valid()
        return self._measure

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        """Deg(x) = (1/m(x)) * sum_y b(x,y) for every vertex, a double wherever it is one.

        Row x is summed and divided with b and m(x) scaled exactly by m(x)'s power of two: weights 1e308
        with measures 1e300 give Deg 2e8 on a triangle, though the raw row sums overflow.
        """
        csr, m = self.csr, self.measure_vector
        e = np.frexp(m)[1]
        d = csr.row_reduce(np.add, np.ldexp(csr.weights, -e[csr.rows])) / np.ldexp(m, -e)
        d.setflags(write=False)
        return d

    @property
    def _scale(self) -> tuple["WeightedGraph", int, int]:
        """(the normalized graph, a, c), with max Deg 4^-c in [1, 4) and max m 4^-a in [1, 4) where it can be.

        Its ``csr`` weights are b 4^-(a+c), its measure m 4^-a and its degrees Deg 4^-c, on this graph's
        index arrays.  a is lowered where the smallest m or b 4^-(a+c) would leave the normal doubles, so
        every weight and measure is exact there.  A graph with a = c = 0 is its own, not cached: a graph
        that held itself would be a cycle.
        """
        a, c = self._exponents
        return (self._normalized if a or c else self), a, c

    @cached_property
    def _exponents(self) -> tuple[int, int]:
        tops = float(self.measure_vector.max(initial=0.0)), float(self.weighted_degrees.max(initial=0.0))
        if tops[1] == math.inf:  # where the curvature, of the order of max Deg, cannot be a double either
            raise ValueError("the weighted degrees overflow double precision in the graph's units")
        a, c = map(_power_of_four, tops)
        # each m and b 4^-c is v 4^-k with v in [1, 4); it stays exact, a normal double, while k - a lies
        # in [-511, 511].  At m / max m = 1e-330 a = k(max m) took m to 0, and S to 0 / 0 in the heat
        # semigroup, so a is lowered from there as far as the smallest needs
        m, w = self.measure_vector, self.csr.weights
        k = [_power_of_four(float(v)) for v in (m.min(), m.max())] if m.size else [a]
        k += [_power_of_four(float(v)) - c for v in (w.min(), w.max())] if w.size else []
        if max(k) - min(k) > 1022:
            raise ValueError(f"the graph spans more than double precision holds: the largest of m and b / max Deg "
                             f"is about 1e{(max(k) - min(k)) * math.log10(4.0):.0f} times the smallest")
        return min(a, min(k) + 511), c

    @cached_property
    def _normalized(self) -> "WeightedGraph":
        a, c = self._exponents
        u, csr, (iu, iv, w) = WeightedGraph.__new__(WeightedGraph), object.__new__(AdjacencyCSR), self.edge_arrays
        csr.__dict__.update(self.csr.__dict__)  # the index arrays are shared, and so is each array not scaled
        csr.weights, m, deg, w = (np.ldexp(v, -2 * e) if e else v for v, e in (
            (self.csr.weights, a + c), (self._measure, a), (self.weighted_degrees, c), (w, a + c)))
        for v in (csr.weights, m, deg, w):
            v.setflags(write=False)
        u.__dict__.update(_vertices=self._vertices, _index=self._index, _violations=(), _edges=(iu, iv, w),
                          _measure=m, csr=csr, weighted_degrees=deg, _exponents=(0, 0))
        return u

    @cached_property
    def _heat_semigroup(self):
        """The full heat semigroup, shared by every ``build_heat(self)``."""
        from .heat import HeatOperator

        return HeatOperator(self, None)

    def weight(self, u: str, v: str) -> float:
        """b(u, v), symmetric; 0.0 for non-adjacent pairs: a binary search in row u."""
        i, j, csr = self.index(u), self.index(v), self.csr
        start, end = csr.indptr[i], csr.indptr[i + 1]
        k = start + int(np.searchsorted(csr.indices[start:end], j))
        return float(csr.weights[k]) if k < end and csr.indices[k] == j else 0.0

    def measure(self, x: str) -> float:
        return float(self.measure_vector[self.index(x)])

    def edges(self) -> Iterable[tuple[str, str, float]]:
        """Iterate edges once per unordered pair in index order."""
        names = self._vertices
        for i, j, wij in zip(*(a.tolist() for a in self.edge_arrays)):
            yield names[i], names[j], wij

    def neighbors(self, x: str) -> tuple[str, ...]:
        i, csr = self.index(x), self.csr
        return tuple(self._vertices[j] for j in csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist())


def _violations(g: WeightedGraph, iu, iv, w, m, order, repeat, undeclared, measure_keys) -> tuple[str, ...]:
    """One message per violation: duplicate ids, then the edge entries in order, then the measures.

    Each edge entry is reported for its first fault of: an endpoint that is
    not a vertex, a diagonal, a weight that is inf or NaN, one that is not
    positive, and an asymmetry; a measure is missing, inf or NaN, or not
    positive.  A pair listed in both orientations with two weights is an
    asymmetry at the entry whose endpoint names ascend.  Only flagged
    entries are named.
    """
    names, seen, out = g._vertices, set(), []
    if len(g._index) < len(names):
        out = [f"duplicate vertex id {v!r}" for v in names if v in seen or seen.add(v)]
    labels = names + tuple(reversed(undeclared))  # index -1 - j is undeclared[j]
    outside = (iu < 0) | (iv < 0)
    diagonal = ~outside & (iu == iv)
    bad = ~(outside | diagonal) & ~(np.isfinite(w) & (w > 0.0))
    infinite = bad & ~np.isfinite(w)  # inf and NaN: the part of bad that is named first
    asymmetric, ws = np.zeros(len(w), dtype=bool), w[order]
    for s in np.flatnonzero(repeat[1:] & (ws[1:] != ws[:-1])).tolist():  # the two entries of a pair
        for k in order[[s, s + 1]].tolist():
            asymmetric[k] = not (outside[k] or bad[k]) and labels[iu[k]] < labels[iv[k]]
    kinds = ("edge ({!r}, {!r}) has an undeclared endpoint", "nonzero diagonal at {!r}",
             "non-finite weight at ({!r}, {!r})", "nonpositive weight at ({!r}, {!r})",
             "asymmetry at ({!r}, {!r})")
    flags = np.stack((outside, diagonal, infinite, bad, asymmetric))
    for k in np.flatnonzero(flags.any(axis=0)).tolist():
        out.append(kinds[int(np.argmax(flags[:, k]))].format(labels[iu[k]], labels[iv[k]]))
    for i in np.flatnonzero(~(np.isfinite(m) & (m > 0.0))).tolist():
        missing = measure_keys is not None and names[i] not in measure_keys
        kind = "missing" if missing else "nonpositive" if math.isfinite(m[i]) else "non-finite"
        out.append(f"{kind} measure at {names[i]!r}")
    out += [f"measure entry for unknown vertex {v!r}" for v in measure_keys or () if v not in g._index]
    return tuple(out)


class GraphFunction:
    """Real-valued function on the vertex set of a host graph.

    The value domain must coincide with the host's vertex set; the backing
    array is read-only and aligned with the graph's internal vertex order.
    """

    def __init__(self, graph: WeightedGraph, values: Mapping[str, float] | Sequence[float] | np.ndarray):
        self._graph = graph
        if isinstance(values, Mapping):
            missing = [v for v in graph.vertices if v not in values]
            extra = [v for v in values if v not in graph]
            if missing or extra:
                raise ValueError(
                    f"function domain mismatch: missing {missing!r}, extra {extra!r}"
                )
            arr = np.array([float(values[v]) for v in graph.vertices])
        else:
            arr = np.asarray(values, dtype=float).copy()
            if arr.shape != (graph.num_vertices,):
                raise ValueError(
                    f"expected {graph.num_vertices} values, got shape {arr.shape}"
                )
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def indicator(cls, graph: WeightedGraph, x: str) -> "GraphFunction":
        arr = np.zeros(graph.num_vertices)
        arr[graph.index(x)] = 1.0
        return cls(graph, arr)

    @classmethod
    def constant(cls, graph: WeightedGraph, c: float) -> "GraphFunction":
        return cls(graph, np.full(graph.num_vertices, float(c)))

    @property
    def graph(self) -> WeightedGraph:
        return self._graph

    @property
    def array(self) -> np.ndarray:
        return self._values

    def value(self, x: str) -> float:
        return float(self._values[self._graph.index(x)])

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self._graph.vertices, self._values.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphFunction):
            return NotImplemented
        return self._graph == other._graph and np.array_equal(self._values, other._values)

    __hash__ = None

    def __repr__(self) -> str:
        return f"GraphFunction({self.as_dict()!r})"


@dataclass(frozen=True)
class EllipticityCertificate:
    """Smallest constant C with b(x,y) <= C * m(x) * m(y) on every edge."""

    constant: float
    witness_edge: tuple[str, str] | None


def _check_graph_function(g: WeightedGraph, f: GraphFunction, name: str = "f") -> None:
    if f.graph is not g and f.graph != g:
        raise ValueError(f"{name} is not defined on the given graph")


def validate(g: WeightedGraph) -> list[str]:
    """Check the structural invariants; return one description per violation.

    An empty list means the graph is well formed: symmetric positive weights,
    zero diagonal, declared endpoints, and a strictly positive measure on
    exactly the vertex set.  Violations are data for the caller, not errors.
    """
    return list(g._violations)


def degree(g: WeightedGraph, x: str) -> float:
    """Weighted vertex degree Deg(x) = (1/m(x)) * sum_y b(x,y)."""
    return float(g.weighted_degrees[g.index(x)])


def ball(g: WeightedGraph, x: str, r: int) -> set[str]:
    """Vertices within combinatorial distance r of x (edges are b > 0 pairs), by a BFS on ``csr``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    frontier = np.array([g.index(x)])
    csr, seen = g.csr, np.zeros(g.num_vertices, dtype=bool)
    seen[frontier] = True
    for _ in range(r):
        ends = csr.indices[csr.entries(frontier)[0]]
        frontier = np.unique(ends[~seen[ends]])
        if not frontier.size:
            break
        seen[frontier] = True
    return {g.vertices[i] for i in np.flatnonzero(seen).tolist()}


def is_connected(g: WeightedGraph) -> bool:
    """True iff every pair of vertices is joined by a positive-weight path.

    Each round hooks every root label onto the smallest root label across
    its edges, then jumps every label to its root.  A BFS would take as many
    rounds as the diameter.
    """
    if g.num_vertices == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    iu, iv, _ = g.edge_arrays
    label = np.arange(g.num_vertices)
    while (label[iu] != label[iv]).any():
        np.minimum.at(label, np.maximum(label[iu], label[iv]), np.minimum(label[iu], label[iv]))
        while (label[label] != label).any():
            label = label[label]
    return bool((label == 0).all())


def ellipticity_constant(g: WeightedGraph) -> EllipticityCertificate:
    """Maximize b(x,y) / (m(x) m(y)) over edges; 0 for edgeless graphs."""
    iu, iv, w = g.edge_arrays
    if not w.size:
        return EllipticityCertificate(constant=0.0, witness_edge=None)
    m = g.measure_vector
    ratio = w / (m[iu] * m[iv])
    k = int(np.argmax(ratio))  # the first edge among ties
    return EllipticityCertificate(
        constant=float(ratio[k]), witness_edge=(g.vertices[iu[k]], g.vertices[iv[k]])
    )


def generate(
    family: str,
    size: int,
    measure_profile: str = "unit",
    seed: int | None = None,
) -> WeightedGraph:
    """Build a standard test graph.

    Families: ``path``, ``cycle``, ``complete``, ``star`` (size = number of
    leaves), ``hypercube`` (size = dimension), ``weighted_tree`` (random tree
    with weights drawn uniformly from [0.5, 2.0]; requires ``seed`` for
    reproducibility, defaulting to 0).

    ``measure_profile`` is ``"unit"`` (m = 1 everywhere) or ``"normalizing"``
    (m(x) = sum_y b(x,y), which makes every weighted degree equal to 1).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    names, w = [f"v{i}" for i in range(size)], None
    if family == "path":
        iu, iv = np.arange(size - 1), np.arange(1, size)
    elif family == "cycle":
        if size < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        iu, iv = np.arange(size), (np.arange(size) + 1) % size
    elif family == "complete":
        iu, iv = np.triu_indices(size, 1)
    elif family == "star":
        names = ["c"] + [f"l{i}" for i in range(size)]
        iu, iv = np.zeros(size, dtype=np.intp), np.arange(1, size + 1)
    elif family == "hypercube":
        names = [format(i, f"0{size}b") for i in range(2**size)]
        i = np.arange(2**size)[:, None]
        flips = i ^ (1 << np.arange(size))
        iu, iv = np.nonzero(flips > i)[0], flips[flips > i]
    elif family == "weighted_tree":
        rng = np.random.default_rng(0 if seed is None else seed)
        draws = np.array([(rng.integers(0, i), rng.uniform(0.5, 2.0)) for i in range(1, size)]).reshape(-1, 2)
        iu, iv, w = draws[:, 0].astype(np.intp), np.arange(1, size), draws[:, 1]
    else:
        raise ValueError(f"unknown graph family {family!r}")
    w = np.ones(len(iu)) if w is None else w

    if measure_profile == "unit":
        m = np.ones(len(names))
    elif measure_profile == "normalizing":
        # each vertex adds up its edges in edge order, as a sum over a weights mapping does
        m = np.bincount(np.column_stack((iu, iv)).ravel(), np.repeat(w, 2), minlength=len(names))
        if not m.all():
            isolated = [names[i] for i in np.flatnonzero(m == 0.0).tolist()]
            raise ValueError(f"normalizing measure undefined for isolated vertices {isolated!r}")
    else:
        raise ValueError(f"unknown measure profile {measure_profile!r}")
    return WeightedGraph.from_arrays(names, iu, iv, w, m)
