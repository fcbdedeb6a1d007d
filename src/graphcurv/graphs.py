"""Weighted graphs with vertex measures, and functions living on them.

A graph here is a finite vertex set X together with a symmetric edge weight
b(x,y) > 0 (zero diagonal, no entry stored for non-edges) and a strictly
positive vertex measure m(x).  Numerical kernels index vertices by the
graph's internal order.  The local operators (Laplacian, carre du champ,
degrees, curvature forms) read the compressed rows of ``WeightedGraph.csr``,
so they run in memory linear in the number of vertices and edges.  The
heat semigroup, and the estimates built on it, factorize a dense N x N
matrix assembled from the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
        rows = np.concatenate((iu, iv))
        cols = np.concatenate((iv, iu))
        order = np.lexsort((cols, rows))
        lengths = np.bincount(rows, minlength=num_vertices)
        self.indptr = np.zeros(num_vertices + 1, dtype=np.intp)
        np.cumsum(lengths, out=self.indptr[1:])
        self.indices = cols[order]
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


class WeightedGraph:
    """Finite weighted graph over a discrete measure space.

    Vertex ids are opaque strings mapped internally to dense indices
    0..N-1, which keeps file round-trips stable while letting the linear
    algebra run on contiguous arrays.  Edge weights are canonically stored
    once per unordered pair and accessed symmetrically, so a successfully
    constructed graph cannot represent an asymmetric weight; ``validate``
    exists to diagnose raw ingested data before the numeric caches are
    touched.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        weights: Mapping[tuple[str, str], float] | Iterable[tuple[str, str, float]],
        measure: Mapping[str, float],
    ):
        self._vertices = tuple(str(v) for v in vertices)
        if isinstance(weights, Mapping):
            raw = {(str(u), str(v)): float(w) for (u, v), w in weights.items()}
        else:
            raw = {(str(u), str(v)): float(w) for u, v, w in weights}
        self._raw_weights = raw
        self._raw_measure = {str(v): float(mv) for v, mv in measure.items()}
        self._index = {v: i for i, v in enumerate(self._vertices)}

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
            and self._canonical_weights == other._canonical_weights
            and self._raw_measure == other._raw_measure
        )

    __hash__ = None  # equality is structural; instances are not hashable

    def __repr__(self) -> str:
        return (
            f"WeightedGraph({self.num_vertices} vertices, "
            f"{len(self._canonical_weights) if not self._violations else '?'} edges)"
        )

    # -- validity and canonical storage ----------------------------------

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        out: list[str] = []
        seen: set[str] = set()
        for v in self._vertices:
            if v in seen:
                out.append(f"duplicate vertex id {v!r}")
            seen.add(v)
        for (u, v), w in self._raw_weights.items():
            if u not in self._index or v not in self._index:
                out.append(f"edge ({u!r}, {v!r}) has an undeclared endpoint")
                continue
            if u == v:
                out.append(f"nonzero diagonal at {u!r}")
                continue
            if not math.isfinite(w) or w <= 0.0:
                out.append(f"nonpositive weight at ({u!r}, {v!r})")
                continue
            mirror = self._raw_weights.get((v, u))
            if mirror is not None and mirror != w and u < v:
                out.append(f"asymmetry at ({u!r}, {v!r})")
        for v in self._vertices:
            mv = self._raw_measure.get(v)
            if mv is None:
                out.append(f"missing measure at {v!r}")
            elif not math.isfinite(mv) or mv <= 0.0:
                out.append(f"nonpositive measure at {v!r}")
        for v in self._raw_measure:
            if v not in self._index:
                out.append(f"measure entry for unknown vertex {v!r}")
        return tuple(out)

    def _require_valid(self) -> None:
        if self._violations:
            raise ValueError(
                "invalid graph: " + "; ".join(self._violations)
            )

    @cached_property
    def _canonical_weights(self) -> dict[tuple[str, str], float]:
        """Edges keyed once per unordered pair, endpoint indices ascending."""
        self._require_valid()
        canon: dict[tuple[str, str], float] = {}
        for (u, v), w in self._raw_weights.items():
            if self._index[u] > self._index[v]:
                u, v = v, u
            canon[(u, v)] = w
        return canon

    # -- numeric views ----------------------------------------------------

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix aligned with the vertex order.

        A view for callers, built on first access; it takes N^2 floats, and
        no computation in the package reads it (they use ``csr``).
        """
        n = self.num_vertices
        iu, iv, w = self.edge_arrays
        W = np.zeros((n, n))
        W[iu, iv] = w
        W[iv, iu] = w
        W.setflags(write=False)
        return W

    @cached_property
    def csr(self) -> AdjacencyCSR:
        """Compressed rows of the weights, built once from ``edge_arrays``."""
        return AdjacencyCSR(self.num_vertices, *self.edge_arrays)

    @cached_property
    def measure_vector(self) -> np.ndarray:
        self._require_valid()
        m = np.array([self._raw_measure[v] for v in self._vertices])
        m.setflags(write=False)
        return m

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        """Deg(x) = (1/m(x)) * sum_y b(x,y) for every vertex."""
        csr = self.csr
        d = csr.row_reduce(np.add, csr.weights) / self.measure_vector
        d.setflags(write=False)
        return d

    @cached_property
    def _heat_semigroup(self):
        """The full heat semigroup, shared by every ``build_heat(self)``."""
        from .heat import _factorize

        return _factorize(self, None, np.arange(self.num_vertices))

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(iu, iv, w) index/weight arrays, one entry per unordered edge."""
        items = sorted(
            ((self._index[u], self._index[v], w) for (u, v), w in self._canonical_weights.items())
        )
        if not items:
            empty = np.zeros(0, dtype=int)
            return empty, empty.copy(), np.zeros(0)
        iu, iv, w = zip(*items)
        return np.array(iu, dtype=int), np.array(iv, dtype=int), np.array(w)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        ptr, nbrs = self.csr.indptr.tolist(), self.csr.indices.tolist()
        return tuple(tuple(nbrs[ptr[i]:ptr[i + 1]]) for i in range(self.num_vertices))

    def weight(self, u: str, v: str) -> float:
        """b(u, v), symmetric; 0.0 for non-adjacent pairs."""
        i, j = self.index(u), self.index(v)
        if i > j:
            u, v = v, u
        return self._canonical_weights.get((u, v), 0.0)

    def measure(self, x: str) -> float:
        self.index(x)
        self._require_valid()
        return self._raw_measure[x]

    def edges(self) -> Iterable[tuple[str, str, float]]:
        """Iterate edges once per unordered pair in index order."""
        iu, iv, w = self.edge_arrays
        for i, j, wij in zip(iu, iv, w):
            yield self._vertices[i], self._vertices[j], float(wij)

    def neighbors(self, x: str) -> tuple[str, ...]:
        return tuple(self._vertices[i] for i in self._adjacency[self.index(x)])


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
        return {v: float(val) for v, val in zip(self._graph.vertices, self._values)}

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
    """Vertices within combinatorial distance r of x (edges are b > 0 pairs)."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    start = g.index(x)
    seen = {start}
    frontier = [start]
    for _ in range(r):
        nxt = []
        for i in frontier:
            for j in g._adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        if not nxt:
            break
        frontier = nxt
    return {g.vertices[i] for i in seen}


def is_connected(g: WeightedGraph) -> bool:
    """True iff every pair of vertices is joined by a positive-weight path."""
    if g.num_vertices == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in g._adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == g.num_vertices


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


def _hypercube_edges(d: int) -> tuple[list[str], list[tuple[str, str]]]:
    names = [format(i, f"0{d}b") for i in range(2**d)]
    edges = []
    for i in range(2**d):
        for bit in range(d):
            j = i ^ (1 << bit)
            if i < j:
                edges.append((names[i], names[j]))
    return names, edges


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

    if family == "path":
        names = [f"v{i}" for i in range(size)]
        pairs = [(names[i], names[i + 1]) for i in range(size - 1)]
        weights = {p: 1.0 for p in pairs}
    elif family == "cycle":
        if size < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        names = [f"v{i}" for i in range(size)]
        weights = {(names[i], names[(i + 1) % size]): 1.0 for i in range(size)}
    elif family == "complete":
        names = [f"v{i}" for i in range(size)]
        weights = {
            (names[i], names[j]): 1.0 for i in range(size) for j in range(i + 1, size)
        }
    elif family == "star":
        names = ["c"] + [f"l{i}" for i in range(size)]
        weights = {("c", leaf): 1.0 for leaf in names[1:]}
    elif family == "hypercube":
        names, pairs = _hypercube_edges(size)
        weights = {p: 1.0 for p in pairs}
    elif family == "weighted_tree":
        rng = np.random.default_rng(0 if seed is None else seed)
        names = [f"v{i}" for i in range(size)]
        weights = {}
        for i in range(1, size):
            parent = int(rng.integers(0, i))
            weights[(names[parent], names[i])] = float(rng.uniform(0.5, 2.0))
    else:
        raise ValueError(f"unknown graph family {family!r}")

    if measure_profile == "unit":
        measure = {v: 1.0 for v in names}
    elif measure_profile == "normalizing":
        sums = {v: 0.0 for v in names}
        for (u, v), w in weights.items():
            sums[u] += w
            sums[v] += w
        isolated = [v for v, s in sums.items() if s == 0.0]
        if isolated:
            raise ValueError(
                f"normalizing measure undefined for isolated vertices {isolated!r}"
            )
        measure = sums
    else:
        raise ValueError(f"unknown measure profile {measure_profile!r}")

    return WeightedGraph(names, weights, measure)
