"""Graph Laplacian and the iterated carre du champ operators.

The Laplacian is (Delta f)(x) = (1/m(x)) * sum_y b(x,y) (f(y) - f(x)).
The Gamma hierarchy starts from the pointwise product Gamma_0(f,h) = f*h and
iterates

    2 Gamma_{k+1}(f,h) = Delta Gamma_k(f,h) - Gamma_k(f, Delta h)
                                            - Gamma_k(Delta f, h).

Gamma_1 (written Gamma) measures the squared gradient and has the closed form
(1/2m(x)) * sum_y b(x,y) (f(y)-f(x)) (h(y)-h(x)); Gamma_2 carries the
Bochner-type curvature information used by the CD solver.

All public operations act on GraphFunction values.  The array-level helpers
accept (N,) vectors or (N,B) batches and are shared by the heat and estimate
modules, which need to evaluate the operators on many functions at once.

The local forms are assembled on the normalized graph ``g._scale``, whose max
Deg lies in [1, 4), so the entries of Gamma_2, at most 4 max Deg^2, stay below
64 in any units.  Gamma_k moves by 4^(kc) under that change of units, exactly,
and the consumers map K in and their results out by the powers of four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .graphs import GraphFunction, WeightedGraph, _check_graph_function

__all__ = [
    "LocalForms",
    "PreconditionError",
    "laplacian",
    "gamma_k",
    "gamma_closed_form",
    "local_forms",
]


# -- array kernels (shared internally) -----------------------------------


def laplacian_array(g: WeightedGraph, F: np.ndarray) -> np.ndarray:
    """Apply the Laplacian to one function (N,) or a batch (N,B), row by row of ``g.csr``."""
    csr = g.csr
    squeeze = F.ndim == 1
    F2 = F[:, None] if squeeze else F
    # take, not F2[csr.indices]: numpy's fancy indexing is about ten times
    # slower on a narrow batch, and the gathered values are the same
    flow = csr.row_reduce(np.add, csr.weights[:, None] * F2.take(csr.indices, axis=0))
    out = flow / g.measure_vector[:, None] - g.weighted_degrees[:, None] * F2
    return out[:, 0] if squeeze else out


def gamma_array(g: WeightedGraph, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Closed-form Gamma, summed over each row of ``g.csr`` from per-edge products.

    Each term b(x,y) (f(y)-f(x)) (h(y)-h(x)) is formed from the differences
    themselves, which avoids the cancellation of the expanded form.  When H
    is F, Gamma(f) = Gamma(f, f), the differences are formed once.
    """
    csr = g.csr
    squeeze = F.ndim == 1
    F2 = F[:, None] if squeeze else F
    H2 = H[:, None] if squeeze else H
    dF = F2.take(csr.indices, axis=0) - F2.take(csr.rows, axis=0)
    dH = dF if H is F else H2.take(csr.indices, axis=0) - H2.take(csr.rows, axis=0)
    contrib = csr.weights[:, None] * dF * dH
    out = csr.row_reduce(np.add, contrib) / (2.0 * g.measure_vector[:, None])
    return out[:, 0] if squeeze else out


def gamma_recursive_array(g: WeightedGraph, k: int, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Gamma_k through the defining recursion, for k in {0, 1, 2}."""
    if k == 0:
        return F * H
    prev = gamma_recursive_array(g, k - 1, F, H)
    a = laplacian_array(g, prev)
    b = gamma_recursive_array(g, k - 1, F, laplacian_array(g, H))
    c = gamma_recursive_array(g, k - 1, laplacian_array(g, F), H)
    return 0.5 * (a - b - c)


# -- public pointwise operators ------------------------------------------


def laplacian(g: WeightedGraph, f: GraphFunction) -> GraphFunction:
    """Delta f as a new GraphFunction on the same graph."""
    _check_graph_function(g, f)
    return GraphFunction(g, laplacian_array(g, f.array))


def gamma_k(g: WeightedGraph, k: int, f: GraphFunction, h: GraphFunction | None = None) -> GraphFunction:
    """Gamma_k(f, h) pointwise via the recursion; h defaults to f.

    Only k = 0, 1, 2 are supported; higher iterates are not used anywhere in
    the curvature theory implemented here.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"k must be 0, 1 or 2, got {k}")
    _check_graph_function(g, f)
    if h is None:
        h = f
    else:
        _check_graph_function(g, h, "h")
    return GraphFunction(g, gamma_recursive_array(g, k, f.array, h.array))


def gamma_closed_form(g: WeightedGraph, f: GraphFunction, h: GraphFunction | None = None) -> GraphFunction:
    """Gamma(f, h) by the explicit edge-difference formula.

    Serves as the independent computation path against the recursion; both
    must agree to floating rounding.
    """
    _check_graph_function(g, f)
    if h is None:
        h = f
    else:
        _check_graph_function(g, h, "h")
    return GraphFunction(g, gamma_array(g, f.array, h.array))


# -- local quadratic forms -------------------------------------------------


class PreconditionError(ValueError):
    """A computed precondition (range of the local forms, curvature bound, mass bound) failed."""


def _scaled_in(x: float, exponent: int, ratio: str) -> float:
    """x 2^exponent, exactly, for the normalized graph; refused, naming the unit-free ``ratio``, past the doubles."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        raise PreconditionError(f"{ratio} is too large for double precision") from None


def _scaled_out(x, exponent: int, out=None):
    """x 2^exponent, a result of the normalized graph in the caller's units: exact, or +-inf past the doubles."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, exponent, out=out)


def _forms_graph(g: WeightedGraph) -> WeightedGraph:
    """g's normalized graph, on which the local forms are assembled, or a PreconditionError.

    The solver scales by 1 / sqrt(B), B = b(x,y) / (2 m(x)) the diagonal of
    Gamma, and max Deg lies in [1, 4), so each b / (m(x) max Deg) must leave
    B a normal double.  On one edge with m from 1e-10 or 1e-30 to 1e300 it did
    not (1e-310, 1e-330): B lost its bits or was 0, and the curvature there was
    inf or nan.  The ratio is the same in any units.
    """
    unit = g._scale[0]
    csr = unit.csr
    low = float(np.min(csr.weights / unit.measure_vector.take(csr.rows), initial=math.inf))
    if low < math.ldexp(1.0, -1021):  # the ratio itself may underflow, its logarithm does not
        ratio = np.min(np.log10(csr.weights) - np.log10(unit.measure_vector.take(csr.rows)))
        raise PreconditionError(f"b / (m max Deg) is about 1e{ratio - math.log10(unit.weighted_degrees.max()):.0f}"
                                f": the diagonal of Gamma, b / 2m, would leave the normal doubles")
    return unit


@dataclass(frozen=True)
class LocalForms:
    """Quadratic-form realization of Gamma_2, Gamma and Delta at one vertex.

    ``support`` lists the punctured 2-ball around ``center`` (neighbors
    first, then distance-2 vertices, each in index order).  For a function f
    with f(center) = 0 written as a coefficient vector over the support,

        f' gamma2_matrix f  = Gamma_2(f)(center)
        f' gamma_matrix  f  = Gamma(f)(center)
        laplace_vector . f  = (Delta f)(center)

    Pinning f(center) = 0 is lossless because all three operators are
    invariant under adding constants, and it removes the trivial null
    direction from the curvature eigenproblem.  ``gamma_matrix`` and
    ``laplace_vector`` vanish outside the first ``num_neighbors``
    coordinates, the 1-sphere.
    """

    center: str
    support: tuple[str, ...]
    gamma2_matrix: np.ndarray
    gamma_matrix: np.ndarray
    laplace_vector: np.ndarray
    num_neighbors: int

    @property
    def size(self) -> int:
        return len(self.support)


class LocalFormStack(NamedTuple):
    """The local forms of ``centers`` (vertex indices), whose 1-spheres have one size.

    ``gamma2_matrix`` = [[P, Q], [Q', diag(R)]] is kept in its blocks: ``p``
    (V, |S1|, |S1|), ``q`` (V, |S1|, |S2|) and ``r`` (V, |S2|), each 2-sphere
    padded out to the widest in the stack.  ``gamma`` and ``laplace`` (V, |S1|)
    hold the S1 entries of ``gamma_matrix``'s diagonal and of the
    ``laplace_vector``, which vanish elsewhere.  A padding coordinate is
    decoupled: its column of ``q`` is 0 and its entry of ``r`` is the member's
    own max |diag gamma2_matrix|, so the Schur complement of the 2-sphere, the
    scale sigma(K) and whether M(K) + EIG_TOL sigma(K) I factorizes are those
    of the member alone.  An empty 2-sphere is not padded: that diagonal can
    vanish (at the center of a star with five unit leaves).
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    gamma: np.ndarray
    laplace: np.ndarray
    centers: np.ndarray | None = None


def gamma2_matrices(stack: LocalFormStack) -> np.ndarray:
    """The (V, s, s) ``gamma2_matrix`` of every member, assembled from its blocks."""
    V, k = stack.gamma.shape
    s = k + stack.r.shape[1]
    G = np.zeros((V, s, s))
    G[:, :k, :k] = stack.p
    G[:, :k, k:] = stack.q
    G[:, k:, :k] = stack.q.transpose(0, 2, 1)
    G[:, np.arange(k, s), np.arange(k, s)] = stack.r
    return G


STACK_ENTRIES = 2**14  # matrix entries of one stack, and the cost of one run of vertices


def _two_balls(g: WeightedGraph, centers: np.ndarray):
    """The punctured 2-balls of ``centers``, from one sort of their two-step walks.

    Each center x, 1-sphere vertex y and walk x -> y -> z is keyed
    (position of x) * N + (x, y or z) above its place in that list, so the
    sort puts x or y first in each group; a walk heads a 2-sphere vertex.
    Returns, per walk x -> y -> z, the position of y among the centers'
    1-spheres laid end to end, the column of z (S1, then S2, each in index
    order; -1 for z = x) and b(y, z); the 2-sphere vertices; and where each
    center's walks, 1-sphere and 2-sphere start, (3, V + 1).
    """
    csr, N, V = g.csr, g.num_vertices, len(centers)
    ones, of_one = csr.entries(centers)
    ys = csr.indices[ones]
    fan = csr.indptr[ys + 1] - csr.indptr[ys]  # the walks through each first step
    second = csr.entries(ys)[0]
    m = V + len(ones)
    bits = (m + len(second)).bit_length()
    keys = np.empty(m + len(second), dtype=np.int32 if (V * N) << bits < 2**31 else np.int64)
    keys[:V] = np.arange(V) * N + centers
    keys[V:m] = of_one * N + ys
    np.add(np.repeat(of_one * N, fan), csr.indices[second], out=keys[m:])
    weight = csr.weights[second]
    del second
    keys <<= bits
    keys |= np.arange(len(keys))
    keys.sort()
    pos = keys & ((1 << bits) - 1)
    keys >>= bits
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    at, key = pos[heads], keys[heads]
    x, far = key // N, at >= m
    k, s2 = csr.indptr[centers + 1] - csr.indptr[centers], np.bincount(x[far], minlength=V)
    offsets = np.zeros((3, V + 1), dtype=np.intp)
    np.cumsum([k, s2], axis=1, out=offsets[1:, 1:])
    offsets[0] = np.append(0, np.cumsum(fan))[offsets[1]]
    rank = np.cumsum(far) - 1 - offsets[2, x]
    col = np.where(far, k[x] + rank, np.where(at >= V, at - V - offsets[1, x], -1))
    keys[pos] = np.repeat(col, np.diff(np.append(heads, len(keys))))  # the spent keys take the columns
    del pos
    return np.repeat(np.arange(len(ones)), fan), keys[m:], weight, key[far] % N, offsets


def local_form_stack(g: WeightedGraph, centers: np.ndarray, balls=None) -> tuple[LocalFormStack, np.ndarray]:
    """The local forms of ``centers``, whose 1-spheres have one size, and their supports.

    ``balls`` holds ``_two_balls``' rows, columns, weights and 2-sphere
    vertices, and |S2| per center.  With W1 (V, |S1|, s) the weights from S1
    to the punctured 2-ball, B_y = b(x,y) / (2 m(x)) the S1 diagonal of
    ``gamma_matrix`` and a_y = B_y / m(y), the recursion
    2 Gamma_2 = Delta Gamma - 2 Gamma(., Delta .) gives ``laplace_vector`` =
    2 B on S1 and the blocks of ``gamma2_matrix``,

        P = diag(B (3 Deg_y - Deg_x) + W1' a) / 2 - (a_i + a_j) W1 + 2 B B',
        Q = -a_i W1,  R = (W1' a) / 2 on S2  (Deg the weighted degree).

    A 2-sphere narrower than the widest is padded as ``LocalFormStack`` says,
    and its support with -1.  The forms are those of the normalized graph
    ``g._scale`` (``balls`` come from it): in g's units Gamma_2 is 4^(2c)
    times them, and Gamma and Delta are 4^c times them.  Without ``balls``
    a graph that ``_forms_graph`` refuses raises PreconditionError.
    """
    if balls is None:
        g = _forms_graph(g)
        balls = _two_balls(g, centers)
        balls = (*balls[:4], np.diff(balls[4][2]))
    csr, V = g.csr, len(centers)
    row, col, weight, far, s2 = balls
    k = int(csr.indptr[centers[0] + 1] - csr.indptr[centers[0]])
    s = k + int(s2.max())
    entries = csr.indptr[centers, None] + np.arange(k)
    y = csr.indices[entries]
    B = csr.weights[entries] / (2.0 * g.measure_vector[centers, None])
    a = B / g.measure_vector[y]
    W1 = np.bincount(row * (s + 1) + col % (s + 1), weight, minlength=V * k * (s + 1))
    W1 = W1.reshape(V, k, s + 1)[:, :, :s]
    aW1 = 0.5 * (a[:, None, :] @ W1)[:, 0]
    p = (a[:, :, None] + a[:, None, :]) * -W1[:, :, :k] + 2.0 * B[:, :, None] * B[:, None, :]
    p[:, np.arange(k), np.arange(k)] += aW1[:, :k] + 0.5 * B * (
        3.0 * g.weighted_degrees[y] - g.weighted_degrees[centers, None])
    q, r = a[:, :, None] * -W1[:, :, k:], aW1[:, k:]
    pad = np.arange(s - k) >= s2[:, None]
    diag = np.concatenate((np.diagonal(p, axis1=1, axis2=2), r), axis=1)
    r = np.where(pad, np.abs(diag).max(axis=1, keepdims=True, initial=0.0), r)
    support = np.full((V, s), -1, dtype=np.intp)
    support[:, :k] = y
    support[:, k:][~pad] = far
    return LocalFormStack(p, q, r, B, 2.0 * B, centers), support


def _first_equal(values: np.ndarray) -> np.ndarray:
    """For each value, the index of the first value equal to it."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    head = np.where(np.concatenate(([True], ranked[1:] != ranked[:-1])), np.arange(len(values)), 0)
    first = np.empty_like(order)
    first[order] = order[np.maximum.accumulate(head)]
    return first


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # spreads the vertex indices over the 64 bits


def _entry_words(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A ``uint64`` hash of each row entry (y, b), by the splitmix64 finalizer."""
    h = b.view(np.uint64) ^ y.astype(np.uint64) * _GOLDEN
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def twin_representatives(g: WeightedGraph) -> np.ndarray:
    """The representative of each vertex's class of twins, the lowest index in the class, (N,).

    x != y are twins when m(x) = m(y) and b(x, z) = b(y, z) for every z
    outside {x, y}.  Swapping them is an automorphism, so their curvatures are
    equal.  False twins (not adjacent) have equal rows of ``g.csr``; true twins
    (adjacent) have equal rows less their mutual entry.  Both relations are
    transitive, and a vertex with a twin of one kind has none of the other, so
    the classes partition the vertices.  A vertex without twins is its own
    representative.

    Each entry (y, b(x, y)) of row x is hashed to a ``uint64`` word, and the
    words of a row add up, modulo 2^64 and so in any order, to its
    fingerprint fp(x).  Equal fingerprints with equal measures propose false
    twins; fp(x) - h(y, b) = fp(y) - h(x, b) on an edge (x, y) of weight b
    proposes true twins.  Each vertex is compared with the lowest vertex
    proposed for it, and is its twin only when their measures and their rows
    (indices and weights, each less the other) are equal as ``uint64``.  A
    fingerprint collision can only leave a twin its own representative.
    """
    csr, N, k, m = g.csr, g.num_vertices, np.diff(g.csr.indptr), g.measure_vector
    fp = np.diff(np.append(np.uint64(0), np.cumsum(_entry_words(csr.indices, csr.weights)))[csr.indptr])
    lowest = _first_equal(fp + _entry_words(np.zeros(N, dtype=np.intp), m))  # the measure as one more word
    iu, iv, b = g.edge_arrays
    e = (k[iu] == k[iv]) & (m[iu] == m[iv])
    iu, iv, b = iu[e], iv[e], b[e]
    true = fp[iu] - _entry_words(iv, b) == fp[iv] - _entry_words(iu, b)
    np.minimum.at(lowest, iv[true], iu[true])
    x = np.flatnonzero(lowest != np.arange(N))
    c = lowest[x]
    same = (k[x] == k[c]) & (m.view(np.uint64)[x] == m.view(np.uint64)[c])
    x, c, y, w = x[same], c[same], csr.indices, csr.weights.view(np.uint64)
    ex, pair = csr.entries(x)
    ec = csr.entries(c)[0]
    keep = y[ex] != c[pair]  # row x less its entry at c, and row c less its entry at x
    ex, ec, pair = ex[keep], ec[y[ec] != x[pair]], pair[keep]
    twin = np.bincount(pair[(y[ex] != y[ec]) | (w[ex] != w[ec])], minlength=len(x)) == 0
    rep = np.arange(N)
    rep[x[twin]] = c[twin]
    return rep


def local_form_stacks(g: WeightedGraph, rep: np.ndarray) -> Iterator[LocalFormStack]:
    """The local forms of the representatives ``rep`` names, in stacks of one 1-sphere size.

    ``rep`` maps each vertex to the representative of its class of twins
    (``twin_representatives``).  Twins have equal curvatures, so only the
    representatives, the vertices x with rep[x] = x, are walked, assembled and
    solved; the consumer copies each representative's result to its twins.
    Twins are the only repeats: each representative is a member of exactly one
    stack, and is solved there, whether or not another member has an equal form.

    The representatives are ordered once by (|S1|, two-step walks), ties in
    index order.  Runs of that order, of at most ``STACK_ENTRIES`` in
    max(walks, (|S1| + 1)^2), are walked at once, so a run's walks fit the
    budget.  Each |S1| of a run, apart from its empty 2-spheres, goes in stacks
    of as many members as keep the padded entries, members x (|S1| + 1)(s + 1)
    with s the widest punctured 2-ball, within ``STACK_ENTRIES`` (at least
    one), so memory stays linear in N + E.  The walks bound |S2| from above, so
    the order tends to put 2-spheres of like sizes in one stack, which keeps
    the padding tight.  The stacks hold the forms of the normalized graph, as
    in ``local_form_stack``, and a graph that ``_forms_graph`` refuses raises
    PreconditionError before the first.
    """
    g = _forms_graph(g)
    csr = g.csr
    k = np.diff(csr.indptr)
    walks = csr.row_reduce(np.add, k[csr.indices])
    reps = np.flatnonzero(rep == np.arange(len(rep)))
    order = reps[np.lexsort((walks[reps], k[reps]))]
    cost = np.append(0, np.cumsum(np.maximum(walks, (k + 1) ** 2)[order]))
    first = 0
    while first < len(order):
        last = max(first + 1, int(np.searchsorted(cost, cost[first] + STACK_ENTRIES, side="right")) - 1)
        run, first = order[first:last], last
        row, col, weight, far, offsets = _two_balls(g, run)
        k1, s2 = np.diff(offsets[1]), np.diff(offsets[2])
        entries = (k1 + 1) * (k1 + s2 + 1)  # bounds W1's, p's, q's and r's
        at = 0
        for end in np.append(np.flatnonzero(np.diff(k1) | np.diff(s2 > 0)) + 1, len(run)):
            while at < end:
                padded = np.arange(1, end - at + 1) * np.maximum.accumulate(entries[at:end])  # of at:at + 1, ...
                hi = at + max(1, int(np.searchsorted(padded, STACK_ENTRIES, side="right")))
                (w0, w1), (r0, _), (f0, f1) = offsets[:, [at, hi]]
                yield local_form_stack(g, run[at:hi], (
                    row[w0:w1] - r0, col[w0:w1], weight[w0:w1], far[f0:f1], s2[at:hi]))[0]
                at = hi


def local_forms(g: WeightedGraph, x: str) -> LocalForms:
    """The local forms at x: ``local_form_stack`` on the stack of one, in g's units, where they must be doubles."""
    stack, support = local_form_stack(g, np.array([g.index(x)]))
    k, pad, c = stack.gamma.shape[1], (0, support.shape[1] - stack.gamma.shape[1]), g._scale[2]
    G = gamma2_matrices(stack)[0]
    forms = [_scaled_out(a, e) for a, e in (
        (G, 4 * c), (np.diag(np.pad(stack.gamma[0], pad)), 2 * c), (np.pad(stack.laplace[0], pad), 2 * c))]
    if not np.array_equal(np.ldexp(forms[0], -4 * c), G):
        raise PreconditionError(f"the local forms at {x!r} are not doubles in the graph's units, where "
                                f"Gamma_2 scales as max Deg^2, with max Deg = {float(g.weighted_degrees.max()):g}")
    return LocalForms(x, tuple([g.vertices[i] for i in support[0]]), *map(_frozen, forms), k)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
