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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GraphFunction, WeightedGraph, _check_graph_function

__all__ = [
    "LocalForms",
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
    flow = csr.row_reduce(np.add, csr.weights[:, None] * F2[csr.indices])
    out = flow / g.measure_vector[:, None] - g.weighted_degrees[:, None] * F2
    return out[:, 0] if squeeze else out


def gamma_array(g: WeightedGraph, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Closed-form Gamma, summed over each row of ``g.csr`` from per-edge products.

    Each term b(x,y) (f(y)-f(x)) (h(y)-h(x)) is formed from the differences
    themselves, which avoids the cancellation of the expanded form.
    """
    csr = g.csr
    squeeze = F.ndim == 1
    F2 = F[:, None] if squeeze else F
    H2 = H[:, None] if squeeze else H
    dF, dH = F2[csr.indices] - F2[csr.rows], H2[csr.indices] - H2[csr.rows]
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


def local_forms(g: WeightedGraph, x: str) -> LocalForms:
    """Assemble the local forms at x on the induced 2-ball.

    Gamma_2(f)(x) only reads f on the 2-ball, and only the 1-ball rows of
    the Laplacian, which the induced subgraph keeps in full.  On the 2-ball
    (center at local index 0) let L = (W - diag(deg))/m be the Laplacian and
    G_y the matrix of Gamma(.,.)(y), so that f' G_y h = Gamma(f,h)(y).  Gamma
    is bilinear, so the defining recursion acts on matrices:

        2 Gamma_2(x) = sum_y L[x,y] G_y - G_x L - L' G_x,

    and with a_y = L[x,y] / (2 m(y)) the weighted sum has the closed form

        sum_y L[x,y] G_y = diag(W a + a deg) - W diag(a) - diag(a) W.

    Pinning f(x) = 0 drops the center row and column.

    a and G_x vanish off the 1-ball, so the block of W between 2-sphere
    vertices never counts: W is gathered from the rows of ``g.csr`` at the
    1-sphere only (they hold the center's row too, as the column of x), and
    that block stays 0.  deg is then exact on the 1-ball, the only rows
    where it is not multiplied by 0.
    """
    ix = g.index(x)
    csr = g.csr
    lo, hi = int(csr.indptr[ix]), int(csr.indptr[ix + 1])
    k = hi - lo
    one_sphere = csr.indices[lo:hi]
    steps, counts = csr.second_steps(lo, hi)
    ends = csr.indices[steps]
    # local index of every 2-ball vertex: read only at 2-ball vertices, all
    # written first, so the N-length array is never initialized in full
    local = np.empty(g.num_vertices, dtype=np.intp)
    local[ends] = -1
    local[ix] = 0
    local[one_sphere] = range(1, k + 1)
    two_sphere = sorted(set(ends[local[ends] < 0].tolist()))
    local[two_sphere] = range(k + 1, k + 1 + len(two_sphere))
    support_idx = one_sphere.tolist() + two_sphere
    vertices = g.vertices
    names = tuple([vertices[i] for i in support_idx])
    b2 = [ix] + support_idx
    W = np.zeros((len(b2), len(b2)))
    rows, cols = np.repeat(np.arange(1, k + 1), counts), local[ends]
    W[rows, cols] = W[cols, rows] = csr.weights[steps]
    m = g.measure_vector[b2]
    deg = W.sum(axis=1)
    L = (W - np.diag(deg)) / m[:, None]

    # G_x is supported on the 1-ball: row and column 0 plus a diagonal
    wx = W[0]
    Gx = np.diag(wx)
    Gx[0, 0] = deg[0]
    Gx[0, :] -= wx
    Gx[:, 0] -= wx
    Gx /= 2.0 * m[0]

    a = L[0] / (2.0 * m)
    GxL = Gx @ L
    A2 = np.diag(W @ a + a * deg) - W * a - a[:, None] * W - GxL - GxL.T

    return LocalForms(
        center=x,
        support=names,
        gamma2_matrix=_frozen(0.5 * A2[1:, 1:]),
        gamma_matrix=_frozen(Gx[1:, 1:]),
        laplace_vector=_frozen(L[0, 1:]),
        num_neighbors=k,
    )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
