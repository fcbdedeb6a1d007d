"""The curvature-dimension condition CD(K,n) and the exact curvature solver.

CD(K,n) asks that Gamma_2(f)(x) >= (1/n) (Delta f)^2(x) + K Gamma(f)(x) for
every function f.  Gamma_2, Gamma and Delta at x only see the 2-ball around x
and ignore constants, so the condition at x is positive semidefiniteness of

    M(K) = gamma2_matrix - (1/n) laplace_vector' laplace_vector - K gamma_matrix

on the punctured 2-ball (no 1/n term at n = infinity).  Order the support as
the 1-sphere S1, then the 2-sphere S2: gamma2_matrix = [[P, Q], [Q', R]],
gamma_matrix = diag(B, 0) and laplace_vector = (d, 0).  B is diagonal and
positive (Gamma(f)(x) sums b(x,y) f(y)^2 / (2 m(x)) when f(x) = 0), and so is
R (on f supported on S2 only the (1/2) Delta Gamma(f)(x) part of Gamma_2
survives, sum_z f(z)^2 sum_y b(x,y) b(y,z) / (4 m(x) m(y))).  By the Schur
complement of R, M(K) >= 0 exactly when

    K <= lambda_min(B^{-1/2} (P - Q R^{-1} Q' - d d'/n) B^{-1/2}),

one eigensolve of size |S1| (Cushing, Liu and Peyerimhoff, "Bakry-Emery
curvature functions on graphs").

Vertices are solved and judged in stacks of one |S1|, each 2-sphere padded
to the widest in its stack by decoupled coordinates that change neither K nor
a verdict (``operators.LocalFormStack``).  One judge, ``_cd_holds``, decides
every bound by a Cholesky test of M(K) + EIG_TOL sigma(K) I, with sigma(K) a
scale of M(K), so its verdicts do not depend on the units; as R is diagonal,
it factors only the Schur complement on S1.

Twins are solved once per class (``operators.twin_representatives``), and
they are the only results reused.  x != y are twins when m(x) = m(y) and
b(x, z) = b(y, z) for every z outside {x, y}: the vertices of K_n, a star's
leaves, each sphere of an anti-tree.  Swapping twins is an automorphism, so
K_x = K_y.  Only the lowest index of each class, its representative, is
walked, assembled and solved, and its result is copied to its twins; a twin's
own form is a permutation of its representative's, so its own solve differs
from the copy by rounding only.  Every representative is solved, in the one
stack that holds it (``operators.local_form_stacks``), even when another
vertex has an equal form, as on a cycle or a hypercube.  ``_each_vertex``
alone spreads the results to the twins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import GraphFunction, WeightedGraph
from .operators import (LocalForms, LocalFormStack, _scaled_in, _scaled_out, gamma2_matrices, local_form_stack,
                        local_form_stacks, twin_representatives)

__all__ = [
    "EIG_TOL",
    "CurvatureResult",
    "CurvatureProfile",
    "cd_check",
    "curvature_solve",
    "curvature_profile",
    "cd_extremal_function",
]

EIG_TOL = 1e-12  # tolerance on the smallest eigenvalue of M(K), relative to sigma(K)


@dataclass(frozen=True)
class CurvatureResult:
    """Largest K such that CD(K, dimension) holds at one vertex."""

    vertex: str
    dimension: float
    curvature: float
    converged: bool
    bracket_width: float


@dataclass(frozen=True, eq=False)
class CurvatureProfile:
    """Per-vertex curvatures, held as columns, and their minimum, the graph's global bound.

    ``curvature``, ``converged`` and ``bracket_width`` are read-only arrays in
    the order of ``vertices``.  ``per_vertex`` is the same profile as a tuple
    of ``CurvatureResult``, built on its first read and kept.
    """

    vertices: tuple[str, ...]
    dimension: float
    curvature: np.ndarray
    converged: np.ndarray
    bracket_width: np.ndarray
    global_curvature: float

    def __post_init__(self):
        for a in (self.curvature, self.converged, self.bracket_width):
            a.setflags(write=False)

    @cached_property
    def per_vertex(self) -> tuple[CurvatureResult, ...]:
        return tuple(map(CurvatureResult, self.vertices, itertools.repeat(self.dimension),
                         self.curvature.tolist(), self.converged.tolist(), self.bracket_width.tolist()))

    def _columns(self) -> tuple:
        return (self.vertices, self.dimension, self.curvature.tolist(), self.converged.tolist(),
                self.bracket_width.tolist(), self.global_curvature)

    def __eq__(self, other):
        if not isinstance(other, CurvatureProfile):
            return NotImplemented
        return self._columns() == other._columns()


def _check_dimension(n: float) -> float:
    """n as a float; refuses n <= 0 and an n whose 1/n term, below (2 max Deg)^2 / n < 64 / n on the
    normalized graph, overflows (at n = 1e-310 eigh failed to converge)."""
    n = float(n)
    if not (n > 0):
        raise ValueError(f"dimension must be positive (or infinity), got {n}")
    if 64.0 / n == math.inf:
        raise ValueError(f"dimension n = {n:g} is too small: the 1/n term, up to 64 / n, overflows double precision")
    return n


def _check_K(K: float) -> None:
    if not (-math.inf < K < math.inf):
        raise ValueError(f"K must be finite, got {K}")


def _stack_of(forms: LocalForms) -> LocalFormStack:
    k, G = forms.num_neighbors, forms.gamma2_matrix[None]
    return LocalFormStack(G[:, :k, :k], G[:, :k, k:], np.diagonal(G, axis1=1, axis2=2)[:, k:],
                          np.diag(forms.gamma_matrix)[None, :k], forms.laplace_vector[None, :k])


def _cd_matrices(stack: LocalFormStack, K, n: float) -> np.ndarray:
    """M(K) of every member; K is one number or one per member."""
    k, d = stack.gamma.shape[1], stack.laplace
    M = gamma2_matrices(stack)
    M[:, :k, :k] -= d[:, :, None] * d[:, None, :] / n
    M[:, np.arange(k), np.arange(k)] -= np.reshape(K, (-1, 1)) * stack.gamma
    return M


def _cd_scales(stack: LocalFormStack, K, n: float) -> np.ndarray:
    """sigma(K) = max |diag gamma2_matrix| + |K| max diag gamma_matrix + |d|^2 / n per member.

    It scales by c^2 under (b, K) -> (c b, c K), does not change under
    (b, m) -> (c b, c m) or a relabelling, and is 0 at an isolated vertex.
    """
    diag = np.concatenate((np.diagonal(stack.p, axis1=1, axis2=2), stack.r), axis=1)
    sigma = np.abs(diag).max(axis=1, initial=0.0)
    return sigma + np.abs(K) * stack.gamma.max(axis=1, initial=0.0) + (stack.laplace**2).sum(axis=1) / n


def _schur(stack: LocalFormStack, n: float, shift=0.0) -> np.ndarray:
    """P - Q (R + shift I)^{-1} Q' - d d'/n of every member; shift is one number or one per member.

    R is diagonal, so this is the Schur complement of the 2-sphere block in M(0)
    with shift added to that block's diagonal.
    """
    q, d = stack.q, stack.laplace
    S = stack.p - (q / (stack.r + np.reshape(shift, (-1, 1)))[:, None, :]) @ q.transpose(0, 2, 1)
    S -= d[:, :, None] * d[:, None, :] / n
    return S


def _cd_holds(stack: LocalFormStack, K, n: float) -> np.ndarray:
    """The judge: whether lambda_min(M(K)) >= -EIG_TOL sigma(K), member by member.

    That holds exactly when M(K) + tau I, tau = EIG_TOL sigma(K), has a Cholesky
    factor (up to rounding at the boundary).  Its 2-sphere block R + tau I is
    diagonal and positive, so it has one exactly when its Schur complement,
    ``_schur(stack, n, tau)`` - K B + tau I, does: the judge factors |S1| x |S1|
    matrices.  When one member fails, ``np.linalg.cholesky`` refuses the whole
    stack, and each member is decided alone.
    """
    tau = EIG_TOL * _cd_scales(stack, K, n)
    A = _schur(stack, n, tau)
    k = A.shape[1]
    A[:, np.arange(k), np.arange(k)] += tau[:, None] - np.reshape(K, (-1, 1)) * stack.gamma
    if _factorizes(A):
        return np.ones(len(A), dtype=bool)
    return np.array([_factorizes(a[None]) for a in A])


def _factorizes(M: np.ndarray) -> bool:
    try:  # LAPACK's Cholesky can pass a matrix of nan: a non-finite M never factorizes
        return bool(np.isfinite(M).all()) and np.linalg.cholesky(M) is not None
    except np.linalg.LinAlgError:
        return False


def cd_check(
    g: WeightedGraph,
    K: float,
    n: float,
    x: str,
    forms: LocalForms | None = None,
) -> tuple[bool, float]:
    """Decide CD(K,n) at x; returns (holds, smallest eigenvalue of M(K)).

    ``holds`` is the judge's verdict (``_cd_holds``) on the stack of one, so it is
    the same under (b, K) -> (c b, c K) and (b, m) -> (c b, c m).  The eigenvalue,
    from ``eigvalsh``, is for the callers that report it; it is +inf at isolated
    vertices, where the condition holds for every K.  Both come from the normalized
    graph, with K mapped in; ``forms``, when given, are taken in their own units and
    must have the diagonal, positive 2-sphere block of ``gamma2_matrix`` that
    ``local_forms`` gives.
    """
    n = _check_dimension(n)
    _check_K(K)
    stack, c = (local_form_stack(g, np.array([g.index(x)]))[0], g._scale[2]) if forms is None else (_stack_of(forms), 0)
    if stack.gamma.shape[1] == 0:
        return True, math.inf
    K = _scaled_in(K, -2 * c, "|K| / max Deg")
    eig = np.linalg.eigvalsh(_cd_matrices(stack, K, n)[0])[0]
    return bool(_cd_holds(stack, K, n)[0]), float(_scaled_out(eig, 4 * c))


def _solve(stack: LocalFormStack, n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, converged, bracket_width) of every member, by the Schur-complement closed form.

    ``converged`` is the judge's verdict at K.  With y the unit eigenvector,
    u = B^{-1/2} y and z = (u, -R^{-1} Q' u), z' M(K') z = K - K', so
    lambda_min(M(K')) <= (K - K') / |z|^2; as sigma(K') <= sigma(K) + (K' - K) max B,
    the judge refutes every K' beyond K + ``bracket_width`` =
    e sigma(K) / (1 - e max B), e = EIG_TOL |z|^2 (up to rounding).  Isolated
    vertices, where CD holds for every K, get +inf, converged and width 0.
    """
    B = stack.gamma
    V, k = B.shape
    if k == 0:
        return np.full(V, math.inf), np.ones(V, dtype=bool), np.zeros(V)
    S = _schur(stack, n)
    b = 1.0 / np.sqrt(B)
    S *= b[:, :, None] * b[:, None, :]
    eigs, vecs = np.linalg.eigh(S)
    K, u = eigs[:, 0], b * vecs[:, :, 0]
    z = (u[:, None, :] @ stack.q)[:, 0] / stack.r
    e = EIG_TOL * ((u * u).sum(axis=1) + (z * z).sum(axis=1))
    slack = 1.0 - e * B.max(axis=1)
    width = np.divide(e * _cd_scales(stack, K, n), slack, out=np.full(V, math.inf), where=slack > 0)
    return K, _cd_holds(stack, K, n), width


def curvature_solve(g: WeightedGraph, x: str, n: float) -> CurvatureResult:
    """sup{K : CD(K,n) holds at x}: ``_solve`` on the stack of one, mapped out of the normalized graph."""
    n = _check_dimension(n)
    K, converged, width = _solve(local_form_stack(g, np.array([g.index(x)]))[0], n)
    K, width = _scaled_out([K[0], width[0]], 2 * g._scale[2]).tolist()
    return CurvatureResult(x, n, K, bool(converged[0]), width)


def _each_vertex(g: WeightedGraph, judge, out: np.ndarray) -> np.ndarray:
    """``out``, (..., N), with ``judge(stack)``'s column of each vertex's local form.

    ``judge`` runs once per stack of ``operators.local_form_stacks``; each twin
    takes its representative's column.
    """
    rep = twin_representatives(g)
    for stack in local_form_stacks(g, rep):
        out[..., stack.centers] = judge(stack)
    return out[..., rep]


def curvature_profile(g: WeightedGraph, n: float) -> CurvatureProfile:
    """Solve the local form of each class representative, a stack at a time, and take the minimum.

    CD is a for-all-x condition; each twin gets its representative's result.
    K and the bracket widths are mapped out of the normalized graph.
    """
    n = _check_dimension(n)
    K, converged, width = _each_vertex(g, lambda stack: _solve(stack, n), np.empty((3, g.num_vertices)))
    K, width = _scaled_out([K, width], 2 * g._scale[2])
    return CurvatureProfile(g.vertices, n, K, converged.astype(bool), width, float(K.min(initial=math.inf)))


def cd_extremal_function(g: WeightedGraph, x: str, n: float, K: float) -> GraphFunction:
    """Eigenvector of M(K) at its smallest eigenvalue, extended by 0.

    At K equal to the solved curvature this is the tightness witness: the
    function on which the CD inequality at x is (numerically) an equality.
    Returns the zero function for isolated vertices.
    """
    n = _check_dimension(n)
    stack, support = local_form_stack(g, np.array([g.index(x)]))
    K = _scaled_in(K, -2 * g._scale[2], "|K| / max Deg")
    arr = np.zeros(g.num_vertices)
    if support.size > 0:
        arr[support[0]] = np.linalg.eigh(_cd_matrices(stack, K, n)[0])[1][:, 0]
    return GraphFunction(g, arr)
