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

``cd_check`` alone judges a bound, with a tolerance relative to a scale
sigma(K) of M(K), so its verdicts do not depend on the units of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphFunction, WeightedGraph
from .operators import LocalForms, local_forms

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


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-vertex curvatures and their minimum, the graph's global bound."""

    per_vertex: tuple[CurvatureResult, ...]
    global_curvature: float


def _check_dimension(n: float) -> float:
    n = float(n)
    if not (n > 0):
        raise ValueError(f"dimension must be positive (or infinity), got {n}")
    return n


def cd_matrix(forms: LocalForms, K: float, n: float) -> np.ndarray:
    """M(K) over the punctured 2-ball of the form's center."""
    M = forms.gamma2_matrix - K * forms.gamma_matrix
    if not math.isinf(n):
        d = forms.laplace_vector
        M = M - np.outer(d, d) / n
    return M


def _cd_scale(forms: LocalForms, K: float, n: float) -> float:
    """sigma(K) = max |diag gamma2_matrix| + |K| max diag gamma_matrix + |d|^2 / n.

    It scales by c^2 under (b, K) -> (c b, c K), does not change under
    (b, m) -> (c b, c m) or a relabelling, and is 0 at an isolated vertex.
    """
    d = forms.laplace_vector
    sigma = float(np.abs(np.diag(forms.gamma2_matrix)).max(initial=0.0))
    sigma += abs(K) * float(np.diag(forms.gamma_matrix).max(initial=0.0))
    return sigma if math.isinf(n) else sigma + float(d @ d) / n


def cd_check(
    g: WeightedGraph,
    K: float,
    n: float,
    x: str,
    forms: LocalForms | None = None,
) -> tuple[bool, float]:
    """Decide CD(K,n) at x; returns (holds, smallest eigenvalue of M(K)).

    CD(K,n) holds when lambda_min(M(K)) >= -EIG_TOL sigma(K) (see
    ``_cd_scale``), so the verdict is the same under (b, K) -> (c b, c K)
    and (b, m) -> (c b, c m).  The eigenvalue is +inf for isolated vertices,
    where the condition is vacuous.
    """
    n = _check_dimension(n)
    if not (-math.inf < K < math.inf):
        raise ValueError(f"K must be finite, got {K}")
    if forms is None:
        forms = local_forms(g, x)
    if forms.size == 0:
        return True, math.inf
    lam = float(np.linalg.eigvalsh(cd_matrix(forms, K, n))[0])
    return lam >= -EIG_TOL * _cd_scale(forms, K, n), lam


def curvature_solve(g: WeightedGraph, x: str, n: float) -> CurvatureResult:
    """sup{K : CD(K,n) holds at x} by the Schur-complement closed form.

    ``converged`` is cd_check's verdict at the returned K.  With y the unit
    closed-form eigenvector, u = B^{-1/2} y and z = (u, -R^{-1} Q' u),
    z' M(K') z = K - K', so lambda_min(M(K')) <= (K - K') / |z|^2; as also
    sigma(K') <= sigma(K) + (K' - K) max B, cd_check refutes every K' beyond
    K + ``bracket_width`` = e sigma(K) / (1 - e max B), e = EIG_TOL |z|^2 (up
    to rounding).  Isolated vertices return +inf with converged = True and
    width 0: the condition is vacuous there, so every K is admissible.
    """
    n = _check_dimension(n)
    forms = local_forms(g, x)
    if forms.size == 0:
        return CurvatureResult(x, n, math.inf, True, 0.0)

    k = forms.num_neighbors  # the support lists S1 first; d vanishes on S2
    M = cd_matrix(forms, 0.0, n)
    r = np.diag(M)[k:]
    S = M[:k, :k] - (M[:k, k:] / r) @ M[k:, :k]
    B = np.diag(forms.gamma_matrix)[:k]
    b = 1.0 / np.sqrt(B)
    eigs, vecs = np.linalg.eigh(b[:, None] * S * b)
    K = float(eigs[0])

    u = b * vecs[:, 0]
    e = EIG_TOL * (float(u @ u) + float(np.sum((M[k:, :k] @ u / r) ** 2)))
    growth = e * float(B.max())
    width = e * _cd_scale(forms, K, n) / (1.0 - growth) if growth < 1.0 else math.inf
    return CurvatureResult(
        vertex=x,
        dimension=n,
        curvature=K,
        converged=cd_check(g, K, n, x, forms)[0],
        bracket_width=width,
    )


def curvature_profile(g: WeightedGraph, n: float) -> CurvatureProfile:
    """Solve every vertex and take the minimum (CD is a for-all-x condition)."""
    n = _check_dimension(n)
    results = [curvature_solve(g, v, n) for v in g.vertices]
    global_curv = min((r.curvature for r in results), default=math.inf)
    return CurvatureProfile(per_vertex=tuple(results), global_curvature=global_curv)


def cd_extremal_function(g: WeightedGraph, x: str, n: float, K: float) -> GraphFunction:
    """Eigenvector of M(K) at its smallest eigenvalue, extended by 0.

    At K equal to the solved curvature this is the tightness witness: the
    function on which the CD inequality at x is (numerically) an equality.
    Returns the zero function for isolated vertices.
    """
    n = _check_dimension(n)
    forms = local_forms(g, x)
    arr = np.zeros(g.num_vertices)
    if forms.size > 0:
        _, vecs = np.linalg.eigh(cd_matrix(forms, K, n))
        v = vecs[:, 0]
        for name, coeff in zip(forms.support, v):
            arr[g.index(name)] = coeff
    return GraphFunction(g, arr)
