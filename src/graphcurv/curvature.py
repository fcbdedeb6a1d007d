"""The curvature-dimension condition CD(K,n) and the exact curvature solver.

CD(K,n) asks that Gamma_2(f)(x) >= (1/n) (Delta f)^2(x) + K Gamma(f)(x) for
every function f.  Gamma_2, Gamma and Delta at x only see the 2-ball around x
and ignore constants, so the condition at x is positive semidefiniteness of

    M(K) = gamma2_matrix - (1/n) laplace_vector' laplace_vector - K gamma_matrix

on the punctured 2-ball (no 1/n term at n = infinity).  Order the support as
the 1-sphere S1, then the 2-sphere S2: gamma2_matrix = [[P, Q], [Q', R]],
gamma_matrix = diag(B, 0) and laplace_vector = (d, 0).  With f(x) = 0,
Gamma(f)(x) sums b(x,y) f(y)^2 / (2 m(x)) over the neighbors y, so B is
diagonal and positive.  For f supported on S2, Gamma(f)(x) and
Gamma(f, Delta f)(x) vanish (each term carries f(y) - f(x) = 0), so
Gamma_2(f)(x) = (1/2) Delta Gamma(f)(x) = sum_z f(z)^2 sum_y b(x,y) b(y,z) /
(4 m(x) m(y)): R is diagonal, and positive as every z in S2 has a neighbor in
S1.  By the Schur complement of R, M(K) >= 0 exactly when

    K <= lambda_min(B^{-1/2} (P - Q R^{-1} Q' - d d'/n) B^{-1/2}),

one eigensolve of size |S1| (Cushing, Liu and Peyerimhoff, "Bakry-Emery
curvature functions on graphs").
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import GraphFunction, WeightedGraph
from .operators import LocalForms, local_forms

__all__ = [
    "EIG_TOL",
    "CURVATURE_TOL",
    "CURVATURE_CAP",
    "CurvatureResult",
    "CurvatureProfile",
    "cd_check",
    "curvature_solve",
    "curvature_profile",
    "cd_extremal_function",
]

EIG_TOL = 1e-10  # absolute tolerance on the smallest eigenvalue of M(K)
CURVATURE_TOL = 1e-9  # relative first step of the refuting-K search
CURVATURE_CAP = 1e6  # curvature reported at isolated vertices (vacuous CD)


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


def _smallest_eigenvalue(forms: LocalForms, K: float, n: float) -> float:
    if forms.size == 0:
        return math.inf
    return float(np.linalg.eigvalsh(cd_matrix(forms, K, n))[0])


def cd_check(
    g: WeightedGraph,
    K: float,
    n: float,
    x: str,
    forms: LocalForms | None = None,
) -> tuple[bool, float]:
    """Decide CD(K,n) at x; returns (holds, smallest eigenvalue of M(K)).

    The eigenvalue is +inf for isolated vertices, where the condition is
    vacuous.
    """
    n = _check_dimension(n)
    if forms is None:
        forms = local_forms(g, x)
    lam = _smallest_eigenvalue(forms, K, n)
    return lam >= -EIG_TOL, lam


def curvature_solve(g: WeightedGraph, x: str, n: float) -> CurvatureResult:
    """sup{K : CD(K,n) holds at x} by the Schur-complement closed form.

    The result is certified: K steps down from the closed form, by a margin
    doubling from machine precision times the spectral scale, until cd_check
    accepts it.  ``bracket_width`` is half the gap to a K that cd_check
    refutes, found by doubling a step from CURVATURE_TOL * max(1, |K|).
    Isolated vertices return CURVATURE_CAP with converged = True (the
    condition is vacuous there).
    """
    n = _check_dimension(n)
    forms = local_forms(g, x)
    if forms.size == 0:
        return CurvatureResult(x, n, CURVATURE_CAP, True, 0.0)

    k = len(g.neighbors(x))  # the support lists S1 first
    A = forms.gamma2_matrix
    d = forms.laplace_vector[:k]
    S = A[:k, :k] - (A[:k, k:] / np.diag(A)[k:]) @ A[k:, :k]
    if not math.isinf(n):
        S = S - np.outer(d, d) / n
    b = 1.0 / np.sqrt(np.diag(forms.gamma_matrix)[:k])
    eigs = np.linalg.eigvalsh(b[:, None] * S * b)
    K = float(eigs[0])

    step = np.finfo(float).eps * max(float(np.abs(eigs).max()), float(d.sum()))
    while not cd_check(g, K, n, x, forms)[0]:
        K -= step
        step *= 2.0
    step = CURVATURE_TOL * max(1.0, abs(K))
    while cd_check(g, K + step, n, x, forms)[0]:
        step *= 2.0
    return CurvatureResult(
        vertex=x,
        dimension=n,
        curvature=K,
        converged=True,
        bracket_width=0.5 * step,
    )


def curvature_profile(g: WeightedGraph, n: float, jobs: int = 1) -> CurvatureProfile:
    """Solve every vertex and take the minimum (CD is a for-all-x condition)."""
    n = _check_dimension(n)
    if jobs > 1 and g.num_vertices > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda v: curvature_solve(g, v, n), g.vertices))
    else:
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
