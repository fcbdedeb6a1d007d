"""Exact heat semigroup P_t = e^{t Delta} via spectral factorization.

-Delta is self-adjoint in the m-weighted inner product, so conjugating by
sqrt(m) produces the plainly symmetric matrix

    S = D_m^{1/2} (-Delta) D_m^{-1/2},
    S[x,y] = -b(x,y) / sqrt(m(x) m(y)),   S[x,x] = Deg(x),

which one full symmetric eigendecomposition turns into an exact propagator
for every t at desk scale.  Restricting S to a vertex subset implements the
Dirichlet (absorbing-boundary) semigroup used to model exhaustions of larger
graphs; there heat mass may genuinely escape, unlike on a full finite graph
where P_t 1 = 1.  The full semigroup is fixed by the graph, so it is
factorized once per graph and shared; Dirichlet restrictions are built on
each request.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .graphs import GraphFunction, WeightedGraph, _check_graph_function
from .operators import gamma_recursive_array

__all__ = ["HeatOperator", "build_heat", "semigroup_gamma_path"]

KERNEL_TOL = 1e-12  # eigenvalues below this multiple of lambda_max are kernel modes


class HeatOperator:
    """Spectral factorization of the (possibly Dirichlet-restricted) generator.

    ``kernel_modes`` masks the eigenvalues at or below KERNEL_TOL *
    lambda_max, relative so that the split does not depend on units.
    Immutable after construction; concurrent ``apply`` calls are safe.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        eigenvalues: np.ndarray,
        eigenbasis: np.ndarray,
        measure_half: np.ndarray,
        dirichlet_domain: frozenset[str] | None,
        domain_indices: np.ndarray,
    ):
        self.graph = graph
        self.eigenvalues = eigenvalues
        self.eigenbasis = eigenbasis
        self.measure_half = measure_half
        self.dirichlet_domain = dirichlet_domain
        self._domain_indices = domain_indices
        self.kernel_modes = eigenvalues <= KERNEL_TOL * eigenvalues.max(initial=0.0)
        for a in (eigenvalues, eigenbasis, measure_half, domain_indices, self.kernel_modes):
            a.setflags(write=False)

    def apply_array(self, t: float, F: np.ndarray) -> np.ndarray:
        """P_t on a full-length vector (N,) or batch (N,B).

        Values outside a Dirichlet domain are ignored on input and zero on
        output.  t = 0 reproduces the input exactly (restricted to the
        domain).
        """
        (out,) = self._apply((t,), F, keep_kernel=True)
        return out

    def apply_fluctuation_array(self, t: float, F: np.ndarray) -> np.ndarray:
        """P_t with the generator's kernel modes (eigenvalue <= KERNEL_TOL * lambda_max) dropped.

        The kernel consists of per-component constants, which neither carry a
        gradient nor survive in mean-zero inputs; dropping them is exact for
        those uses and keeps the surviving modes relatively accurate when
        they have decayed far below the constant part, where the plain apply
        would return amplified rounding instead.  t = 0 returns the input
        unchanged (the projection is a hygiene device for t > 0 only).
        """
        (out,) = self._apply((t,), F, keep_kernel=False)
        return out

    def _apply(
        self, times: Sequence[float], F: np.ndarray, keep_kernel: bool
    ) -> Iterator[np.ndarray]:
        """P_t F for each t of times, in order, as an iterator of arrays shaped like F.

        The times are checked and F is carried into the eigenbasis once, on
        the call; each t then costs only its decay e^{-t lambda} (kernel
        modes set to 0 unless keep_kernel) and the transform back, made as
        the iterator reaches it.  t = 0 returns the input exactly.
        """
        for t in times:
            if not (0 <= t < math.inf):
                raise ValueError(f"the heat semigroup is only defined for finite t >= 0, got {t}")
        squeeze = F.ndim == 1
        F2 = F[:, None] if squeeze else F
        idx = self._domain_indices
        sqrt_m = self.measure_half[:, None]
        coeff = self.eigenbasis.T @ (sqrt_m * F2[idx]) if any(times) else None

        def at(t: float) -> np.ndarray:
            out = np.zeros_like(F2, dtype=float)
            if t == 0:
                out[idx] = F2[idx]
            else:
                decay = np.exp(-t * self.eigenvalues)
                if not keep_kernel:
                    decay[self.kernel_modes] = 0.0
                out[idx] = (self.eigenbasis @ (coeff * decay[:, None])) / sqrt_m
            return out[:, 0] if squeeze else out

        return map(at, times)

    def apply(self, t: float, f: GraphFunction) -> GraphFunction:
        """P_t f (zero-extended outside the Dirichlet domain, if any)."""
        _check_graph_function(self.graph, f)
        return GraphFunction(self.graph, self.apply_array(t, f.array))

    def heat_mass(self, t: float, x: str) -> float:
        """(P_t 1)(x): conserved mass 1 on full graphs, <= 1 under Dirichlet."""
        ix = self.graph.index(x)
        if ix not in self._domain_indices:
            raise ValueError(f"vertex {x!r} is outside the Dirichlet domain")
        return float(self.mass_array(t)[ix])

    def mass_array(self, t: float) -> np.ndarray:
        """P_t 1 at every vertex, clamped to [0, 1] against rounding; 0 outside a Dirichlet domain."""
        return np.clip(self.apply_array(t, np.ones(self.graph.num_vertices)), 0.0, 1.0)


def build_heat(
    g: WeightedGraph,
    dirichlet_domain: Sequence[str] | set[str] | frozenset[str] | None = None,
) -> HeatOperator:
    """The semigroup of g, or its restriction to a Dirichlet domain.

    Without a domain this is g's own full semigroup, factorized on first use
    and then shared: every call for the same graph returns the same
    operator.  A Dirichlet operator is factorized anew on every call.
    """
    if dirichlet_domain is None:
        return g._heat_semigroup
    dom = frozenset(str(v) for v in dirichlet_domain)
    if not dom:
        raise ValueError("Dirichlet domain must be nonempty")
    return _factorize(g, dom, np.array(sorted(g.index(v) for v in dom), dtype=int))


def _factorize(
    g: WeightedGraph, dirichlet_domain: frozenset[str] | None, idx: np.ndarray
) -> HeatOperator:
    """Factorize the symmetrized generator restricted to the vertices idx.

    S is assembled from the edges with both ends in idx.
    """
    sqrt_m = np.sqrt(g.measure_vector[idx])
    local = np.full(g.num_vertices, -1)
    local[idx] = np.arange(len(idx))
    iu, iv, w = g.edge_arrays
    a, b = local[iu], local[iv]
    inside = (a >= 0) & (b >= 0)
    a, b = a[inside], b[inside]
    S = np.zeros((len(idx), len(idx)))
    S[a, b] = S[b, a] = -w[inside] / (sqrt_m[a] * sqrt_m[b])
    # full-graph degrees: the restriction keeps boundary edges
    S[np.arange(len(idx)), np.arange(len(idx))] = g.weighted_degrees[idx]
    eigvals, eigvecs = np.linalg.eigh(S)
    return HeatOperator(
        graph=g,
        eigenvalues=eigvals,
        eigenbasis=eigvecs,
        measure_half=sqrt_m,
        dirichlet_domain=dirichlet_domain,
        domain_indices=idx,
    )


def semigroup_gamma_path(
    h: HeatOperator,
    k: int,
    f: GraphFunction,
    t: float,
    s_grid: Sequence[float],
    x: str,
) -> list[float]:
    """Evaluate s -> P_s Gamma_k(P_{t-s} f)(x) on a grid inside [0, t].

    The derivative of this path in s is 2 P_s Gamma_{k+1}(P_{t-s} f)(x),
    which is how curvature information enters the semigroup estimates; the
    caller checks that identity by finite differences.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    _check_graph_function(h.graph, f)
    grid = [float(s) for s in s_grid]
    if any(s < 0 or s > t for s in grid):
        raise ValueError("grid values must lie in [0, t]")
    if grid != sorted(grid):
        raise ValueError("grid must be sorted")
    ix = h.graph.index(x)
    out = []
    for s, inner in zip(grid, h._apply([t - s for s in grid], f.array, keep_kernel=True)):
        gk = gamma_recursive_array(h.graph, k, inner, inner)
        out.append(float(h.apply_array(s, gk)[ix]))
    return out
