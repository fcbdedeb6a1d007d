"""The heat semigroup P_t = e^{t Delta}: a Chebyshev expansion, and an exact eigenbasis.

-Delta is self-adjoint in the m-weighted inner product, so conjugating by
sqrt(m) produces the plainly symmetric matrix

    S = D_m^{1/2} (-Delta) D_m^{-1/2},
    S[x,y] = -b(x,y) / sqrt(m(x) m(y)),   S[x,x] = Deg(x).

Restricting -Delta to a vertex subset D, with the full degrees kept on the
diagonal, implements the Dirichlet (absorbing-boundary) semigroup used to
model exhaustions of larger graphs; there heat mass may genuinely escape,
unlike on a full finite graph where P_t 1 = 1.  A ``HeatOperator`` is that
restriction, built once in D's own coordinates, and both paths below read
it; values outside D are ignored on input and 0 on output.

P_t is computed along one of two paths, fixed by the consumer:

* ``apply_array``, ``apply``, ``expand`` and ``semigroup_gamma_path`` sum
  a Chebyshev expansion of e^{-tS} over the compressed rows of the graph
  (Tal-Ezer and Kosloff, J. Chem. Phys. 1984), in memory linear in the
  number of vertices and edges.  Take d = Deg, the full-graph degree, on
  the domain, and

      Lambda = max(max over edges {x,y} inside the domain of d(x) + d(y), max d).

  The spectrum of -Delta on the domain lies in [0, Lambda] (Anderson and
  Morley, Linear Multilinear Algebra 1985), with any vertex measure: for f
  supported on the domain, <f, -Delta f>_m = sum_e b_e (f(x) - f(y))^2 is
  at most ||R^T |f|||^2, R the domain x edges matrix with R[x,e] = sqrt(b_e)
  at each end x of e in the domain, so lambda_max <= lambda_max(R^T M^-1 R);
  after the similarity by diag(sqrt(b)) the row e of that matrix sums to
  the sum of Deg(x) over the ends x of e in the domain, at most Lambda.
  Lambda <= 2 max d, the Gershgorin bound, and is much lower where large
  degrees do not meet.  With h = Lambda / 2 and c = t h

      e^{-t lambda} = sum_k (2 - delta_k0) (-1)^k e^{-c} I_k(c) T_k(lambda / h - 1).

  The series stops at the first degree K whose coefficient tail
  2 sum_{k>K} e^{-c} I_k(c) is below TAIL_TOL, a fixed rule in the manner
  of Al-Mohy and Higham (SIAM J. Sci. Comput. 2011).  As |T_k| <= 1 on the
  spectrum, the tail bounds the truncation error in l2(m) relative to
  ||f||_{l2(m)}.  Rounding is not in that bound; it grows with K, to about
  K eps ||f||_inf.  K is about sqrt(2 c ln 10^15), and a t whose K would
  exceed MAX_DEGREE (2^20, c about 1.6e10) is refused.  Each degree costs one
  gather of the stored entries with both ends in the domain, one product
  with their weights, one ``reduceat`` over their rows and a few passes
  over the (B, |D|) batch, whatever the size of the graph.  Each column is
  scaled by a power of 2 to a largest value in [1/2, 1) and back, so that
  no term overflows or loses bits below the normal range.
* ``_apply`` carries its input into the eigenbasis of S, assembled from
  the same restriction, which one dense ``eigh`` computes on the first
  access to ``eigenvalues``, ``eigenbasis`` or ``kernel_modes``.  The
  estimates layer uses it: its sweeps need per-mode relative accuracy, the
  closed form of (ii) needs the modes, its corpus applies P_t to N columns
  at once, and the cutoff's t = 2 / epsilon has no ceiling, where the
  expansion's cost would grow as sqrt(t).

The full semigroup is fixed by the graph, so it is built once per graph and
shared; Dirichlet restrictions are built on each request.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import GraphFunction, WeightedGraph, _check_graph_function
from .operators import _scaled_out, gamma_recursive_array

__all__ = ["HeatOperator", "build_heat", "semigroup_gamma_path"]

KERNEL_TOL = 1e-12  # eigenvalues below this multiple of lambda_max are kernel modes
TAIL_TOL = 1e-15  # the Chebyshev series stops once its coefficient tail is below this
MAX_DEGREE = 2**20  # the largest sqrt(2 c ln(1 / TAIL_TOL)) expanded: c up to about 1.6e10, 2^21 + 32 terms


class HeatOperator:
    """P_t on a graph or on a Dirichlet domain D, by Chebyshev expansion or in the eigenbasis.

    The operator is the restriction of -Delta to D (the whole vertex set
    without a domain) in D's own coordinates: position i is the i-th vertex
    of D in the graph's order.  It is built once, from the normalized graph
    ``graph._scale``: ``_rows``, ``_columns`` and ``_weights`` are the stored
    entries x -> y with both ends in D, in local coordinates and in row
    order; ``_degrees`` is the full-graph Deg on D, so that the boundary
    edges still drain heat; ``_measure`` is m on D and ``_half`` is
    Lambda / 2, the edge bound of the module docstring.  The expansion and
    the eigenbasis both read these arrays, which are read-only.
    ``eigenvalues``, ``_bound`` = Lambda and ``measure_half`` = sqrt(m) are
    mapped back into the graph's units, where t meets them: t lambda is the
    same double in any units.

    The eigenbasis is factorized lazily: ``eigenvalues``, ``eigenbasis``
    and ``kernel_modes`` are computed together on the first access to any
    of them and then kept, so an operator that only expands never calls
    ``eigh``.  ``kernel_modes`` masks the eigenvalues at or below
    KERNEL_TOL * lambda_max, relative so that the split does not depend on
    units.  Apart from these caches the operator is immutable, and
    concurrent ``apply`` calls are safe (two threads reaching an empty
    cache at once may both fill it, with equal values).
    """

    def __init__(self, graph: WeightedGraph, dirichlet_domain: Iterable[str] | None):
        self.graph = graph
        self.dirichlet_domain = dirichlet_domain
        # the full graph's domain is a basic slice, which reads and writes columns without a gather
        domain = slice(None)
        if dirichlet_domain is not None:
            self.dirichlet_domain = frozenset(str(v) for v in dirichlet_domain)
            if not self.dirichlet_domain:
                raise ValueError("Dirichlet domain must be nonempty")
            domain = np.array(sorted(map(graph.index, self.dirichlet_domain)), dtype=int)
        self._domain = domain
        unit, a, c = graph._scale
        csr, self._exponent = unit.csr, 2 * c
        self._degrees, self._measure = unit.weighted_degrees[domain], unit.measure_vector[domain]
        local = np.full(graph.num_vertices, -1)
        local[domain] = np.arange(len(self._degrees))
        rows, columns = local.take(csr.rows), local.take(csr.indices)
        kept = (rows >= 0) & (columns >= 0)
        self._rows, self._columns, self._weights = rows[kept], columns[kept], csr.weights[kept]
        ends = self._degrees.take(self._rows) + self._degrees.take(self._columns)
        self._half = max(float(ends.max(initial=0.0)), float(self._degrees.max(initial=0.0))) / 2.0
        self._bound = float(_scaled_out(2.0 * self._half, self._exponent))
        self.measure_half = _scaled_out(np.sqrt(self._measure), a)
        for v in (self._degrees, self._measure, self._rows, self._columns, self._weights, self.measure_half):
            v.setflags(write=False)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # S from the kept entries, with the full-graph degrees on its diagonal
        rows, columns, sqrt_m = self._rows, self._columns, np.sqrt(self._measure)
        S = np.diag(self._degrees)
        S[rows, columns] = -self._weights / (sqrt_m[rows] * sqrt_m[columns])
        eigvals, eigvecs = np.linalg.eigh(S)
        kernel = eigvals <= KERNEL_TOL * eigvals.max(initial=0.0)
        eigvals = _scaled_out(eigvals, self._exponent)
        for a in (eigvals, eigvecs, kernel):
            a.setflags(write=False)
        return eigvals, eigvecs, kernel

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of S on the domain, ascending; read-only."""
        return self._spectrum[0]

    @property
    def eigenbasis(self) -> np.ndarray:
        """Orthonormal eigenvectors of S, one column per eigenvalue; read-only."""
        return self._spectrum[1]

    @property
    def kernel_modes(self) -> np.ndarray:
        """The eigenvalues at or below KERNEL_TOL * lambda_max; read-only."""
        return self._spectrum[2]

    def apply_array(self, t: float, F: np.ndarray) -> np.ndarray:
        """P_t on a full-length vector (N,) or batch (N,B), by the Chebyshev expansion.

        Values outside a Dirichlet domain are ignored on input and zero on
        output.  t = 0 reproduces the input exactly (restricted to the
        domain), and so does a domain whose degrees are all 0.
        """
        ((out, _),) = self.expand((t,), F)
        return out

    def expand(self, times: Sequence[float], F: np.ndarray) -> list[tuple[np.ndarray, float]]:
        """(P_t F, its truncation bound) for each t of times, by one Chebyshev recurrence.

        F is (N,) or (N,B).  Its rows on the domain D are carried in as a
        (B, |D|) batch, so values outside D are ignored, and each result is
        zero-extended outside D on the way out.  The terms T_k(A) F,
        A = -Delta / h - 1 restricted to D and h = Lambda / 2 (the edge bound
        of the module docstring), are computed once for every t; each t only
        weighs them by its own coefficients, at c = t h.  The bound is the
        coefficient tail at t's stop degree, which bounds the truncation
        error alone:
        ||P_t F - sum_{k<=K} a_k T_k(A) F||_{l2(m)} <= bound * ||F||_{l2(m)}
        per column.  Rounding is not in it; it grows with the stop degree
        (see the module docstring).  The bound is 0 where the series is
        exact (t = 0 or Lambda = 0).  A t whose degree, about
        sqrt(2 c ln(1 / TAIL_TOL)), exceeds MAX_DEGREE raises ValueError
        before anything is allocated.
        """
        series = self._series(times)
        # (B, |D|): one row per column of F, one column per domain vertex
        batch = np.array(F.T[..., self._domain], dtype=float, order="C", ndmin=2)
        # powers of 2: exact both ways, and each column's largest value in [1/2, 1)
        _, exponent = np.frexp(np.max(np.abs(batch), axis=1, initial=0.0))
        batch = np.ldexp(batch, -exponent[:, None])
        sums = [coeffs[0] * batch for coeffs, _ in series]
        stop = max((len(coeffs) for coeffs, _ in series), default=1)
        for k, term in zip(range(1, stop), itertools.islice(self._terms(batch), 1, None)):
            for total, (coeffs, _) in zip(sums, series):
                if k < len(coeffs):
                    total += coeffs[k] * term
        extended = np.zeros((len(sums), len(batch), self.graph.num_vertices))
        for full, total in zip(extended, sums):
            full[:, self._domain] = np.ldexp(total, exponent[:, None], out=total)
        return [(full.T.reshape(F.shape), tail) for full, (_, tail) in zip(extended, series)]

    def full_mass(self, times: Sequence[float]) -> list[float]:
        """P_t 1 on the full graph for each t of times, the same number at every vertex, by the series alone.

        ``_terms`` maps the constant 1/2 to (-1)^k / 2 exactly, so ``expand``
        of the ones column, which it scales to 1/2, sums coeffs[k] (-1)^k / 2
        at every vertex: the truncated series of e^{-t lambda} at lambda = 0.
        This sums the same products in the same order and scales back by the
        same power of 2, so it equals ``expand(times, ones)`` bit for bit,
        without a product with the graph.  A Dirichlet domain drains the
        constant at its boundary, so its P_t 1 is not one number.
        """
        if self.dirichlet_domain is not None:
            raise ValueError("P_t 1 is one number on the full graph only, not on a Dirichlet domain")
        masses = []
        for coeffs, _ in self._series(times):
            terms = coeffs * np.resize([0.5, -0.5], len(coeffs))  # coeffs[k] T_k(A) 1/2
            masses.append(math.ldexp(float(np.add.accumulate(terms)[-1]), 1))
        return masses

    def _series(self, times: Sequence[float]) -> list[tuple[np.ndarray, float]]:
        """The Chebyshev coefficients of e^{-t lambda} on [0, Lambda] and their tail, for each t of times."""
        _check_times(times)
        half = self._bound / 2.0
        for t in times:
            # refused before _chebyshev_coefficients sizes its recurrence by this degree
            if not math.sqrt(2.0 * (t * half) * math.log(1.0 / TAIL_TOL)) <= MAX_DEGREE:
                raise ValueError(f"t = {t:g} is too large for the Chebyshev expansion: its degree, about "
                                 f"sqrt(2 c ln(1 / {TAIL_TOL:g})) at c = t Lambda / 2 and "
                                 f"Lambda = {self._bound:g}, exceeds {MAX_DEGREE}")
        return [_chebyshev_coefficients(t * half) for t in times]

    def _terms(self, batch: np.ndarray) -> Iterator[np.ndarray]:
        """T_0(A) F, T_1(A) F, ... without end, for a batch F (B, |D|) and A = -Delta / h - 1 on D.

        Each step is one ``take`` of the flat batch, one product with the
        weights and one ``reduceat`` over the rows of every column that keep
        an entry; the sums are divided by m after, as in
        ``weighted_degrees``, so that A maps constants on a full graph to -1
        times them exactly.
        """
        B, n = batch.shape
        starts = np.flatnonzero(np.diff(self._rows, prepend=-1))
        rows = self._rows[starts]
        offsets = np.arange(B)[:, None]
        gather = (offsets * n + self._columns).ravel()
        weights = np.tile(self._weights, B)
        starts = (offsets * len(self._columns) + starts).ravel()
        # every row keeps an entry on a full graph without isolated vertices
        scatter = slice(None) if len(rows) == n else (offsets * n + rows).ravel()
        measure = np.tile(self._measure[rows], B)
        half = self._half
        previous, term = None, batch
        while True:
            yield term
            following = self._degrees * term
            if len(gather):
                flow = term.take(gather)
                flow *= weights
                flow = np.add.reduceat(flow, starts)
                flow /= measure
                following.ravel()[scatter] -= flow
            following /= half
            following -= term
            if previous is not None:
                following *= 2.0
                following -= previous
            previous, term = term, following

    def _apply(self, times: Sequence[float], F: np.ndarray, keep_kernel: bool) -> Iterator[np.ndarray]:
        """P_t F in the eigenbasis for each t of times, in order, as an iterator of arrays shaped like F.

        The times are checked and F is carried into the eigenbasis once, on
        the call; each t then costs only its decay e^{-t lambda} (kernel
        modes set to 0 unless keep_kernel) and the transform back, made as
        the iterator reaches it.  t = 0 returns the input exactly.

        Without keep_kernel the generator's kernel modes (eigenvalue <=
        KERNEL_TOL * lambda_max) are dropped.  They are per-component
        constants, which neither carry a gradient nor survive in mean-zero
        inputs; dropping them is exact for those uses and keeps the
        surviving modes relatively accurate when they have decayed far below
        the constant part, where the plain apply would return amplified
        rounding instead.
        """
        _check_times(times)
        F2 = F[:, None] if F.ndim == 1 else F
        idx, sqrt_m = self._domain, self.measure_half[:, None]
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
            return out.reshape(F.shape)

        return map(at, times)

    def apply(self, t: float, f: GraphFunction) -> GraphFunction:
        """P_t f (zero-extended outside the Dirichlet domain, if any)."""
        _check_graph_function(self.graph, f)
        return GraphFunction(self.graph, self.apply_array(t, f.array))


def clamp_mass(p: np.ndarray) -> np.ndarray:
    """P_t 1 clamped to [0, 1], where the semigroup keeps it, against rounding."""
    return np.clip(p, 0.0, 1.0)


def _check_times(times: Sequence[float]) -> None:
    for t in times:
        if not (0 <= t < math.inf):
            raise ValueError(f"the heat semigroup is only defined for finite t >= 0, got {t}")


def _chebyshev_coefficients(c: float) -> tuple[np.ndarray, float]:
    """The coefficients (2 - delta_k0) (-1)^k e^{-c} I_k(c) up to the stop degree K, and the tail after K.

    K is the first degree whose tail 2 sum_{k>K} e^{-c} I_k(c) is below
    TAIL_TOL.  The recurrence runs once, from n = 2 sqrt(2 c ln(1 / TAIL_TOL)) + 32;
    K lies below n / 2 (below 0.49 n for c from 1e-12 to the MAX_DEGREE ceiling),
    and a K that does not raises RuntimeError.  Far above K the coefficients
    are negligible (about e^{-k^2 / 2c} for large c, below (c/2)^k / k! for
    small c).  c = 0 gives the identity exactly.
    """
    if c == 0.0:
        return np.ones(1), 0.0
    n = 2 * math.ceil(math.sqrt(2.0 * c * math.log(1.0 / TAIL_TOL))) + 32
    scaled = _scaled_bessel(c, n)
    after = 2.0 * np.cumsum(scaled[:0:-1])[::-1]  # after[k] = 2 sum_{j>k} e^{-c} I_j(c)
    stop = int(np.argmax(after < TAIL_TOL))
    if not (after[stop] < TAIL_TOL and 2 * stop <= n):
        raise RuntimeError(f"the Chebyshev series at c = {c:g} does not stop below half of its {n} terms")
    coeffs = scaled[: stop + 1].copy()
    coeffs[1:] *= 2.0
    coeffs[1::2] *= -1.0
    return coeffs, float(after[stop])


def _scaled_bessel(c: float, n: int) -> np.ndarray:
    """e^{-c} I_k(c) for k = 0..n, by Miller's backward recurrence from I_{n+1} = 0.

    The recurrence I_{k-1} = I_{k+1} + (2k/c) I_k runs on the ratios
    r_k = I_k / I_{k-1} = 1 / (2k/c + r_{k+1}), which rescales it at every
    step so that nothing overflows; their running products are
    I_k / I_0 <= 1, normalized by e^{-c} (I_0 + 2 sum_{k>=1} I_k) = 1.
    """
    ratios = np.empty(n + 1)
    ratios[0] = 1.0
    r = 0.0
    for k in range(n, 0, -1):
        r = 1.0 / (2.0 * k / c + r)
        ratios[k] = r
    relative = np.cumprod(ratios)
    return relative / (2.0 * relative.sum() - 1.0)


def build_heat(g: WeightedGraph, dirichlet_domain: Iterable[str] | None = None) -> HeatOperator:
    """The semigroup of g, or its restriction to a Dirichlet domain.

    Without a domain this is g's own full semigroup, built on first use and
    then shared: every call for the same graph returns the same operator,
    so its eigenbasis, once factorized, is shared too.  A Dirichlet operator
    is built anew on every call.  Building one factorizes nothing.
    """
    if dirichlet_domain is None:
        return g._heat_semigroup
    return HeatOperator(g, dirichlet_domain)


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
    caller checks that identity by finite differences.  Both semigroups go
    through the Chebyshev expansion, the inner one in one pass over the grid.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    _check_times([t])
    _check_graph_function(h.graph, f)
    grid = [float(s) for s in s_grid]
    if any(s < 0 or s > t for s in grid):
        raise ValueError("grid values must lie in [0, t]")
    if grid != sorted(grid):
        raise ValueError("grid must be sorted")
    ix = h.graph.index(x)
    out = []
    for s, (inner, _) in zip(grid, h.expand([t - s for s in grid], f.array)):
        gk = gamma_recursive_array(h.graph, k, inner, inner)
        out.append(float(h.apply_array(s, gk)[ix]))
    return out
