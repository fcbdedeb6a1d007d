"""Numerical verification of the semigroup gradient and variance estimates.

The curvature bound CD(-K, n) -- statement (i) of a five-way equivalence
whose remaining members name the slack fields below -- holds exactly when
four estimates do, for every nonnegative f, every t >= 0 and every vertex:

  (ii)  Gamma(P_t f) <= e^{2Kt} P_t Gamma(f)
                         - (2/n) Int_0^t e^{2Ks} P_s (P_{t-s} Delta f)^2 ds
  (iii) Gamma(P_t f) <= e^{2Kt} P_t Gamma(f)
                         - ((e^{2Kt}-1)/(Kn)) (P_t Delta f)^2
  (iv)  P_t f^2 - (P_t f)^2 <= ((e^{2Kt}-1)/K) P_t Gamma(f)
                         - ((e^{2Kt}-1-2Kt)/(K^2 n)) (P_t Delta f)^2
  (v)   P_t f^2 - (P_t f)^2 >= ((1-e^{-2Kt})/K) Gamma(P_t f)
                         + ((e^{-2Kt}-1+2Kt)/(K^2 n)) (P_t Delta f)^2

with the K = 0 limit conventions (1 - e^{+-2Kt})/K = -+2t and
(e^{+-2Kt} - 1 -+ 2Kt)/K^2 = 2t^2.  Conversely a failure of these estimates
at small t certifies a CD violation, but the slack signs resolve an
overclaimed curvature only as finely as the functions and the t grid do.  On
the benchmark's fuzzed graph of 100 vertices and 300 edges at seed 7 (solved
kappa = -45.53, max Deg 74.27), the default corpus at n = infinity and
t in {0.001, 0.01, 0.1, 1} passes a claim of kappa + 0.1 max Deg with 0
failures and fails kappa + 0.3 max Deg with 67.  All four are evaluated
exactly in the eigenbasis of the heat semigroup, the integral of (ii)
included.  P_t is always the graph's own full semigroup, ``build_heat(g)``,
which every function here takes from the graph rather than from the caller.

Sign convention: K here is taken from the CD(-K, n) hypothesis verbatim, so
a caller holding a solved curvature kappa passes K = -kappa.

The module also covers the supporting identities: Green's formula, the
equality of the ellipticity constant with the l1->linf adjacency norm, the
heat-kernel cutoff construction with its Gamma(eta) <= epsilon bound, the
finite-measure threshold probe, and small-t Taylor coefficient fits.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import operators
from .curvature import _cd_holds, _check_dimension, _each_vertex, cd_check
from .graphs import (
    GraphFunction,
    WeightedGraph,
    _check_graph_function,
    ellipticity_constant,
    is_connected,
)
from .heat import HeatOperator, build_heat
from .operators import gamma_array, laplacian_array

__all__ = [
    "REPORT_TOL",
    "SMOOTHING_TIME",
    "JENSEN_SAMPLES",
    "PreconditionError",
    "EstimateReport",
    "SweepResult",
    "SweepSummary",
    "CutoffResult",
    "verify_estimates",
    "estimate_sweep",
    "default_corpus",
    "green_check",
    "ec_norm_check",
    "build_cutoff",
    "finiteness_probe",
    "taylor_check",
]

REPORT_TOL = 1e-8  # verdict tolerance, relative to the scale of the slack's terms
ESTIMATES = ("ii", "iii", "iv", "v")
SMOOTHING_TIME = 0.1  # how long default_corpus smooths its indicators
JENSEN_SAMPLES = 100  # random functions on which finiteness_probe samples the Jensen step
_MAX_EXPONENT = math.log(np.finfo(float).max)  # largest 2|K|t with e^{2|K|t} finite


class PreconditionError(ValueError):
    """A computed precondition (curvature bound, mass bound) failed."""


@dataclass(frozen=True)
class EstimateReport:
    """Slacks of the four estimates at one (function, t, vertex) triple.

    Slacks are oriented so that slack >= 0 means the inequality holds.  A
    verdict fails when the slack is below -REPORT_TOL times a scale that
    moves with the slack (see ``_slack_arrays``), so verdicts do not depend
    on the units of the weights, the time and K.
    """

    function_id: str
    t: float
    x: str
    K: float
    n: float
    slack_ii: float
    slack_iii: float
    slack_iv: float
    slack_v: float
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


@dataclass(frozen=True, eq=False)
class SweepResult(Sequence):
    """Columnar result of ``estimate_sweep``: one entry per (function, t, vertex).

    ``slacks`` is (4, B, T, N) with the estimates in ``ESTIMATES`` order and
    ``verdicts`` is the matching boolean mask.  Axes after the first follow
    ``function_ids``, ``t_grid`` and ``vertices``.
    The result is a read-only sequence of ``EstimateReport`` in (function,
    t, vertex) order; a report is built only when it is indexed or iterated,
    and the result equals any sequence of the same reports.
    """

    function_ids: tuple[str, ...]
    t_grid: tuple[float, ...]
    vertices: tuple[str, ...]
    K: float
    n: float
    slacks: np.ndarray
    verdicts: np.ndarray

    def __post_init__(self):
        for a in (self.slacks, self.verdicts):
            a.setflags(write=False)

    def __len__(self) -> int:
        return self.verdicts[0].size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("sweep result index out of range")
        b, k, j = np.unravel_index(i % len(self), self.verdicts.shape[1:])
        return EstimateReport(
            self.function_ids[b],
            self.t_grid[k],
            self.vertices[j],
            self.K,
            self.n,
            *self.slacks[:, b, k, j].tolist(),
            dict(zip(ESTIMATES, self.verdicts[:, b, k, j].tolist())),
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class SweepSummary:
    """Reductions of a sweep.

    ``failures_by_estimate`` counts the failed triples of each estimate.
    ``worst`` holds, per estimate, the triple whose slack is lowest relative
    to its verdict tolerance (slack, tolerance, function_id, t, x); a
    triple fails that estimate when slack < -tolerance.
    """

    passed: bool
    num_reports: int
    num_failures: int
    first_counterexample: EstimateReport | None
    warning: str | None
    failures_by_estimate: dict[str, int]
    worst: dict[str, dict]


@dataclass(frozen=True)
class CutoffResult:
    """Heat-kernel cutoff: eta = min(1, max(2 P_t 1_U - 1/2, 0)) at t = 2/eps."""

    eta: GraphFunction
    target_set: frozenset[str]
    epsilon: float
    max_gamma: float


# -- exponential coefficients as functions of x = +-2Kt ----------------------

# 1/(k+2)! for k = 0..9: phi2's series, whose truncation error at |x| < 0.1
# is below 1e-18 relative
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(10))


def _phi1(x):
    """expm1(x)/x elementwise, equal to 1 at x = 0; a float for a scalar x.

    expm1 is accurate to full relative precision at every x != 0, so only
    x = 0 itself needs the limit.
    """
    x = np.asarray(x, dtype=float)
    out = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    return out if out.ndim else float(out)


def _phi2(x: float) -> float:
    """(expm1(x) - x)/x^2, equal to 1/2 at x = 0.

    The closed form loses about 2 eps/|x| relative to cancellation, so below
    |x| = 0.1 the Taylor series sum x^k/(k+2)! is used instead.
    """
    if abs(x) < 0.1:
        acc = 0.0
        for c in reversed(_PHI2_SERIES):
            acc = acc * x + c
        return acc
    return (math.expm1(x) - x) / (x * x)


# -- core slack computation -------------------------------------------------


def _gradient_integral(
    g: WeightedGraph, h: HeatOperator, K: float, lap_F: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """Int_0^t e^{2Ks} P_s (P_{t-s} Delta f)^2 ds at every t of times and vertex, in closed form.

    Works on a batch of functions at once (lap_F is (N,B)) and returns one
    (N,B) block per t, stacked in the order of times.  With S = U Lambda U'
    the symmetrized generator and c = U'(sqrt(m) Delta f) with the kernel
    modes set to 0 (Delta f is mean-zero per component), the integral is
    (U d) / sqrt(m), where

        d_i = sum_jk T_ijk E_ijk c_j c_k,
        T_ijk = sum_y U_yi U_yj U_yk / sqrt(m_y),
        E_ijk = Int_0^t e^{a s + b (t-s)} ds = t e^{max(a,b) t} phi1(-|a-b| t),

    a = 2K - lambda_i and b = -(lambda_j + lambda_k) (Van Loan, IEEE TAC
    1978).  Since a <= 2K and b <= 0, E never exceeds t e^{2|K|t}, and E = 0
    at t = 0.  T does not depend on t: the modes i go in chunks of
    floor(``operators.STACK_ENTRIES`` / (N max(N, B))), at least one, and
    each chunk builds its T once, as one batched product, for every t.  So
    every array of a chunk, the (chunk,N,N) tensors and the (chunk,N,B)
    products alike, holds at most STACK_ENTRIES entries, or one mode's
    N max(N, B) when that is more; the result comes on top.
    """
    lam, U, sqrt_m = h.eigenvalues, h.eigenbasis, h.measure_half
    C = U.T @ (sqrt_m[:, None] * lap_F)
    C[h.kernel_modes] = 0.0
    b = -(lam[:, None] + lam[None, :])
    d = np.empty((len(times),) + C.shape)
    N, B = C.shape
    chunk = max(1, operators.STACK_ENTRIES // max(1, N * max(N, B)))
    for lo in range(0, N, chunk):
        modes = slice(lo, lo + chunk)
        a = (2.0 * K - lam[modes])[:, None, None]
        top, gap = np.maximum(a, b), -np.abs(a - b)
        W = U[:, modes] / sqrt_m[:, None]
        T = (U * W.T[:, :, None]).transpose(0, 2, 1) @ U  # T[i] = (U * W[:, i, None]).T @ U
        for k, t in enumerate(times):
            E = t * np.exp(top * t) * _phi1(gap * t)
            d[k, modes] = np.sum(((T * E) @ C) * C, axis=1)
    return (U @ d) / sqrt_m[:, None]


def _slack_arrays(
    g: WeightedGraph,
    h: HeatOperator,
    K: float,
    n: float,
    F: np.ndarray,
    times: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """All four slacks for a batch of functions at every t of a grid, plus their verdict scales.

    F is (N,B).  Returns the slacks, (4,B,T,N) with the estimates in
    ``ESTIMATES`` order, and the verdict scales, (4,B,T): per function, t
    and estimate, the largest summed magnitude over the vertices of the
    slack's terms, plus a floor of ||f||_inf^2 max Deg for (ii)/(iii) and
    ||f||_inf^2 for (iv)/(v), so that rounding noise on a constant f is not
    judged against zero.  Both the slacks and the scales of (ii)/(iii)
    scale by c under (b, t, K) -> (c b, t/c, c K), and those of (iv)/(v) do
    not change.  The scales are graph-wide, not per vertex, so where the
    weights vary a lot a light vertex is judged against the heavy ones: on a
    unit path with one far edge of weight 1e4, an overclaimed (ii)/(iii)
    fails at 3 light (t, x) pairs where it fails at 7 with weight 100, and
    at none with 1e6, because the max Deg floor outgrows the slack.

    Delta f, Gamma(f) and f^2, their coefficients in the heat eigenbasis and
    those of f are computed once for the grid; each t costs its decays and
    transforms back, Gamma(P_t f), and the terms and scales of the four
    slacks.  Gamma(P_t f) and P_t Delta f are evaluated through the
    kernel-free apply: the dropped modes are gradient-free (resp. absent
    from the mean-zero Delta f), and keeping them would swamp the
    exponentially small fluctuations with rounding noise that the
    e^{2Kt}-sized coefficients then amplify past any verdict tolerance.
    """
    lap_F = laplacian_array(g, F)
    gam_F = gamma_array(g, F, F)
    kept = zip(*(h._apply(times, A, keep_kernel=True) for A in (F, gam_F, F * F)))
    fluct = h._apply(times, F, keep_kernel=False)
    inv_n = 0.0 if math.isinf(n) else 1.0 / n
    if inv_n:
        integrals = _gradient_integral(g, h, K, lap_F, times)
        pt_lap = h._apply(times, lap_F, keep_kernel=False)
    else:
        integrals = pt_lap = itertools.repeat(0.0)

    f_sq = np.max(np.abs(F), axis=0, initial=0.0) ** 2
    gradient_floor = f_sq * float(np.max(g.weighted_degrees, initial=0.0))
    floors = (gradient_floor, gradient_floor, f_sq, f_sq)
    slacks = np.empty((4, F.shape[1], len(times), g.num_vertices))
    scale = np.empty((4, F.shape[1], len(times)))
    for k, (t, (ptF, pt_gam_F, pt_sq_F), ptF_fluct, integral, pt_lap_F) in enumerate(
        zip(times, kept, fluct, integrals, pt_lap)
    ):
        gam_ptF = gamma_array(g, ptF_fluct, ptF_fluct)
        variance = pt_sq_F - ptF * ptF
        lap_sq = pt_lap_F * pt_lap_F

        # (e^{2Kt}-1)/K, (1-e^{-2Kt})/K, (e^{2Kt}-1-2Kt)/K^2, (e^{-2Kt}-1+2Kt)/K^2
        x = 2.0 * K * t
        ratio_plus, ratio_minus = 2.0 * t * _phi1(x), 2.0 * t * _phi1(-x)
        ratio2_plus, ratio2_minus = 4.0 * t * t * _phi2(x), 4.0 * t * t * _phi2(-x)
        heat_of_gradient = math.exp(x) * pt_gam_F
        terms = (
            (heat_of_gradient, -2.0 * inv_n * integral, -gam_ptF),
            (heat_of_gradient, -ratio_plus * inv_n * lap_sq, -gam_ptF),
            (ratio_plus * pt_gam_F, -ratio2_plus * inv_n * lap_sq, -variance),
            (variance, -ratio_minus * gam_ptF, -ratio2_minus * inv_n * lap_sq),
        )
        for i, ((a, b, c), floor) in enumerate(zip(terms, floors)):
            scale[i, :, k] = np.max(np.abs(a) + np.abs(b) + np.abs(c), axis=0, initial=0.0) + floor
            slacks[i, :, k] = (a + b + c).T
    return slacks, scale


def _check_nonnegative(g: WeightedGraph, f: GraphFunction) -> None:
    _check_graph_function(g, f)
    if float(np.min(f.array, initial=0.0)) < 0:
        raise ValueError("f must be nonnegative")


def _stack_corpus(
    g: WeightedGraph, function_corpus: Sequence[tuple[str, GraphFunction]]
) -> np.ndarray:
    """The corpus as an (N,B) array; refuses it at its first function off g or negative.

    The graph of each function is checked in order up to the first one on
    another graph; the functions before it are then checked for a negative
    value by one reduction, so a negative function is reported when it
    comes first, as a check of one function at a time would.
    """
    arrays, off_graph = [], None
    for _, f in function_corpus:
        try:
            _check_graph_function(g, f)
        except ValueError as err:
            off_graph = err
            break
        arrays.append(f.array)
    F = np.stack(arrays, axis=1) if arrays else np.empty((g.num_vertices, 0))
    if np.min(F, initial=0.0) < 0:
        raise ValueError("f must be nonnegative")
    if off_graph is not None:
        raise off_graph
    return F


def _require_curvature(g: WeightedGraph, K: float) -> None:
    """Raise PreconditionError at the first vertex that the judge refutes CD(K, inf) at."""
    holds = _each_vertex(g, lambda stack: _cd_holds(stack, K, math.inf), np.empty(g.num_vertices, dtype=bool))
    if not holds.all():
        x = g.vertices[int(np.argmin(holds))]
        raise PreconditionError(f"graph violates CD({K:.6g}, infinity): the curvature at {x!r} is "
                                f"below {K:.6g} (lambda_min(M(K)) = {cd_check(g, K, math.inf, x)[1]:.3g})")


def _check_exponent(K: float, t: float) -> None:
    """Refuse (K, t) whose coefficients e^{+-2Kt} overflow a double."""
    if 2.0 * abs(K) * t > _MAX_EXPONENT:
        raise PreconditionError(
            f"the estimate coefficients e^(2|K|t) overflow double precision at "
            f"K = {K:g}, t = {t:g} (2|K|t = {2.0 * abs(K) * t:g} exceeds "
            f"{_MAX_EXPONENT:.6g}); use a smaller |K| or t"
        )


def verify_estimates(
    g: WeightedGraph,
    K: float,
    n: float,
    f: GraphFunction,
    t: float,
    x: str,
) -> EstimateReport:
    """Slacks and verdicts of all four estimates at one (f, t, x); f is reported as "f"."""
    ix = g.index(x)
    result, _ = estimate_sweep(g, K, n, [t], [("f", f)])
    return result[ix]


def estimate_sweep(
    g: WeightedGraph,
    K: float,
    n: float,
    t_grid: Sequence[float],
    function_corpus: Sequence[tuple[str, GraphFunction]],
) -> tuple[SweepResult, SweepSummary]:
    """Check the estimates on every (f, t, vertex) combination, under g's semigroup.

    Returns a columnar ``SweepResult`` that reads as the sequence of all
    reports in (function, t, vertex) order, and a summary: the failure
    counts, the first counterexample and the worst slack of each estimate,
    all found by array reductions.  An empty corpus passes vacuously with a
    warning.
    """
    n = _check_dimension(n)
    if not (-math.inf < K < math.inf):
        raise ValueError(f"K must be finite, got {K}")
    times = tuple(float(t) for t in t_grid)
    if not all(0 <= t < math.inf for t in times):
        raise ValueError("t must be finite and nonnegative")
    _check_exponent(K, max(times, default=0.0))
    F = _stack_corpus(g, function_corpus)

    if function_corpus:
        # one batched slack evaluation covers the whole corpus and t grid
        slacks, scale = _slack_arrays(g, build_heat(g), K, n, F, times)
    else:
        slacks, scale = np.empty((4, 0, len(times), g.num_vertices)), np.empty((4, 0, len(times)))
    tol = REPORT_TOL * scale[..., None]
    result = SweepResult(
        function_ids=tuple(fid for fid, _ in function_corpus),
        t_grid=times,
        vertices=g.vertices,
        K=float(K),
        n=n,
        slacks=slacks,
        verdicts=slacks >= -tol,
    )
    return result, _summarize(result, tol)


def _summarize(result: SweepResult, tol: np.ndarray) -> SweepSummary:
    """Summary of a sweep by reductions over its arrays; tol is (4,B,T,1)."""
    failed = ~result.verdicts.all(axis=0)
    first = np.flatnonzero(failed)
    # the worst triple of an estimate is the one nearest to (or furthest
    # past) its own verdict threshold, which is the slack relative to tol
    relative = np.divide(result.slacks, tol, out=np.zeros_like(result.slacks), where=tol > 0)
    worst = {}
    for k, name in enumerate(ESTIMATES):
        if relative[k].size:
            b, i, j = np.unravel_index(np.argmin(relative[k]), relative[k].shape)
            worst[name] = {
                "slack": float(result.slacks[k, b, i, j]),
                "tolerance": float(tol[k, b, i, 0]),
                "function_id": result.function_ids[b],
                "t": result.t_grid[i],
                "x": result.vertices[j],
            }
    return SweepSummary(
        passed=not first.size,
        num_reports=len(result),
        num_failures=int(first.size),
        first_counterexample=result[int(first[0])] if first.size else None,
        warning=None if result.function_ids else "empty function corpus",
        failures_by_estimate={
            name: int(np.count_nonzero(~result.verdicts[k])) for k, name in enumerate(ESTIMATES)
        },
        worst=worst,
    )


def default_corpus(
    g: WeightedGraph,
    seed: int = 0,
    num_random: int = 20,
) -> list[tuple[str, GraphFunction]]:
    """Standard nonnegative test functions for sweeps.

    All vertex indicators, ``num_random`` uniform [0,1] random functions and
    the indicators smoothed by g's semigroup for SMOOTHING_TIME (clipped at 0
    against rounding), which probe the near-harmonic regime.
    """
    if num_random < 0:
        raise ValueError(f"num_random must be nonnegative, got {num_random}")
    N = g.num_vertices
    (smoothed,) = build_heat(g)._apply((SMOOTHING_TIME,), np.eye(N), keep_kernel=True)
    # r draws of N in turn are the rows of one (r, N) draw
    random = np.random.default_rng(seed).uniform(0.0, 1.0, (num_random, N)).T
    columns = np.hstack((np.eye(N), random, np.maximum(smoothed, 0.0)))
    names = [*(f"indicator:{v}" for v in g.vertices), *(f"random:{i}" for i in range(num_random)),
             *(f"smoothed:{v}" for v in g.vertices)]
    return [(name, GraphFunction(g, column)) for name, column in zip(names, columns.T)]


# -- Green's formula and the ellipticity norm -------------------------------


def green_check(
    g: WeightedGraph, f: GraphFunction, h: GraphFunction
) -> tuple[float, float, float]:
    """(<f, Delta h>_m, <Delta f, h>_m, -sum_x Gamma(f,h)(x) m(x)).

    On a finite graph the three agree: the m-weighted Laplacian is
    self-adjoint and its quadratic form is the summed carre du champ.
    """
    _check_graph_function(g, f)
    _check_graph_function(g, h, "h")
    m = g.measure_vector
    a = float(np.sum(f.array * laplacian_array(g, h.array) * m))
    b = float(np.sum(laplacian_array(g, f.array) * h.array * m))
    c = -float(np.sum(gamma_array(g, f.array, h.array) * m))
    return a, b, c


def ec_norm_check(g: WeightedGraph) -> tuple[float, float]:
    """(ellipticity constant, adjacency operator norm l1(X,m) -> linf(X)).

    The norm is evaluated on vertex indicators: ||A 1_y||_inf / ||1_y||_1
    maximized over y.  Both numbers equal max b(x,y)/(m(x)m(y)), computed by
    independent routes.
    """
    cert = ellipticity_constant(g)
    m = g.measure_vector
    csr = g.csr
    # A 1_y has the entries b(x,y)/m(x) at the neighbours x of y: row y of the CSR
    column_max = csr.row_reduce(np.maximum, csr.weights / m.take(csr.indices))
    norm = float(np.max(column_max / m, initial=0.0))
    return cert.constant, norm


# -- cutoff construction and finiteness probe --------------------------------


def build_cutoff(
    g: WeightedGraph,
    S: Sequence[str] | set[str] | frozenset[str],
    epsilon: float,
    U: Sequence[str] | set[str] | frozenset[str],
) -> CutoffResult:
    """Cutoff eta with eta = 1 on S and Gamma(eta) <= epsilon, via heat flow.

    Takes t = 2/epsilon and sets eta = min(1, max(2 P_t 1_U - 1/2, 0)), with
    P_t the semigroup of g, applied in its eigenbasis: t grows without bound
    as epsilon falls, and the terms of the Chebyshev expansion as sqrt(t).
    The gradient bound needs nonnegative curvature: under CD(0, infinity)
    the variance estimate gives
    Gamma(P_t 1_U) <= (1/2t)(P_t 1_U^2 - (P_t 1_U)^2), and eta is a
    1-Lipschitz contraction of 2 P_t 1_U, so
    Gamma(eta) <= 4 Gamma(P_t 1_U) <= 2/t = epsilon.

    Raises PreconditionError if cd_check refutes CD(0, infinity) at some
    vertex or if P_t 1_U < 3/4 somewhere on S (the caller must choose U
    large enough).
    """
    if not (0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    s_idx = [g.index(v) for v in S]
    u_idx = [g.index(v) for v in U]
    _require_curvature(g, 0.0)

    t = 2.0 / epsilon
    ones_u = np.zeros(g.num_vertices)
    ones_u[u_idx] = 1.0
    (pt_ones_u,) = build_heat(g)._apply((t,), ones_u, keep_kernel=True)
    if s_idx:
        worst = float(np.min(pt_ones_u[s_idx]))
        if worst < 0.75 - 1e-12:
            raise PreconditionError(
                f"P_t 1_U = {worst:.6g} < 3/4 on the target set; U is too small "
                f"for this epsilon"
            )
    eta = np.minimum(1.0, np.maximum(2.0 * pt_ones_u - 0.5, 0.0))
    gam_eta = gamma_array(g, eta, eta)
    max_gamma = float(np.max(gam_eta)) if gam_eta.size else 0.0
    return CutoffResult(
        eta=GraphFunction(g, eta),
        target_set=frozenset(str(v) for v in S),
        epsilon=float(epsilon),
        max_gamma=max_gamma,
    )


def finiteness_probe(
    g: WeightedGraph,
    K: float,
    epsilon_grid: Sequence[float],
    seed: int = 0,
) -> dict:
    """Quantify the cutoff/curvature obstruction to infinite measure.

    Under a positive curvature bound K, a cutoff with eta(x) = 1 and
    Gamma(eta) < epsilon forces 1 <= sqrt(2 epsilon Deg(x)) / K, so any
    epsilon below K^2 / (2 Deg(x)) yields a contradiction.  On a finite
    graph (finite measure is automatic) the probe documents the thresholds
    and also samples the Jensen step (Delta g)^2 <= 2 Deg(x) Gamma(g)(x)
    that the argument relies on: ``jensen_max_violation`` is the largest
    (Delta g)^2 - 2 Deg Gamma(g) over the samples (0 if none is positive) and
    ``jensen_scale`` the largest (Delta g)^2 + 2 Deg Gamma(g), the scale to
    judge the violation against; the Jensen step is sampled on JENSEN_SAMPLES
    random functions.
    """
    if not (0 < K < math.inf):
        raise ValueError(f"K must be positive and finite, got {K}")
    epsilons = [float(eps) for eps in epsilon_grid]
    for eps in epsilons:
        if not (0 < eps < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
    if not is_connected(g):
        raise PreconditionError("finiteness probe requires a connected graph")
    _require_curvature(g, K)

    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, (g.num_vertices, JENSEN_SAMPLES))
    lap = laplacian_array(g, samples)
    gam = gamma_array(g, samples, samples)
    deg = g.weighted_degrees
    lap_sq, deg_gam = lap * lap, 2.0 * deg[:, None] * gam
    jensen_violation = float(np.max(lap_sq - deg_gam, initial=0.0))
    jensen_scale = float(np.max(lap_sq + deg_gam, initial=0.0))

    per_vertex = []
    for i, v in enumerate(g.vertices):
        d = float(deg[i])
        vacuous = d == 0.0
        threshold = math.inf if vacuous else K * K / (2.0 * d)
        entries = []
        for eps in epsilons:
            bound = math.sqrt(2.0 * eps * d) / K
            entries.append(
                {
                    "epsilon": eps,
                    "bound": bound,
                    "forces_contradiction": (not vacuous) and bound < 1.0,
                }
            )
        per_vertex.append(
            {
                "vertex": v,
                "degree": d,
                "epsilon_threshold": threshold,
                "vacuous": vacuous,
                "entries": entries,
            }
        )
    return {
        "curvature_bound": float(K),
        "total_measure": float(np.sum(g.measure_vector)),
        "jensen_max_violation": jensen_violation,
        "jensen_scale": jensen_scale,
        "per_vertex": per_vertex,
    }


# -- small-t Taylor coefficients ---------------------------------------------


def _richardson_limit(seq: Sequence[float]) -> float:
    """Extrapolate g(t0 / 2^j) -> g(0) for g with a power series error."""
    row = list(seq)
    k = 1
    while len(row) > 1:
        fac = 2.0**k
        row = [(fac * row[j + 1] - row[j]) / (fac - 1.0) for j in range(len(row) - 1)]
        k += 1
    return row[0]


def taylor_check(
    g: WeightedGraph,
    f: GraphFunction,
    x: str,
    K: float = 0.5,
) -> dict:
    """Fit small-t expansion coefficients of g's semigroup and compare with exact operators.

    The variance t -> (P_t f^2 - (P_t f)^2)(x) expands as
    2t Gamma(f) + t^2 (Delta Gamma(f) + 2 Gamma(f, Delta f)) + O(t^3); the
    two bound-side terms expand as 2t Gamma(f) + 2t^2 (Delta Gamma(f)
    + K Gamma(f)) for the heat-of-gradient side and 2t Gamma(f)
    + 2t^2 (2 Gamma(f, Delta f) - K Gamma(f)) for the gradient-of-heat
    side.  First and second order coefficients are fitted by Richardson
    extrapolation on the halving grid t_j = 0.1 / (u 2^j), j < 7, with the
    rate u = max(D, |K|) and D the largest weighted degree (u = 1 when both
    vanish).  As lambda_max <= 2D, both lambda t_0 and 2|K| t_0 are at most
    0.2, so the fit sits at the same point of the expansion under
    (b, K) -> (c b, c K) and e^{+-2Kt} never overflows.  The report's
    ``scale`` holds ||f||_inf^2 u^k for each order k, the scale against which
    a coefficient mismatch of that order is judged.
    """
    _check_nonnegative(g, f)
    if not (-math.inf < K < math.inf):
        raise ValueError(f"K must be finite, got {K}")
    ix = g.index(x)
    rate = max(float(np.max(g.weighted_degrees, initial=0.0)), abs(float(K))) or 1.0
    t0 = 0.1 / rate

    farr = f.array
    gam_f = gamma_array(g, farr, farr)
    lap_f = laplacian_array(g, farr)
    lap_gam_f = laplacian_array(g, gam_f)
    gam_f_lapf = gamma_array(g, farr, lap_f)

    exact_c1 = 2.0 * float(gam_f[ix])
    exact_c2 = {
        "variance": float(lap_gam_f[ix] + 2.0 * gam_f_lapf[ix]),
        "heat_of_gradient": 2.0 * float(lap_gam_f[ix] + K * gam_f[ix]),
        "gradient_of_heat": 2.0 * float(2.0 * gam_f_lapf[ix] - K * gam_f[ix]),
    }

    h = build_heat(g)
    ts = [t0 / 2.0**j for j in range(7)]
    series = {name: [] for name in exact_c2}
    applied = h._apply(ts, np.column_stack([farr * farr, farr, gam_f]), keep_kernel=True)
    for t, columns in zip(ts, applied):
        pt_sq, ptf, pt_gam = columns.T
        series["variance"].append(float(pt_sq[ix] - ptf[ix] ** 2))
        series["heat_of_gradient"].append(2.0 * t * _phi1(2.0 * K * t) * float(pt_gam[ix]))
        series["gradient_of_heat"].append(
            2.0 * t * _phi1(-2.0 * K * t) * float(gamma_array(g, ptf, ptf)[ix]))

    f_sq = float(np.max(np.abs(farr), initial=0.0)) ** 2
    report = {"vertex": x, "K": float(K),
              "scale": {"first_order": f_sq * rate, "second_order": f_sq * rate * rate}}
    for name, values in series.items():
        c1 = _richardson_limit([v / t for v, t in zip(values, ts)])
        c2 = _richardson_limit([(v - c1 * t) / (t * t) for v, t in zip(values, ts)])
        report[name] = {"first_order": {"fitted": c1, "exact": exact_c1},
                        "second_order": {"fitted": c2, "exact": exact_c2[name]}}
    return report
