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
included.  P_t is always a full semigroup of the graph, taken from it rather
than from the caller: that of its normalized graph ``g._scale`` in the sweep.

Sign convention: K here is taken from the CD(-K, n) hypothesis verbatim, so
a caller holding a solved curvature kappa passes K = -kappa.

The module also covers the supporting identities: Green's formula, the
equality of the ellipticity constant with the l1->linf adjacency norm, the
heat-kernel cutoff construction with its Gamma(eta) <= epsilon bound, the
finite-measure threshold probe, and small-t Taylor coefficient fits.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import operators
from .curvature import _cd_holds, _check_dimension, _check_K, _each_vertex, cd_check
from .graphs import (
    GraphFunction,
    WeightedGraph,
    _check_graph_function,
    ellipticity_constant,
    is_connected,
)
from .heat import HeatOperator, _check_times, build_heat
from .operators import PreconditionError, _scaled_in, _scaled_out, gamma_array, laplacian_array

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
SWEEP_ENTRIES = 2**24  # about the slacks one chunk of a sweep's functions holds (see _sweep)
JENSEN_SAMPLES = 100  # random functions on which finiteness_probe samples the Jensen step
_MAX_EXPONENT = math.log(np.finfo(float).max)  # largest 2|K|t with e^{2|K|t} finite


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
    to its verdict tolerance (slack, tolerance, function_id, t, x), the
    earliest in (function, t, vertex) order among exact ties; a triple
    fails that estimate when slack < -tolerance.  ``_sweep`` reduces all
    of it in one pass over its chunks of functions.  Where triples tie only
    to rounding, another chunk width may name another of them.
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


def _gradient_integral(h: HeatOperator, K: float, lap_F: np.ndarray, times: Sequence[float]) -> np.ndarray:
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
    integrals: np.ndarray | None = None,
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

    The terms see f only through Gamma, Delta and P_t f^2 - (P_t f)^2, which
    a constant on a component leaves unchanged, so the slacks are taken on
    f less its m-weighted mean on each component, formed once from the
    kernel modes column by column (a BLAS product's rounding would depend on
    the chunk width).  Its P_t drops the kernel modes, whose rounding would
    swamp the exponentially small fluctuations once the e^{2Kt}-sized
    coefficients amplify it.  At finite n, P_t Delta f is Delta P_t f; at
    n = infinity every term that holds it is 0.  ``integrals``, (T,N,B),
    are the integrals of (ii) when the caller has them (``_sweep`` computes
    them for its whole corpus); without them they are computed here, from
    Delta f of the columns as given.
    """
    inv_n = 0.0 if math.isinf(n) else 1.0 / n
    if inv_n and integrals is None:
        integrals = _gradient_integral(h, K, laplacian_array(g, F), times)
    weighted = np.multiply(F.T, h.measure_half, order="C")  # each column's sum runs along a contiguous row
    fluctuation = F.copy()
    for u in h.eigenbasis[:, h.kernel_modes].T:
        fluctuation -= (u / h.measure_half)[:, None] * np.sum(weighted * u, axis=1)
    pt_F = h._apply(times, fluctuation, keep_kernel=False)
    pt_gam_F = h._apply(times, gamma_array(g, fluctuation, fluctuation), keep_kernel=True)
    pt_sq_F = h._apply(times, fluctuation * fluctuation, keep_kernel=True)

    f_sq = np.max(np.abs(F), axis=0, initial=0.0) ** 2
    gradient_floor = f_sq * float(np.max(g.weighted_degrees, initial=0.0))
    floors = (gradient_floor, gradient_floor, f_sq, f_sq)
    slacks = np.empty((4, F.shape[1], len(times), g.num_vertices))
    scale = np.empty((4, F.shape[1], len(times)))
    for k, (t, ptF, pt_gam, pt_sq) in enumerate(zip(times, pt_F, pt_gam_F, pt_sq_F)):
        gam_ptF = gamma_array(g, ptF, ptF)
        variance = pt_sq - ptF * ptF
        integral, lap_ptF = (integrals[k], laplacian_array(g, ptF)) if inv_n else (0.0, 0.0)
        lap_sq = lap_ptF * lap_ptF

        # (e^{2Kt}-1)/K, (1-e^{-2Kt})/K, (e^{2Kt}-1-2Kt)/K^2, (e^{-2Kt}-1+2Kt)/K^2
        x = 2.0 * K * t
        ratio_plus, ratio_minus = 2.0 * t * _phi1(x), 2.0 * t * _phi1(-x)
        ratio2_plus, ratio2_minus = 4.0 * t * t * _phi2(x), 4.0 * t * t * _phi2(-x)
        heat_of_gradient = math.exp(x) * pt_gam
        terms = (
            (heat_of_gradient, -2.0 * inv_n * integral, -gam_ptF),
            (heat_of_gradient, -ratio_plus * inv_n * lap_sq, -gam_ptF),
            (ratio_plus * pt_gam, -ratio2_plus * inv_n * lap_sq, -variance),
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
    """The corpus as an (N,B) array; refuses it at its first function off g or negative."""
    for _, f in function_corpus:
        _check_nonnegative(g, f)
    if not function_corpus:
        return np.empty((g.num_vertices, 0))
    return np.stack([f.array for _, f in function_corpus], axis=1)


def _require_curvature(g: WeightedGraph, K: float) -> None:
    """Raise PreconditionError at the first vertex that the judge refutes CD(K, inf) at, on the normalized graph."""
    unit_K = _scaled_in(K, -2 * g._scale[2], "|K| / max Deg")
    holds = _each_vertex(g, lambda stack: _cd_holds(stack, unit_K, math.inf), np.empty(g.num_vertices, dtype=bool))
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
    all found by array reductions.  An empty corpus passes, with no report and a
    warning.  The corpus is stacked into one (N,B) array and swept in
    chunks of functions (see ``_sweep``), each written into the result.
    """
    n, times = _sweep_args(K, n, t_grid)
    F = _stack_corpus(g, function_corpus)
    return _sweep(g, K, n, times, tuple(fid for fid, _ in function_corpus), F, full=True)


def _sweep_args(K: float, n: float, t_grid: Sequence[float]) -> tuple[float, tuple[float, ...]]:
    """The checked dimension and t grid of a sweep; refuses an infinite K and e^{2|K|t} past a double."""
    n = _check_dimension(n)
    _check_K(K)
    times = tuple(float(t) for t in t_grid)
    _check_times(times)
    _check_exponent(K, max(times, default=0.0))
    return n, times


def _sweep(
    g: WeightedGraph,
    K: float,
    n: float,
    times: tuple[float, ...],
    function_ids: tuple[str, ...],
    F: np.ndarray,
    full: bool,
) -> tuple[SweepResult | None, SweepSummary]:
    """The sweep of the corpus F, (N,B) with one column per id, at the checked (n, times) of ``_sweep_args``.

    It runs on the normalized graph ``g._scale``, with K times 4^-c and t
    times 4^c; the slacks of (ii) and (iii) and their scales are mapped back
    by 4^c, and those of (iv) and (v) do not change.  The functions go in
    chunks of floor(SWEEP_ENTRIES / max(4 T N, nnz)) columns, at least one,
    nnz = 2E being the stored entries of ``csr``, so that a chunk's slacks and
    the per-entry arrays of its Gamma and Delta hold about SWEEP_ENTRIES
    entries each.  At finite n the integrals of (ii) are computed first, for
    the whole corpus, from Delta f formed chunk by chunk, so that the mode
    tensors are built once per sweep; they add T N B entries.  The summary is
    reduced in the same pass: the counts add up, the first counterexample
    comes from the first chunk that fails, and an estimate's worst entry is
    its lowest slack relative to its tolerance (0 where the tolerance is 0),
    replaced only by a strictly lower one, so among exact ties the earliest
    triple in (function, t, vertex) order is kept.  With ``full`` the chunks
    are written into one (4,B,T,N) ``SweepResult``; without it no such array
    is allocated.
    """
    unit, _, c = g._scale
    unit_K = _scaled_in(K, -2 * c, "|K| / max Deg")
    unit_times = tuple(_scaled_in(t, 2 * c, "t max Deg") for t in times)
    h = build_heat(unit)
    width = max(1, SWEEP_ENTRIES // max(1, 4 * len(times) * g.num_vertices, len(unit.csr.indices)))
    integrals = None
    if F.shape[1] and not math.isinf(n):
        lap_F = np.hstack([laplacian_array(unit, F[:, lo:lo + width]) for lo in range(0, F.shape[1], width)])
        integrals = _gradient_integral(h, unit_K, lap_F, unit_times)
    shape = (4, F.shape[1], len(times), g.num_vertices)
    if full:
        all_slacks, all_verdicts = np.empty(shape), np.empty(shape, dtype=bool)
    by_estimate, num_failures, first, worst, lowest = np.zeros(4, dtype=int), 0, None, {}, {}
    for lo in range(0, F.shape[1], width):
        cols = slice(lo, lo + width)
        slacks, scale = _slack_arrays(unit, h, unit_K, n, F[:, cols], unit_times,
                                      None if integrals is None else integrals[..., cols])
        for a in (slacks[:2], scale[:2]) if c else ():  # (ii) and (iii) move as Deg, in place
            _scaled_out(a, 2 * c, out=a)
        tol = REPORT_TOL * scale[..., None]
        verdicts = slacks >= -tol
        failed = ~verdicts.all(axis=0)
        by_estimate += [np.count_nonzero(~v) for v in verdicts]  # faster than one count over three axes
        num_failures += int(np.count_nonzero(failed))
        if first is None and num_failures:
            first = SweepResult(function_ids[cols], times, g.vertices, float(K), n, slacks,
                                verdicts)[int(np.argmax(failed))]
        if full:
            all_slacks[:, cols], all_verdicts[:, cols] = slacks, verdicts
        # the worst triple of an estimate is the one nearest to (or furthest
        # past) its own verdict threshold, which is the slack relative to tol
        relative = np.divide(slacks, tol, out=np.zeros_like(slacks), where=tol > 0)
        for k, name in enumerate(ESTIMATES):
            if not relative[k].size:  # no t or no vertex: nothing to rank
                break
            b, i, j = np.unravel_index(np.argmin(relative[k]), relative[k].shape)
            if name not in worst or relative[k, b, i, j] < lowest[name]:
                lowest[name] = relative[k, b, i, j]
                worst[name] = {"slack": float(slacks[k, b, i, j]), "tolerance": float(tol[k, b, i, 0]),
                               "function_id": function_ids[lo + b], "t": times[i], "x": g.vertices[j]}
        del slacks, scale, tol, verdicts, failed, relative  # before the next chunk's arrays are built
    summary = SweepSummary(
        passed=not num_failures, num_reports=math.prod(shape[1:]), num_failures=num_failures,
        first_counterexample=first, warning=None if function_ids else "empty function corpus",
        failures_by_estimate=dict(zip(ESTIMATES, by_estimate.tolist())), worst=worst)
    if not full:
        return None, summary
    return SweepResult(function_ids, times, g.vertices, float(K), n, all_slacks, all_verdicts), summary


def default_corpus(
    g: WeightedGraph,
    seed: int = 0,
    num_random: int = 20,
) -> list[tuple[str, GraphFunction]]:
    """Standard nonnegative test functions for sweeps.

    All vertex indicators, ``num_random`` uniform [0,1] random functions and
    the indicators smoothed by g's semigroup for SMOOTHING_TIME, a time in g's
    units (clipped at 0 against rounding), which probe the near-harmonic
    regime.  They are the columns of ``_corpus_array``, each wrapped as a
    ``GraphFunction``.
    """
    function_ids, F = _corpus_array(g, seed, num_random)
    return [(fid, GraphFunction(g, column)) for fid, column in zip(function_ids, F.T)]


def _corpus_array(g: WeightedGraph, seed: int, num_random: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of ``default_corpus`` and its functions as the columns of one (N,B) array."""
    if num_random < 0:
        raise ValueError(f"num_random must be nonnegative, got {num_random}")
    N, (unit, _, c) = g.num_vertices, g._scale
    # the sweep's own semigroup, that of the normalized graph, so the eigenbasis is factorized once
    (smoothed,) = build_heat(unit)._apply((math.ldexp(SMOOTHING_TIME, 2 * c),), np.eye(N), keep_kernel=True)
    # r draws of N in turn are the rows of one (r, N) draw
    random = np.random.default_rng(seed).uniform(0.0, 1.0, (num_random, N)).T
    columns = np.hstack((np.eye(N), random, np.maximum(smoothed, 0.0)))
    names = (*(f"indicator:{v}" for v in g.vertices), *(f"random:{i}" for i in range(num_random)),
             *(f"smoothed:{v}" for v in g.vertices))
    return names, columns


# -- Green's formula and the ellipticity norm -------------------------------


def green_check(
    g: WeightedGraph, f: GraphFunction, h: GraphFunction
) -> tuple[float, float, float]:
    """(<f, Delta h>_m, <Delta f, h>_m, -sum_x Gamma(f,h)(x) m(x)).

    On a finite graph the three agree: the m-weighted Laplacian is
    self-adjoint and its quadratic form is the summed carre du champ.  Each
    is 4^(a+c) times its value on the normalized graph ``g._scale``.
    """
    _check_graph_function(g, f)
    _check_graph_function(g, h, "h")
    unit, a, c = g._scale
    m = unit.measure_vector
    triple = (np.sum(f.array * laplacian_array(unit, h.array) * m),
              np.sum(laplacian_array(unit, f.array) * h.array * m),
              -np.sum(gamma_array(unit, f.array, h.array) * m))
    return tuple(float(_scaled_out(v, 2 * (a + c))) for v in triple)


def ec_norm_check(g: WeightedGraph) -> tuple[float, float]:
    """(ellipticity constant, adjacency operator norm l1(X,m) -> linf(X)).

    The norm is evaluated on vertex indicators: ||A 1_y||_inf / ||1_y||_1
    maximized over y.  Both numbers equal max b(x,y)/(m(x)m(y)), computed by
    independent routes, each 4^(c-a) times its value on the normalized graph.
    """
    unit, a, c = g._scale
    m, csr = unit.measure_vector, unit.csr
    # A 1_y has the entries b(x,y)/m(x) at the neighbours x of y: row y of the CSR
    column_max = csr.row_reduce(np.maximum, csr.weights / m.take(csr.indices))
    norm = np.max(column_max / m, initial=0.0)
    return tuple(float(_scaled_out(v, 2 * (c - a))) for v in (ellipticity_constant(unit).constant, norm))


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
    unit, _, c = g._scale
    max_gamma = float(_scaled_out(np.max(gamma_array(unit, eta, eta), initial=0.0), 2 * c))
    return CutoffResult(
        eta=GraphFunction(g, eta),
        target_set=frozenset(str(v) for v in S),
        epsilon=float(epsilon),
        max_gamma=max_gamma,
    )


def finiteness_probe(g: WeightedGraph, K: float, seed: int = 0) -> dict:
    """Quantify the cutoff/curvature obstruction to infinite measure.

    Under CD(K, infinity), K > 0, a cutoff with eta(x) = 1 and Gamma(eta) <= epsilon
    forces 1 <= sqrt(2 epsilon Deg(x)) / K: every epsilon below theta(x) = K^2 / (2 Deg(x))
    is a contradiction at x.  The report holds the columns ``vertices``, ``degree`` and
    ``epsilon_threshold`` (theta; inf where Deg = 0, where no epsilon is one) in vertex
    order, and ``min_epsilon_threshold``, the smallest theta and the first vertex that has
    it.  On a finite graph (finite measure is automatic) it also samples the Jensen step
    (Delta g)^2 <= 2 Deg(x) Gamma(g)(x) of the argument on JENSEN_SAMPLES random
    functions: ``jensen_max_violation`` is the largest (Delta g)^2 - 2 Deg Gamma(g) over
    them (0 if none is positive) and ``jensen_scale`` the largest (Delta g)^2 + 2 Deg Gamma(g),
    the scale to judge the violation against.
    """
    if not (0 < K < math.inf):
        raise ValueError(f"K must be positive and finite, got {K}")
    if not g.num_vertices:
        raise PreconditionError("finiteness probe requires a nonempty graph")
    if not is_connected(g):
        raise PreconditionError("finiteness probe requires a connected graph")
    _require_curvature(g, K)

    unit, _, c = g._scale
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, (g.num_vertices, JENSEN_SAMPLES))
    lap = laplacian_array(unit, samples)
    lap_sq, deg_gam = lap * lap, 2.0 * unit.weighted_degrees[:, None] * gamma_array(unit, samples, samples)
    jensen_violation, jensen_scale = (float(_scaled_out(np.max(v, initial=0.0), 4 * c))
                                      for v in (lap_sq - deg_gam, lap_sq + deg_gam))

    # theta = K (K / 2 Deg), inf where Deg = 0; K^2 would overflow before theta does
    deg = g.weighted_degrees
    threshold = K * np.divide(K, 2.0 * deg, out=np.full(g.num_vertices, math.inf), where=deg > 0)
    first = int(np.argmin(threshold))
    return {
        "curvature_bound": float(K),
        "total_measure": float(np.sum(g.measure_vector)),
        "jensen_max_violation": jensen_violation,
        "jensen_scale": jensen_scale,
        "vertices": g.vertices,
        "degree": deg,
        "epsilon_threshold": threshold,
        "min_epsilon_threshold": {"vertex": g.vertices[first], "epsilon_threshold": float(threshold[first])},
    }


# -- small-t Taylor coefficients ---------------------------------------------


def _relative(mismatch: float, scale: float) -> float:
    """mismatch / scale, with 0 / 0 = 0 (an all-zero check matches exactly)."""
    return mismatch / scale if scale > 0 else (0.0 if mismatch == 0 else math.inf)


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
    side.  The fit runs on the normalized graph ``g._scale``, with K times
    4^-c, and its coefficients of order k are mapped out by 4^(kc).  First
    and second order coefficients are fitted by Richardson extrapolation on
    the halving grid t_j = 0.1 / (u 2^j), j < 7, with the rate
    u = max(D, |K|) and D the largest weighted degree there (u = 1 when both
    vanish).  As lambda_max <= 2D, both lambda t_0 and 2|K| t_0 are at most
    0.2, so the fit sits at the same point of the expansion in any units and
    e^{+-2Kt} never overflows.  The report's ``scale`` holds
    ||f||_inf^2 u^k for each order k, the scale against which a coefficient
    mismatch of that order is judged, and ``relative_mismatch`` the largest
    |fitted - exact| / scale of each order over the three series.  It is
    taken on the normalized graph, where both orders are doubles, so it is
    the same in any units even where the coefficients of the second order,
    as max Deg^2, are not doubles in g's.  As D lies in [1, 4), only |K| / D can
    push the grid's t^2 out of the normal doubles; past that a
    PreconditionError names the ratio.
    """
    _check_nonnegative(g, f)
    _check_K(K)
    ix, (unit, _, c) = g.index(x), g._scale
    unit_K, top = _scaled_in(K, -2 * c, "|K| / max Deg"), float(np.max(unit.weighted_degrees, initial=0.0))
    rate = max(top, abs(unit_K)) or 1.0
    ts = [0.1 / rate / 2.0**j for j in range(7)]
    # the second-order fit divides by t^2: on subnormal t^2 it lost its bits, and from a rate of
    # about 1.2e159 on t^2 was 0 (a ZeroDivisionError), so the smallest t must square to a normal double
    if ts[-1] ** 2 < sys.float_info.min:
        raise PreconditionError(f"|K| / max Deg = {abs(unit_K) / top if top else math.inf:g} is too large for "
                                f"the Taylor fit, whose smallest t, 0.1 / (64 |K|), then squares below "
                                f"the normal doubles")

    farr = f.array
    gam_f = gamma_array(unit, farr, farr)
    lap_f = laplacian_array(unit, farr)
    lap_gam_f = laplacian_array(unit, gam_f)
    gam_f_lapf = gamma_array(unit, farr, lap_f)

    exact_c1 = 2.0 * float(gam_f[ix])
    exact_c2 = {
        "variance": float(lap_gam_f[ix] + 2.0 * gam_f_lapf[ix]),
        "heat_of_gradient": 2.0 * float(lap_gam_f[ix] + unit_K * gam_f[ix]),
        "gradient_of_heat": 2.0 * float(2.0 * gam_f_lapf[ix] - unit_K * gam_f[ix]),
    }

    h = build_heat(unit)
    series = {name: [] for name in exact_c2}
    applied = h._apply(ts, np.column_stack([farr * farr, farr, gam_f]), keep_kernel=True)
    for t, columns in zip(ts, applied):
        pt_sq, ptf, pt_gam = columns.T
        series["variance"].append(float(pt_sq[ix] - ptf[ix] ** 2))
        series["heat_of_gradient"].append(2.0 * t * _phi1(2.0 * unit_K * t) * float(pt_gam[ix]))
        series["gradient_of_heat"].append(
            2.0 * t * _phi1(-2.0 * unit_K * t) * float(gamma_array(unit, ptf, ptf)[ix]))

    f_sq = float(np.max(np.abs(farr), initial=0.0)) ** 2
    scale, orders = (f_sq * rate, f_sq * rate * rate), ("first_order", "second_order")

    def out(v: float, k: int) -> float:  # a coefficient of order k, in g's units
        return float(_scaled_out(v, 2 * k * c))

    report = {"vertex": x, "K": float(K), "scale": {o: out(s, k) for k, (o, s) in enumerate(zip(orders, scale), 1)}}
    # judged here, where both orders are doubles: in g's units the second order was -inf against a
    # scale of inf at weights x1e160, and 0 against 0 at x1e-200, a mismatch of nan or 0 either way
    mismatch = []
    for name, values in series.items():
        c1 = _richardson_limit([v / t for v, t in zip(values, ts)])
        c2 = _richardson_limit([(v - c1 * t) / (t * t) for v, t in zip(values, ts)])
        pairs = ((c1, exact_c1), (c2, exact_c2[name]))
        mismatch.append([_relative(abs(v - e), s) for (v, e), s in zip(pairs, scale)])
        report[name] = {o: {"fitted": out(v, k), "exact": out(e, k)}
                        for k, (o, (v, e)) in enumerate(zip(orders, pairs), 1)}
    report["relative_mismatch"] = dict(zip(orders, np.max(mismatch, axis=0).tolist()))  # a nan stays nan
    return report
