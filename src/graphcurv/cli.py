"""Command-line interface.

Every command reads a graph (JSON document or edge list + measure file),
writes a versioned JSON report to standard output as one compact line and a
one-line summary to standard error.  Exit codes: 0 for success/pass, 1 for a verdict failure
(an estimate violated, a check mismatch, a failed precondition), 2 for
input errors.

``verify-estimates`` reports the sweep summary: failure counts overall and
per estimate, the first counterexample and the worst slack of each
estimate.  ``--full`` adds the columnar table of every (function, t,
vertex) triple, one nested list per array.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curvature import cd_check, curvature_profile
from .estimates import (
    ESTIMATES,
    PreconditionError,
    _corpus_array,
    _relative,
    _sweep,
    _sweep_args,
    build_cutoff,
    ec_norm_check,
    finiteness_probe,
    green_check,
    taylor_check,
)
from .graph_io import GraphFormatError, _floats, parse_graph, serialize_graph
from .graphs import GraphFunction, WeightedGraph, generate, validate
from .heat import build_heat, clamp_mass

# 2: verify-estimates reports a summary by default; the per-(function, t,
# vertex) results are a columnar table behind --full
# 3: estimate (ii) is exact, so quadrature_error_ii is gone from
# first_counterexample and the --full table
# 4: each heat result carries truncation_bound, the l2(m) bound of its
# Chebyshev expansion's truncation error relative to ||f||, rounding excluded
# 5: finiteness reports the threshold K^2 / (2 Deg) as columns and their
# minimum, not a per-(vertex, epsilon) table over a grid of epsilons
REPORT_FORMAT_VERSION = 5

# Each check compares a mismatch with one of these times a scale that moves
# with the units of the input: the reported values and the largest degree.
CHECK_TOL = 1e-10  # Green's triple, the cutoff bound and the Jensen step
EC_TOL = 1e-12  # ellipticity constant vs operator norm
TAYLOR_TOL = 1e-6  # fitted vs exact coefficients, per the scale taylor_check reports


def _jsonify(obj):
    """Make reports JSON-safe: inf -> strings, arrays -> lists, etc.

    A report is mostly Python floats, strings, ints and bools in plain dicts
    and lists, so those exact types are tested first.  numpy scalars are not
    exact floats and go through ``.item()``.
    """
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else _non_finite(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, GraphFunction):
        return _jsonify(obj.as_dict())
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonify(v) for v in obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()  # already JSON-safe: no inf or nan to rewrite
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return _non_finite(obj)
    return obj


def _non_finite(x: float) -> str:
    """The report's spelling of inf, -inf and nan."""
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _print_report(command: str, body: dict) -> None:
    """Print the report {format_version, command, **body} as one compact JSON line.

    Every report goes through here.  ``body`` is JSON-safe already
    (``_jsonify``), and ``json.dumps`` without ``indent`` runs the C encoder.
    """
    print(json.dumps({"format_version": REPORT_FORMAT_VERSION, "command": command, **body}))


def _emit(command: str, payload: dict, summary: str) -> None:
    _print_report(command, _jsonify(payload))
    print(summary, file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")  # parse_graph drops a leading byte order mark
    except FileNotFoundError:
        raise GraphFormatError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, a file without read permission
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}") from None


def _load_graph(args, require_valid: bool = True) -> WeightedGraph:
    text = _read(args.graph)
    measures = _read(args.measures) if getattr(args, "measures", None) else None
    return parse_graph(text, measures, require_valid=require_valid)


def _number(kind: type):
    """An argparse ``type``: ``kind`` of a token that ``graph_io._floats`` reads (ASCII, no ``_``)."""
    def read(token: str):
        if _floats([token]) is None:
            raise ValueError(token)
        return kind(token)

    read.__name__ = kind.__name__  # argparse's error names the type: "invalid float value"
    return read


def _parse_floats(raw: str, flag: str) -> list[float]:
    try:
        values = [_number(float)(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise GraphFormatError(f"{flag}: expected comma-separated numbers, got {raw!r}") from None
    if not values:
        raise GraphFormatError(f"{flag}: expected at least one number, got {raw!r}")
    return values


def _parse_dimension(raw: str) -> float:
    """The number of ``--dimension``; ``curvature._check_dimension`` refuses it where it is not positive."""
    try:
        return _number(float)(raw)
    except ValueError:
        raise GraphFormatError(f"--dimension: expected a number or 'inf', got {raw!r}") from None


def _split_ids(raw: str, flag: str) -> list[str]:
    ids = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not ids:
        raise GraphFormatError(f"{flag}: expected at least one vertex id, got {raw!r}")
    return ids


def _paper_k(args) -> float:
    """K in the CD(-K, n) orientation used by the estimate module."""
    return float(args.paper_K) if args.paper_K is not None else -float(args.K)


def _add_graph_flags(sp) -> None:
    sp.add_argument("--graph", required=True, help="graph file (JSON document or edge list)")
    sp.add_argument("--measures", help="measure file for edge-list input")


def _add_sign_flags(sp) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument(
        "--K", type=_number(float), default=None, help="curvature lower bound K in CD(K, n)"
    )
    grp.add_argument(
        "--paper-K",
        dest="paper_K",
        type=_number(float),
        default=None,
        help="the negated convention: CD(-K, n) holds with this K",
    )


def _add_jobs_stub(sp) -> None:
    # the benchmark workloads still pass --jobs 1; the commands run serially
    sp.add_argument("--jobs", type=int, default=1, choices=[1], help=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` does not change it."""
    p = argparse.ArgumentParser(
        prog="graphcurv",
        description="Bakry-Emery curvature and heat semigroup estimates on weighted graphs",
    )
    p.add_argument("--version", action="version", version=f"graphcurv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="report structural violations of a graph file")
    _add_graph_flags(sp)

    sp = sub.add_parser("generate", help="emit a generated test graph as a JSON document")
    sp.add_argument("--family", required=True,
                    choices=["path", "cycle", "complete", "star", "hypercube", "weighted_tree"])
    sp.add_argument("--size", type=_number(int), required=True)
    sp.add_argument("--measure-profile", dest="measure_profile", default="unit",
                    choices=["unit", "normalizing"])
    sp.add_argument("--seed", type=_number(int), default=0)

    sp = sub.add_parser("curvature", help="per-vertex curvature profile")
    _add_graph_flags(sp)
    sp.add_argument("--dimension", default="inf")
    _add_jobs_stub(sp)

    sp = sub.add_parser("cd-check", help="decide CD(K, n) at one vertex")
    _add_graph_flags(sp)
    _add_sign_flags(sp)
    sp.add_argument("--dimension", default="inf")
    sp.add_argument("--vertex", required=True)

    sp = sub.add_parser("heat", help="apply the heat semigroup")
    _add_graph_flags(sp)
    sp.add_argument("--t", required=True, help="comma-separated times")
    sp.add_argument("--dirichlet", help="comma-separated vertex subset for a Dirichlet restriction")
    sp.add_argument("--indicator", help="initial condition: indicator of this vertex")
    sp.add_argument("--constant", type=_number(float), default=None,
                    help="initial condition: constant value (default 1.0)")

    sp = sub.add_parser("verify-estimates",
                        help="check the gradient and variance estimates on a function corpus")
    _add_graph_flags(sp)
    _add_sign_flags(sp)
    sp.add_argument("--dimension", default="inf")
    sp.add_argument("--t", required=True, help="comma-separated times")
    sp.add_argument("--seed", type=_number(int), default=0)
    sp.add_argument("--num-random", dest="num_random", type=_number(int), default=20)
    _add_jobs_stub(sp)
    sp.add_argument("--full", action="store_true",
                    help="also emit the per-(function, t, vertex) slack table")

    sp = sub.add_parser("green-check", help="Green's formula triple on random functions")
    _add_graph_flags(sp)
    sp.add_argument("--seed", type=_number(int), default=0)
    sp.add_argument("--samples", type=_number(int), default=20)

    sp = sub.add_parser("ec-check", help="ellipticity constant vs adjacency operator norm")
    _add_graph_flags(sp)

    sp = sub.add_parser("cutoff", help="heat-kernel cutoff with a gradient bound")
    _add_graph_flags(sp)
    sp.add_argument("--target", required=True, help="comma-separated vertices where eta = 1")
    sp.add_argument("--epsilon", type=_number(float), required=True)
    sp.add_argument("--universe", help="comma-separated support of the heated indicator (default: all)")

    sp = sub.add_parser("finiteness", help="finite-measure thresholds under positive curvature")
    _add_graph_flags(sp)
    sp.add_argument("--K", type=_number(float), required=True)
    sp.add_argument("--seed", type=_number(int), default=0)

    sp = sub.add_parser("taylor-check", help="small-t expansion coefficients vs exact operators")
    _add_graph_flags(sp)
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--indicator", help="use the indicator of this vertex instead of a random f")
    sp.add_argument("--K", type=_number(float), default=0.5)
    sp.add_argument("--seed", type=_number(int), default=0)

    return p


# -- command bodies -----------------------------------------------------------


def _cmd_validate(args) -> int:
    g = _load_graph(args, require_valid=False)
    violations = validate(g)
    _emit("validate", {"violations": violations},
          "valid graph" if not violations else f"{len(violations)} violation(s)")
    return 0 if not violations else 1


def _cmd_generate(args) -> int:
    g = generate(args.family, args.size, args.measure_profile, seed=args.seed)
    print(serialize_graph(g))
    print(f"generated {args.family} graph with {g.num_vertices} vertices", file=sys.stderr)
    return 0


def _cmd_curvature(args) -> int:
    g = _load_graph(args)
    n = _parse_dimension(args.dimension)
    profile = curvature_profile(g, n)
    # the per-vertex objects of the report are built from the columns, each made JSON-safe once
    dimension = _jsonify(profile.dimension)
    columns = map(_jsonify, (profile.curvature, profile.converged, profile.bracket_width))
    per_vertex = [{"vertex": x, "dimension": dimension, "curvature": k, "converged": c, "bracket_width": w}
                  for x, k, c, w in zip(profile.vertices, *columns)]
    _print_report("curvature", {"profile": {"per_vertex": per_vertex,
                                            "global_curvature": _jsonify(profile.global_curvature)}})
    print(f"global curvature {profile.global_curvature:.9g} at dimension {args.dimension}", file=sys.stderr)
    return 0


def _cmd_cd_check(args) -> int:
    g = _load_graph(args)
    n = _parse_dimension(args.dimension)
    K = -_paper_k(args)
    holds, eig = cd_check(g, K, n, args.vertex)
    _emit("cd-check",
          {"vertex": args.vertex, "K": K, "dimension": n,
           "holds": holds, "smallest_eigenvalue": eig},
          f"CD({K:g}, {args.dimension}) at {args.vertex}: "
          f"{'holds' if holds else 'violated'} (smallest eigenvalue {eig:.6g})")
    return 0 if holds else 1


def _cmd_heat(args) -> int:
    if args.indicator is not None and args.constant is not None:
        raise GraphFormatError("--indicator and --constant are mutually exclusive")
    g = _load_graph(args)
    domain = _split_ids(args.dirichlet, "--dirichlet") if args.dirichlet is not None else None
    h = build_heat(g, dirichlet_domain=domain)
    if args.indicator is not None:
        f = GraphFunction.indicator(g, args.indicator)
        initial = f"indicator:{args.indicator}"
    else:
        f = GraphFunction.constant(g, 1.0 if args.constant is None else args.constant)
        initial = f"constant:{1.0 if args.constant is None else args.constant}"
    times = _parse_floats(args.t, "--t")
    if domain is None:
        expansion = h.expand(times, f.array[:, None])
        # P_t 1 is one number at every vertex of a full graph: the series at lambda = 0
        masses = [dict.fromkeys(g.vertices, m) for m in clamp_mass(np.array(h.full_mass(times))).tolist()]
        echo = None
    else:
        echo = sorted(h.dirichlet_domain)  # the operator's domain: sorted, no repeats
        where = np.fromiter(map(g.index, echo), np.intp, len(echo))
        expansion = h.expand(times, np.column_stack([f.array, np.ones(g.num_vertices)]))
        masses = [dict(zip(echo, clamp_mass(out[where, 1]).tolist())) for out, _ in expansion]
    # the report is built from the expansion's columns, each made JSON-safe once
    results = [{"t": t, "values": dict(zip(g.vertices, _jsonify(out[:, 0]))), "mass": mass,
                "truncation_bound": bound} for t, (out, bound), mass in zip(times, expansion, masses)]
    _print_report("heat", {"initial": initial, "dirichlet": echo, "results": results})
    print(f"applied semigroup at {len(results)} time(s)", file=sys.stderr)
    return 0


def _cmd_verify_estimates(args) -> int:
    g = _load_graph(args)
    K, t_grid = _paper_k(args), _parse_floats(args.t, "--t")
    n, times = _sweep_args(K, _parse_dimension(args.dimension), t_grid)  # before _corpus_array factorizes
    # the default corpus goes to the sweep as one array, with no GraphFunction per column
    function_ids, F = _corpus_array(g, args.seed, args.num_random)
    result, summary = _sweep(g, K, n, times, function_ids, F, full=args.full)
    payload = {"K": K, "dimension": n, "t_grid": t_grid, "corpus_size": len(function_ids),
               "summary": summary}
    if args.full:
        payload["table"] = {
            "function_ids": result.function_ids,
            "vertices": result.vertices,
            **{f"slack_{name}": a for name, a in zip(ESTIMATES, result.slacks)},
            "verdicts": result.verdicts,
        }
    _emit("verify-estimates", payload,
          f"{summary.num_reports} reports, {summary.num_failures} failure(s)")
    return 0 if summary.passed else 1


def _cmd_green_check(args) -> int:
    g = _load_graph(args)
    if args.samples < 1:
        raise GraphFormatError(f"--samples must be at least 1, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    triples = []
    for _ in range(args.samples):
        f = GraphFunction(g, rng.uniform(-1.0, 1.0, g.num_vertices))
        h = GraphFunction(g, rng.uniform(-1.0, 1.0, g.num_vertices))
        a, b, c = green_check(g, f, h)
        worst = max(worst, _relative(max(abs(a - b), abs(a - c)), max(abs(a), abs(b), abs(c))))
        triples.append([a, b, c])
    ok = worst <= CHECK_TOL
    _emit("green-check",
          {"samples": args.samples, "max_relative_mismatch": worst,
           "tolerance": CHECK_TOL, "passed": ok, "triples": triples},
          f"Green's formula mismatch {worst:.3g} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def _cmd_ec_check(args) -> int:
    g = _load_graph(args)
    constant, norm = ec_norm_check(g)
    ok = abs(constant - norm) <= EC_TOL * max(constant, norm)
    _emit("ec-check",
          {"ellipticity_constant": constant, "adjacency_operator_norm": norm,
           "passed": ok},
          f"C = {constant:.9g}, ||A|| = {norm:.9g} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def _cmd_cutoff(args) -> int:
    g = _load_graph(args)
    target = _split_ids(args.target, "--target")
    universe = _split_ids(args.universe, "--universe") if args.universe is not None else list(g.vertices)
    result = build_cutoff(g, target, args.epsilon, universe)
    ok = result.max_gamma <= args.epsilon * (1.0 + CHECK_TOL)
    _emit("cutoff",
          {"epsilon": result.epsilon, "target_set": result.target_set,
           "max_gamma": result.max_gamma, "bound_holds": ok,
           "eta": result.eta},
          f"max Gamma(eta) = {result.max_gamma:.6g} <= epsilon = {args.epsilon:g}: "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_finiteness(args) -> int:
    g = _load_graph(args)
    report = finiteness_probe(g, args.K, seed=args.seed)
    ok = report["jensen_max_violation"] <= CHECK_TOL * report["jensen_scale"]
    least = report["min_epsilon_threshold"]
    _emit("finiteness", {"report": report, "passed": ok},
          f"smallest epsilon threshold {least['epsilon_threshold']:.6g} at {least['vertex']}, "
          f"Jensen violation {report['jensen_max_violation']:.3g}")
    return 0 if ok else 1


def _cmd_taylor_check(args) -> int:
    g = _load_graph(args)
    if args.indicator is not None:
        f = GraphFunction.indicator(g, args.indicator)
    else:
        rng = np.random.default_rng(args.seed)
        f = GraphFunction(g, rng.uniform(0.0, 1.0, g.num_vertices))
    report = taylor_check(g, f, args.vertex, K=args.K)
    # the mismatches are unit-free, judged on the normalized graph where each order is a double
    worst = float(np.max(list(report["relative_mismatch"].values())))
    ok = worst <= TAYLOR_TOL
    _emit("taylor-check", {"report": report, "max_relative_mismatch": worst, "passed": ok},
          f"coefficient mismatch {worst:.3g} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "curvature": _cmd_curvature,
    "cd-check": _cmd_cd_check,
    "heat": _cmd_heat,
    "verify-estimates": _cmd_verify_estimates,
    "green-check": _cmd_green_check,
    "ec-check": _cmd_ec_check,
    "cutoff": _cmd_cutoff,
    "finiteness": _cmd_finiteness,
    "taylor-check": _cmd_taylor_check,
}


def run(argv: list[str] | None = None) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PreconditionError as exc:
        _print_report(args.command, {"error": str(exc)})
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, KeyError, ValueError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        _print_report(args.command, {"error": str(msg)})
        print(f"input error: {msg}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
