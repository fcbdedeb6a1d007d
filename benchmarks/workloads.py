"""Workload definitions: input graphs, one pass of CLI commands, and oracles.

Each workload is one closed-loop client: ``prepare`` writes the workload's
graph files and returns the commands of one pass, each paired with an
oracle that checks the command's JSON report.  The seed drives the fuzzed
graphs, the Dirichlet subset and ``verify-estimates --seed``; the program
under test receives only the generated graph files and its argv.

Why each workload exists is written down in README.md next to the same
table; keep the two in step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from graphcurv import WeightedGraph, cd_check, generate, serialize_graph

T_GRID = (0.1, 1.0, 10.0)
NUM_RANDOM = 20  # verify-estimates default corpus: N indicators + 20 random + N smoothed
CURVATURE_RTOL = 1e-6  # closed forms, relative to the largest weighted degree
MASS_TOL = 1e-9  # |P_t 1 - 1| on the full graph

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle for its report (None = pass)."""

    label: str
    argv: tuple[str, ...]
    check: Check


def fuzzed_graph(rng: np.random.Generator, n: int, num_edges: int) -> WeightedGraph:
    """Random spanning tree plus distinct random extra edges.

    Weights and measures are drawn uniformly from [0.1, 2], so the graph is
    connected and irregular in both.
    """
    names = [f"v{i}" for i in range(n)]
    weights: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        weights[(names[parent], names[i])] = float(rng.uniform(0.1, 2.0))
    while len(weights) < num_edges:
        i, j = sorted(int(k) for k in rng.integers(0, n, 2))
        if i != j and (names[i], names[j]) not in weights:
            weights[(names[i], names[j])] = float(rng.uniform(0.1, 2.0))
    measure = {v: float(rng.uniform(0.1, 2.0)) for v in names}
    return WeightedGraph(names, weights, measure)


# -- oracles -------------------------------------------------------------------


def _curvature_values(report: dict) -> tuple[list[float], float]:
    profile = report["profile"]
    return [float(r["curvature"]) for r in profile["per_vertex"]], float(profile["global_curvature"])


def _closed_form(g: WeightedGraph, expected: float) -> Check:
    def check(report: dict) -> str | None:
        tol = CURVATURE_RTOL * float(np.max(g.weighted_degrees))
        per_vertex, global_k = _curvature_values(report)
        if len(per_vertex) != g.num_vertices:
            return f"{len(per_vertex)} per-vertex results for {g.num_vertices} vertices"
        worst = max(abs(k - expected) for k in per_vertex + [global_k])
        if worst > tol:
            return f"curvature differs from the closed form {expected:g} by {worst:.3g}"
        return None

    return check


def _certified_profile(g: WeightedGraph, n: float) -> Check:
    def check(report: dict) -> str | None:
        profile = report["profile"]["per_vertex"]
        per_vertex, global_k = _curvature_values(report)
        if [r["vertex"] for r in profile] != list(g.vertices):
            return "per-vertex results do not cover the vertex set in order"
        if global_k != min(per_vertex):
            return f"global curvature {global_k!r} is not the per-vertex minimum"
        if not all(r["converged"] for r in profile):
            return "a vertex did not converge"
        for x, k in zip(g.vertices, per_vertex):
            if not cd_check(g, k, n, x)[0]:
                return f"CD({k!r}, {n}) fails at {x}, where it was reported"
        return None

    return check


def _estimates(num_vertices: int) -> Check:
    expected = (2 * num_vertices + NUM_RANDOM) * len(T_GRID) * num_vertices

    def check(report: dict) -> str | None:
        summary = report["summary"]
        if summary["num_failures"] != 0:
            return f"{summary['num_failures']} estimate failure(s)"
        if summary["num_reports"] != expected:
            return f"{summary['num_reports']} reports, expected {expected}"
        return None

    return check


def _passed(report: dict) -> str | None:
    return None if report.get("passed") is True else "check did not pass"


def _no_violations(report: dict) -> str | None:
    return None if report.get("violations") == [] else f"violations: {report.get('violations')!r}"


def _heat_mass(num_domain: int, conserved: bool) -> Check:
    def check(report: dict) -> str | None:
        (result,) = report["results"]
        mass = [float(v) for v in result["mass"].values()]
        if len(mass) != num_domain:
            return f"{len(mass)} mass values, expected {num_domain}"
        if conserved:
            worst = max(abs(v - 1.0) for v in mass)
            if worst > MASS_TOL:
                return f"full-graph heat mass differs from 1 by {worst:.3g}"
        elif not all(0.0 <= v <= 1.0 for v in mass):
            return "Dirichlet heat mass outside [0, 1]"
        return None

    return check


# -- workloads -----------------------------------------------------------------


def _write(directory: Path, name: str, g: WeightedGraph) -> str:
    path = directory / f"{name}.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


def _curvature_mix(rng: np.random.Generator, directory: Path, seed: int) -> list[Command]:
    n = 100
    non_tree_pairs = n * (n - 1) // 2 - (n - 1)
    fuzzed = fuzzed_graph(rng, n, (n - 1) + round(0.05 * non_tree_pairs))
    cases = [
        ("cycle300", generate("cycle", 300), "4", _closed_form, 0.0),
        ("hypercube7", generate("hypercube", 7), "inf", _closed_form, 2.0),
        ("complete60", generate("complete", 60), "inf", _closed_form, 1.0 + 60 / 2),
    ]
    commands = [
        Command(f"curvature {name} n={dim}",
                ("curvature", "--graph", _write(directory, name, g), "--dimension", dim, "--jobs", "1"),
                oracle(g, expected))
        for name, g, dim, oracle, expected in cases
    ]
    commands.append(Command(
        "curvature fuzzed100 n=inf",
        ("curvature", "--graph", _write(directory, "fuzzed100", fuzzed), "--dimension", "inf",
         "--jobs", "1"),
        _certified_profile(fuzzed, math.inf),
    ))
    return commands


def _verify(directory: Path, seed: int, name: str, g: WeightedGraph, paper_k: str,
            dim: str) -> Command:
    return Command(
        f"verify-estimates {name} n={dim} K={paper_k}",
        ("verify-estimates", "--graph", _write(directory, name, g), "--paper-K", paper_k,
         "--dimension", dim, "--t", ",".join(f"{t:g}" for t in T_GRID), "--seed", str(seed),
         "--num-random", str(NUM_RANDOM), "--jobs", "1"),
        _estimates(g.num_vertices),
    )


def _estimates_sweep(rng: np.random.Generator, directory: Path, seed: int) -> list[Command]:
    return [
        _verify(directory, seed, "cycle60", generate("cycle", 60), "0", "inf"),
        _verify(directory, seed, "hypercube5", generate("hypercube", 5), "0", "inf"),
    ]


def _estimates_dimensional(rng: np.random.Generator, directory: Path, seed: int) -> list[Command]:
    return [
        _verify(directory, seed, "hypercube5", generate("hypercube", 5), "0.5", "4"),
        _verify(directory, seed, "cycle20", generate("cycle", 20), "0", "4"),
    ]


def _large_graph(rng: np.random.Generator, directory: Path, seed: int) -> list[Command]:
    n = 2000
    g = fuzzed_graph(rng, n, 6000)
    path = _write(directory, "fuzzed2000", g)
    # half of the vertices, always including the heat source v0
    others = rng.permutation(np.arange(1, n))[: n // 2 - 1]
    domain = ["v0"] + [f"v{i}" for i in sorted(int(i) for i in others)]
    heat = ("heat", "--graph", path, "--t", "1", "--indicator", "v0")
    return [
        Command("validate fuzzed2000", ("validate", "--graph", path), _no_violations),
        Command("ec-check fuzzed2000", ("ec-check", "--graph", path), _passed),
        Command("green-check fuzzed2000", ("green-check", "--graph", path, "--seed", str(seed)),
                _passed),
        Command("heat fuzzed2000", heat, _heat_mass(n, conserved=True)),
        Command("heat fuzzed2000 dirichlet", heat + ("--dirichlet", ",".join(domain)),
                _heat_mass(len(domain), conserved=False)),
    ]


WORKLOADS: dict[str, Callable[[np.random.Generator, Path, int], list[Command]]] = {
    "curvature_mix": _curvature_mix,
    "estimates_sweep": _estimates_sweep,
    "estimates_dimensional": _estimates_dimensional,
    "large_graph": _large_graph,
}


def prepare(workload: str, seed: int, directory: Path) -> list[Command]:
    """Generate and serialize the workload's graphs; return one pass of commands."""
    return WORKLOADS[workload](np.random.default_rng(seed), directory, seed)
