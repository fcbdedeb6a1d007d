"""Every command under a change of units by a power of four, against the unit graph.

CD(K, n) is homogeneous: weights times c turn CD(K, n) into CD(c K, n), and
weights and measures times c together change nothing.  The package computes
on the graph normalized by powers of four and maps K, t and epsilon in and
its results out by powers of four, which are exact, so each number of each
report must move by exactly its power of 4^j, bit for bit.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from graphcurv import WeightedGraph, estimates, generate, serialize_graph
from graphcurv.cli import run

FAMILIES = [generate(family, size, profile) for family, size in
            (("path", 6), ("cycle", 7), ("complete", 6), ("star", 5), ("hypercube", 3), ("weighted_tree", 8))
            for profile in ("unit", "normalizing")] + [random_connected_graph(np.random.default_rng(61), 8)]

ONE = {"K", "curvature", "bracket_width", "global_curvature", "slack_ii", "slack_iii", "triples",
       "ellipticity_constant", "adjacency_operator_norm", "epsilon", "max_gamma", "curvature_bound",
       "degree", "epsilon_threshold"}
TWO = {"smallest_eigenvalue", "jensen_max_violation", "jensen_scale", "second_order"}


def _power(keys: tuple[str, ...]) -> int:
    """The power of 4^j by which the number at ``keys`` moves when the weights move by 4^j."""
    if "relative_mismatch" in keys:
        return 0
    if TWO & set(keys):
        return 2
    if keys[-1] in ("t", "t_grid"):
        return -1
    if keys[-1] in ("slack", "tolerance"):
        return int(keys[-2:-1] in (("ii",), ("iii",)))
    return int(bool(ONE & set(keys)) or "first_order" in keys)


def _leaves(report, keys=()):
    """(keys, value) of each leaf of a JSON report, list positions left out of the keys."""
    if isinstance(report, dict):
        for k, v in report.items():
            yield from _leaves(v, keys + (k,))
    elif isinstance(report, list):
        for v in report:
            yield from _leaves(v, keys)
    else:
        yield keys, report


def _commands(g: WeightedGraph, j: int) -> list[list[str]]:
    """Each command on g, with K and epsilon times 4^j and t times 4^-j."""
    x, half = g.vertices[0], ",".join(g.vertices[::2])
    k, t = (lambda v: repr(math.ldexp(v, 2 * j))), (lambda *ts: ",".join(repr(math.ldexp(v, -2 * j)) for v in ts))
    return [["validate"], ["curvature"], ["curvature", "--dimension", "4"],
            ["cd-check", f"--K={k(0.5)}", "--vertex", x], ["cd-check", f"--K={k(-1.0)}", "--vertex", x,
                                                          "--dimension", "2"],
            ["heat", "--t", t(0.1, 1.0), "--indicator", x], ["heat", "--t", t(0.5), "--dirichlet", half],
            *(["verify-estimates", f"--paper-K={k(K)}", "--t", t(0.1, 1.0), "--dimension", n, "--num-random", "2"]
              for K in (1.0, -5.0) for n in ("inf", "4")),
            ["green-check", "--samples", "3"], ["ec-check"], ["cutoff", "--target", x, "--epsilon", k(0.5)],
            ["finiteness", "--K", k(0.5)], ["taylor-check", "--vertex", x, "--K", k(0.5)]]


def _reports(g: WeightedGraph, j: int, directory: str) -> list[tuple[int, str]]:
    """(exit code, stdout) of each of ``_commands(g, j)``; the default corpus smooths for SMOOTHING_TIME 4^-j."""
    path = Path(directory) / "g.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    out = []
    for argv in _commands(g, j):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), mock.patch.object(
                estimates, "SMOOTHING_TIME", math.ldexp(estimates.SMOOTHING_TIME, -2 * j)):
            code = run([argv[0], "--graph", str(path), *argv[1:]])
        out.append((code, stdout.getvalue()))
    return out


def _scaled(g: WeightedGraph, j: int, measure: bool) -> WeightedGraph:
    iu, iv, w = g.edge_arrays
    m = g.measure_vector
    return WeightedGraph.from_arrays(g.vertices, iu, iv, np.ldexp(w, 2 * j), np.ldexp(m, 2 * j) if measure else m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(g=st.sampled_from(FAMILIES), j=st.sampled_from([-200, -7, 7, 200]))
def test_every_report_moves_by_its_power_of_four(g, j):
    # weights times 4^j, with K and epsilon times 4^j and t (SMOOTHING_TIME too) times 4^-j: each number of
    # each report is the unit graph's times its power of 4^j.  A refusal names
    # numbers in the graph's units, so only its exit code and its being one are compared
    with tempfile.TemporaryDirectory() as d:
        unit, scaled = _reports(g, 0, d), _reports(_scaled(g, j, measure=False), j, d)
    for argv, (code, out), (scaled_code, scaled_out) in zip(_commands(g, 0), unit, scaled):
        report, moved = json.loads(out), json.loads(scaled_out)
        assert code == scaled_code and ("error" in report) == ("error" in moved), argv
        if "error" in report:
            continue
        pairs = list(zip(_leaves(report), _leaves(moved)))
        assert len(pairs) == len(list(_leaves(moved))), argv
        for (keys, a), (_, b) in pairs:
            expected = math.ldexp(a, 2 * j * _power(keys)) if type(a) is float else a
            assert b == expected, (argv, keys, a, b)


# the numbers that carry the measure's units: each moves by this power of 4^j when the
# weights and the measure both move by 4^j
_MEASURE_POWERS = {"triples": 1, "ellipticity_constant": -1, "adjacency_operator_norm": -1, "total_measure": 1}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(g=st.sampled_from(FAMILIES), j=st.sampled_from([-200, -7, 7, 200]))
def test_weights_and_measures_together_change_no_report(g, j):
    # every command prints the same bytes, but for the three sums and ratios of the
    # measure in green-check, ec-check and finiteness, which move by their powers of 4^j
    with tempfile.TemporaryDirectory() as d:
        unit, scaled = _reports(g, 0, d), _reports(_scaled(g, j, measure=True), 0, d)
    for argv, (code, out), (scaled_code, scaled_out) in zip(_commands(g, 0), unit, scaled):
        assert code == scaled_code, argv
        if argv[0] not in ("green-check", "ec-check", "finiteness"):
            assert scaled_out == out, argv
            continue
        for (keys, a), (_, b) in zip(_leaves(json.loads(out)), _leaves(json.loads(scaled_out))):
            power = next((p for k, p in _MEASURE_POWERS.items() if k in keys), 0)
            assert b == (math.ldexp(a, 2 * j * power) if type(a) is float else a), (argv, keys, a, b)
