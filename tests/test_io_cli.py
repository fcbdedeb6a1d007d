import dataclasses
import functools
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_graph, scaled_weights
from graphcurv import (
    GraphFormatError,
    GraphFunction,
    WeightedGraph,
    default_corpus,
    estimate_sweep,
    generate,
    parse_graph,
    serialize_graph,
)
from graphcurv import cli, graph_io
from graphcurv.cli import _jsonify, run

EDGES = "a b 1.0\n"
MEASURES = "a 1\nb 1\n"


# -- parsing ---------------------------------------------------------------------


def test_parse_edge_list_single_edge():
    g = parse_graph(EDGES, MEASURES)
    assert g.vertices == ("a", "b")
    assert g.weight("a", "b") == 1.0 and g.weight("b", "a") == 1.0
    assert g.measure("a") == 1.0


def test_parse_edge_list_comments_and_blanks():
    g = parse_graph("# heading\n\na b 2.5  # trailing\n", "a 1\nb 2\n")
    assert g.weight("a", "b") == 2.5
    assert g.measure("b") == 2.0


def test_parse_duplicate_symmetric_edge_rejected():
    with pytest.raises(GraphFormatError, match="conflicting symmetric"):
        parse_graph("a b 1\nb a 2\n", MEASURES)


def test_parse_missing_measure_names_vertex():
    with pytest.raises(GraphFormatError, match="'c'"):
        parse_graph("a b 1\nb c 1\n", MEASURES)


def test_parse_edge_list_requires_measures():
    with pytest.raises(GraphFormatError, match="measure file"):
        parse_graph(EDGES)


def test_parse_bad_lines_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("a b 1\na b\n", MEASURES)
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("a b pi\n", MEASURES)


def test_parse_invalid_values_rejected_by_validation():
    with pytest.raises(GraphFormatError, match="nonpositive weight"):
        parse_graph("a b -1\n", MEASURES)
    with pytest.raises(GraphFormatError, match="nonpositive measure"):
        parse_graph("a b 1\n", "a 1\nb 0\n")


def test_parse_json_document():
    doc = {
        "format_version": 1,
        "vertices": [{"id": "a", "measure": 1.0}, {"id": "b", "measure": 2.0}],
        "edges": [{"u": "a", "v": "b", "weight": 0.5}],
    }
    g = parse_graph(json.dumps(doc))
    assert g.weight("a", "b") == 0.5 and g.measure("b") == 2.0


def test_parse_json_errors_carry_field():
    with pytest.raises(GraphFormatError, match="format_version"):
        parse_graph('{"format_version": 99, "vertices": [], "edges": []}')
    with pytest.raises(GraphFormatError, match="vertices\\[0\\]"):
        parse_graph('{"format_version": 1, "vertices": [{"id": "a"}], "edges": []}')
    with pytest.raises(GraphFormatError, match="edges\\[0\\]"):
        parse_graph(
            '{"format_version": 1, "vertices": [{"id": "a", "measure": 1}],'
            ' "edges": [{"u": "a"}]}'
        )
    with pytest.raises(GraphFormatError, match="JSON parse error"):
        parse_graph("{not json")


def test_parse_json_undeclared_endpoint_rejected():
    doc = {
        "format_version": 1,
        "vertices": [{"id": "a", "measure": 1.0}],
        "edges": [{"u": "a", "v": "zz", "weight": 1.0}],
    }
    with pytest.raises(GraphFormatError, match="undeclared endpoint"):
        parse_graph(json.dumps(doc))


def _doc(vertices, edges, version=1):
    return json.dumps({"format_version": version, "vertices": vertices, "edges": edges})


_ABC = [{"id": v, "measure": 1} for v in "abc"]
_AB = {"u": "a", "v": "b", "weight": 1}
_ABC_MEASURES = "a 1\nb 1\nc 1\n"


@pytest.mark.parametrize("text,measures,message", [
    ("{not json", None,
     "JSON parse error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (_doc([], [], version=2), None, "format_version: expected 1, got 2"),
    ('{"format_version": 1, "vertices": {}, "edges": []}', None, "vertices: expected a list"),
    ('{"format_version": 1, "vertices": [], "edges": null}', None, "edges: expected a list"),
    (_doc(["a"], []), None, "vertices[0]: expected an object with id and measure"),
    (_doc([{"id": 1, "measure": 1}], []), None, "vertices[0].id: expected a string"),
    (_doc(_ABC + [{"id": "b", "measure": 2}], []), None, "vertices[3]: duplicate vertex id 'b'"),
    (_doc([{"id": "a", "measure": "heavy"}], []), None, "vertices[0].measure: expected a number"),
    # only JSON numbers are numbers: not strings that float() reads, nor true
    (_doc([{"id": "a", "measure": "1.5"}], []), None, "vertices[0].measure: expected a number"),
    (_doc([{"id": "a", "measure": True}], []), None, "vertices[0].measure: expected a number"),
    (_doc(_ABC, [_AB, {"u": "b", "v": "c", "weight": " 3 "}]), None, "edges[1].weight: expected a number"),
    (_doc(_ABC, [_AB, {"u": "b", "v": "c", "weight": "1_0"}]), None, "edges[1].weight: expected a number"),
    (_doc(_ABC, [_AB, {"u": "b", "v": "c", "weight": True}]), None, "edges[1].weight: expected a number"),
    (_doc(_ABC, [_AB, {"u": "b", "v": "c", "weight": 10**400}]), None, "edges[1].weight: expected a number"),
    (_doc(_ABC, [_AB, 7]), None, "edges[1]: expected an object with u, v and weight"),
    (_doc(_ABC, [_AB, {"u": "a", "v": ["c"], "weight": 1}]), None, "edges[1]: endpoints must be strings"),
    (_doc(_ABC, [_AB, {"u": "b", "v": "c", "weight": None}]), None, "edges[1].weight: expected a number"),
    (_doc(_ABC, [_AB, {"u": "c", "v": "b", "weight": 1}, {"u": "b", "v": "a", "weight": 1}]), None,
     "edges[2]: conflicting symmetric entries for edge ('b', 'a')"),
    ("a b 1\n", None, "edge-list input requires a measure file"),
    ("a b 1\n", "a 1 2\n", "measures line 1: expected 'vertex measure'"),
    ("a b 1\n", "a 1\nb 2\na 3\n", "measures line 3: duplicate measure for 'a'"),
    ("a b 1\n", "a one\n", "measures line 1: bad measure 'one'"),
    ("a b 1\nb c\n", _ABC_MEASURES, "edges line 2: expected 'u v weight'"),
    ("a b 1\nb c one\n", _ABC_MEASURES, "edges line 2: bad weight 'one'"),
    ("a b 1\nb d 1\n", _ABC_MEASURES, "edges line 2: no measure declared for vertex 'd'"),
    ("a b 1\nb c 1\nc b 2\n", _ABC_MEASURES, "edges line 3: conflicting symmetric entries for ('c', 'b')"),
    # of two repeated pairs, the one repeated first in the file, not the first pair
    ("a b 1\nb c 1\nc b 1\nb a 1\n", _ABC_MEASURES,
     "edges line 3: conflicting symmetric entries for ('c', 'b')"),
    # two faults: the first in file order is reported, a repeated pair or not
    (_doc(_ABC, [_AB, {"u": "b", "v": "a", "weight": 1}, {"u": "a", "v": "c", "weight": "x"}]), None,
     "edges[1]: conflicting symmetric entries for edge ('b', 'a')"),
    (_doc(_ABC, [_AB, {"u": "a", "v": "c", "weight": "x"}, {"u": "b", "v": "a", "weight": 1}]), None,
     "edges[1].weight: expected a number"),
    ("a b 1\nb a 1\nb c x\n", _ABC_MEASURES, "edges line 2: conflicting symmetric entries for ('b', 'a')"),
    ("a b 1\nb c x\nb a 1\n", _ABC_MEASURES, "edges line 2: bad weight 'x'"),
    # line numbers count comment and blank lines, on the column pass and on the walk
    ("# header\na b 1\n\nb c 1  # note\nc b 2\n", _ABC_MEASURES,
     "edges line 5: conflicting symmetric entries for ('c', 'b')"),
    ("# header\na b 1\n\nb c 1  # note\nc b 2\na b c d\n", _ABC_MEASURES,
     "edges line 5: conflicting symmetric entries for ('c', 'b')"),
    ("a b 1\n", "# header\na 1\nb 2  # note\n\na 3\n", "measures line 5: duplicate measure for 'a'"),
    # float() reads "_" between digits and non-ASCII digits; a number column takes neither
    ("a b 1_0\n", "a 1\nb 1\n", "edges line 1: bad weight '1_0'"),
    ("a b 1\nb c \u0661\u0660\n", _ABC_MEASURES, "edges line 2: bad weight '\u0661\u0660'"),
    ("a b 1\n", "a 1\nb 1_5\n", "measures line 2: bad measure '1_5'"),
    ("a b 1\n", "a \u0661\nb 1\n", "measures line 1: bad measure '\u0661'"),
    # inf and NaN parse, and validation names them apart from zero and negative values
    ('{"format_version": 1, "vertices": [{"id": "a", "measure": 1e400}], "edges": []}', None,
     "invalid graph: non-finite measure at 'a'"),
    (_doc(_ABC, [{"u": "a", "v": "b", "weight": -1e400}]), None, "invalid graph: non-finite weight at ('a', 'b')"),
    ("a b nan\n", "a 0\nb inf\n",
     "invalid graph: non-finite weight at ('a', 'b'); nonpositive measure at 'a'; non-finite measure at 'b'"),
])
def test_parse_errors_are_pinned(text, measures, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text, measures)
    assert str(info.value) == message


def test_edge_list_vertex_ids_are_opaque():
    # only the number columns are checked: an id may hold "_" and non-ASCII characters
    g = parse_graph("a_1 \u0661 2\n", "a_1 1\n\u0661 3\n")
    assert g.vertices == ("a_1", "\u0661") and g.edge_arrays[2].tolist() == [2.0]
    assert g.measure_vector.tolist() == [1.0, 3.0]


@pytest.mark.parametrize(
    "family,size,profile",
    [("path", 5, "unit"), ("cycle", 6, "normalizing"), ("complete", 4, "unit"),
     ("star", 3, "normalizing"), ("hypercube", 3, "unit"), ("weighted_tree", 9, "unit")],
)
def test_round_trip_generated_graphs(family, size, profile):
    g = generate(family, size, profile, seed=5)
    assert parse_graph(serialize_graph(g)) == g


def _edge_list(g: WeightedGraph, comments: bool = False) -> tuple[str, str]:
    note = "  # entry\n" if comments else "\n"
    head = "# u v weight\n\n" if comments else ""
    edges = "".join(f"{u} {v} {w!r}{note}" for u, v, w in g.edges())
    measures = "".join(f"{x} {g.measure(x)!r}{note}" for x in g.vertices)
    return head + edges, head + measures


@pytest.mark.parametrize("family", ["path", "cycle", "complete", "star", "hypercube", "weighted_tree"])
@pytest.mark.parametrize("comments", [False, True], ids=["plain", "comments"])
def test_edge_list_round_trip_matches_the_json_path(family, comments, monkeypatch):
    g = generate(family, 5, "normalizing", seed=3)
    expected = parse_graph(serialize_graph(g))
    # well-formed files are read column by column: the line-by-line walk only names faults
    monkeypatch.setattr(graph_io, "_walk_edges", None)
    assert parse_graph(*_edge_list(g, comments)) == expected == g


def test_serialize_graph_is_one_compact_line():
    g = generate("hypercube", 3, "normalizing")
    text = serialize_graph(g)
    assert "\n" not in text
    assert json.loads(text) == json.loads(json.dumps(json.loads(text), indent=2))
    assert parse_graph(json.dumps(json.loads(text), indent=4)) == g


def test_round_trip_random_graphs():
    rng = np.random.default_rng(60)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 25)))
        assert parse_graph(serialize_graph(g)) == g


# -- CLI ----------------------------------------------------------------------------


@pytest.fixture()
def edge_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(generate("complete", 2)), encoding="utf-8")
    return str(path)


def _last_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_cli_curvature(edge_graph, capsys):
    code = run(["curvature", "--graph", edge_graph, "--dimension", "inf"])
    report = _last_json(capsys)
    assert code == 0
    assert report["command"] == "curvature"
    assert report["profile"]["global_curvature"] == pytest.approx(2.0, abs=1e-8)
    assert report["profile"]["per_vertex"][0]["dimension"] == "inf"


def test_cli_cd_check_exit_codes(edge_graph, capsys):
    assert run(["cd-check", "--graph", edge_graph, "--K", "2", "--dimension", "inf",
                "--vertex", "v0"]) == 0
    capsys.readouterr()
    code = run(["cd-check", "--graph", edge_graph, "--K", "2.1", "--dimension", "inf",
                "--vertex", "v0"])
    report = _last_json(capsys)
    assert code == 1
    assert report["holds"] is False
    assert report["smallest_eigenvalue"] == pytest.approx(-0.05, abs=1e-12)


def test_cli_verify_estimates_passes(edge_graph, capsys):
    code = run(["verify-estimates", "--graph", edge_graph, "--paper-K", "-2",
                "--dimension", "inf", "--t", "0.1,1,10"])
    report = _last_json(capsys)
    assert code == 0
    assert report["summary"]["passed"] is True
    assert report["summary"]["num_failures"] == 0


def test_cli_verify_estimates_detects_violation(edge_graph, capsys):
    code = run(["verify-estimates", "--graph", edge_graph, "--paper-K", "-2.5",
                "--dimension", "inf", "--t", "0.01,0.1,1"])
    report = _last_json(capsys)
    assert code == 1
    assert report["summary"]["first_counterexample"]["verdicts"]["iii"] is False


def test_cli_verify_estimates_default_schema(tmp_path, capsys):
    path = tmp_path / "cycle60.json"
    path.write_text(serialize_graph(generate("cycle", 60)), encoding="utf-8")
    code = run(["verify-estimates", "--graph", str(path), "--paper-K", "0",
                "--dimension", "inf", "--t", "0.1,1,10", "--seed", "1"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert len(out.encode()) < 16 * 1024  # no per-triple table by default
    assert list(report) == ["format_version", "command", "K", "dimension", "t_grid",
                            "corpus_size", "summary"]
    assert report["format_version"] == 4
    assert "quadrature_error_ii" not in out
    summary = report["summary"]
    assert list(summary) == ["passed", "num_reports", "num_failures", "first_counterexample",
                             "warning", "failures_by_estimate", "worst"]
    assert summary["num_reports"] == (2 * 60 + 20) * 3 * 60
    assert summary["failures_by_estimate"] == {"ii": 0, "iii": 0, "iv": 0, "v": 0}
    assert list(summary["worst"]) == ["ii", "iii", "iv", "v"]
    for entry in summary["worst"].values():
        assert list(entry) == ["slack", "tolerance", "function_id", "t", "x"]
        assert entry["slack"] >= -entry["tolerance"]
    # --full adds the table, which has no quadrature error column either
    assert run(["verify-estimates", "--graph", str(path), "--paper-K", "0",
                "--dimension", "4", "--t", "1", "--seed", "1", "--full"]) == 0
    out = capsys.readouterr().out
    assert list(json.loads(out)["table"]) == ["function_ids", "vertices", "slack_ii", "slack_iii",
                                              "slack_iv", "slack_v", "verdicts"]
    assert "quadrature_error_ii" not in out


def test_cli_verify_estimates_full_table_matches_sweep(tmp_path, capsys):
    g = generate("cycle", 5)
    path = tmp_path / "cycle5.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    code = run(["verify-estimates", "--graph", str(path), "--paper-K", "-2",
                "--dimension", "4", "--t", "0.1,1", "--seed", "3", "--num-random", "4",
                "--full"])
    table = _last_json(capsys)["table"]
    result, summary = estimate_sweep(g, -2.0, 4.0, [0.1, 1.0],
                                     default_corpus(g, seed=3, num_random=4))
    assert code == 1 and 0 < summary.num_failures < summary.num_reports
    assert table["function_ids"] == list(result.function_ids)
    assert table["vertices"] == list(result.vertices)
    for k, name in enumerate(("ii", "iii", "iv", "v")):
        assert np.array_equal(table[f"slack_{name}"], result.slacks[k])
    assert np.array_equal(table["verdicts"], result.verdicts)


@pytest.mark.parametrize("paper_k", ["60", "-60"])
def test_cli_verify_estimates_exponent_overflow(edge_graph, capsys, paper_k):
    # 2|K|t = 1200 overflows e^{2Kt} (K > 0) or e^{-2Kt} (K < 0)
    code = run(["verify-estimates", "--graph", edge_graph, "--paper-K", paper_k,
                "--dimension", "inf", "--t", "0.1,10"])
    report = _last_json(capsys)
    assert code == 1
    assert report["command"] == "verify-estimates"
    assert "overflow" in report["error"]


@pytest.mark.parametrize("argv", [
    ["verify-estimates", "--paper-K", "0", "--dimension", "4", "--t", "inf"],
    ["verify-estimates", "--paper-K", "0", "--dimension", "4", "--t", "1,nan"],
    ["verify-estimates", "--paper-K", "nan", "--dimension", "4", "--t", "1"],
    ["verify-estimates", "--paper-K=-inf", "--t", "1"],
    ["verify-estimates", "--paper-K", "0", "--t", "1", "--num-random", "-3"],
    ["taylor-check", "--vertex", "v0", "--K", "nan"],
    ["heat", "--t", "nan"],
    ["heat", "--t", "inf"],
    ["cutoff", "--target", "v0", "--epsilon", "nan"],
    ["cutoff", "--target", "v0", "--epsilon", "inf"],
    ["cd-check", "--K", "nan", "--vertex", "v0"],
    ["finiteness", "--K", "inf", "--epsilons", "0.1"],
    ["finiteness", "--K", "nan", "--epsilons", "0.1"],
    ["heat", "--t", "1", "--constant", "nan"],
    ["heat", "--t", "1", "--constant", "inf"],
    ["finiteness", "--K", "1", "--epsilons", "nan"],
    ["finiteness", "--K", "1", "--epsilons", "-1"],
], ids=" ".join)
def test_cli_non_finite_numbers_are_input_errors(edge_graph, capsys, argv):
    code = run([argv[0], "--graph", edge_graph, *argv[1:]])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["command"] == argv[0]
    assert "finite" in report["error"] or "nonnegative" in report["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-estimates", "--paper-K", "0", "--t", ","],
    ["heat", "--t", ","],
    ["finiteness", "--K", "1", "--epsilons", ","],
    ["heat", "--t", "1", "--dirichlet", ""],
    ["heat", "--t", "1", "--dirichlet", ","],
    ["cutoff", "--target", "v0", "--epsilon", "0.5", "--universe", ""],
    ["cutoff", "--epsilon", "0.5", "--target", ""],
], ids=" ".join)
def test_cli_empty_grids_are_input_errors(edge_graph, capsys, argv):
    # a list flag without an entry is refused, not read as its default
    code = run([argv[0], "--graph", edge_graph, *argv[1:]])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["command"] == argv[0]
    flag, raw = argv[-2:]
    kind = "vertex id" if flag in ("--dirichlet", "--target", "--universe") else "number"
    assert report["error"] == f"{flag}: expected at least one {kind}, got {raw!r}"
    assert "Traceback" not in captured.err


_EDGELESS = {
    "empty": WeightedGraph([], {}, {}),
    "one vertex": WeightedGraph(["v0"], {}, {"v0": 1.0}),
    "two isolated": WeightedGraph(["v0", "v1"], {}, {"v0": 1.0, "v1": 2.0}),
}


# exit codes on the empty graph, one vertex and two isolated vertices; generate reads no graph
@pytest.mark.parametrize("argv, codes", [
    (["validate"], (0, 0, 0)),
    (["curvature"], (0, 0, 0)),
    (["curvature", "--dimension", "4"], (0, 0, 0)),
    (["cd-check", "--K", "0", "--vertex", "v0"], (2, 0, 0)),
    (["heat", "--t", "0,1"], (0, 0, 0)),
    (["heat", "--t", "1", "--indicator", "v0", "--dirichlet", "v0"], (2, 0, 0)),
    (["verify-estimates", "--paper-K", "0", "--t", "1"], (0, 0, 0)),
    (["verify-estimates", "--paper-K", "0", "--dimension", "4", "--t", "1"], (0, 0, 0)),
    (["green-check"], (0, 0, 0)),
    (["ec-check"], (0, 0, 0)),
    (["cutoff", "--target", "v0", "--epsilon", "0.5"], (2, 0, 0)),
    (["finiteness", "--K", "1", "--epsilons", "0.5"], (2, 0, 1)),
    (["taylor-check", "--vertex", "v0"], (2, 0, 0)),
], ids=lambda a: " ".join(a) if isinstance(a, list) else "")
def test_cli_every_command_on_edgeless_graphs(tmp_path, capsys, argv, codes):
    for name, code in zip(_EDGELESS, codes):
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(_EDGELESS[name]), encoding="utf-8")
        assert run([argv[0], "--graph", str(path), *argv[1:]]) == code, name
        out = capsys.readouterr().out
        assert out.count("\n") == 1, name
        report = json.loads(out)
        assert report["command"] == argv[0]
        if code == 2:
            assert "v0" not in argv or report["error"] == "unknown vertex 'v0'"
        if name == "empty" and argv[0] == "verify-estimates":
            assert report["summary"]["num_reports"] == 0


# float() and int() read "_" between digits and non-ASCII digits; no number flag takes either
@pytest.mark.parametrize("argv,flag", [
    (["heat", "--t", "1_0"], "--t"),
    (["heat", "--t", "\u0661"], "--t"),
    (["verify-estimates", "--paper-K", "0", "--t", "0_1"], "--t"),
    (["finiteness", "--K", "1", "--epsilons", "0.1,0_2"], "--epsilons"),
    (["curvature", "--dimension", "4_0"], "--dimension"),
    (["cd-check", "--K", "1_0", "--vertex", "v0"], "--K"),
    (["cd-check", "--paper-K", "\u0661", "--vertex", "v0"], "--paper-K"),
    (["finiteness", "--K", "1_0", "--epsilons", "0.1"], "--K"),
    (["taylor-check", "--vertex", "v0", "--K", "0_5"], "--K"),
    (["heat", "--t", "1", "--constant", "1_0"], "--constant"),
    (["cutoff", "--target", "v0", "--epsilon", "0_5"], "--epsilon"),
    (["generate", "--family", "cycle", "--size", "1_0"], "--size"),
    (["generate", "--family", "cycle", "--size", "\u0664"], "--size"),
    (["green-check", "--seed", "1_0"], "--seed"),
    (["green-check", "--samples", "2_0"], "--samples"),
    (["verify-estimates", "--paper-K", "0", "--t", "1", "--num-random", "\u0662"], "--num-random"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else "")
def test_cli_number_flags_refuse_underscores_and_non_ascii_digits(edge_graph, capsys, argv, flag):
    graph = [] if argv[0] == "generate" else ["--graph", edge_graph]
    if flag in ("--t", "--epsilons", "--dimension"):  # read by the command: a JSON error report
        assert run([argv[0], *graph, *argv[1:]]) == 2
        assert _last_json(capsys)["error"].startswith(f"{flag}: expected")
    else:  # read by argparse: its usage error
        with pytest.raises(SystemExit) as exc:
            run([argv[0], *graph, *argv[1:]])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


def _jsonify_elementwise(obj):
    """The per-element conversion of an array, which the fast path must reproduce."""
    if isinstance(obj, list):
        return [_jsonify_elementwise(v) for v in obj]
    return _jsonify(obj)


@pytest.mark.parametrize("arr", [
    np.array([[0.1, -0.0, 1e-300], [2.5e300, -3.0, 7.0]]),
    np.array([1.0, np.inf, -np.inf, np.nan, -2.0]),
    np.array([[np.nan, 0.5], [np.inf, -np.inf]]),
    np.arange(6).reshape(2, 3),
    np.array([[True, False], [False, True]]),
    np.zeros((2, 0)),
], ids=["finite", "inf-nan", "inf-nan-2d", "int", "bool", "empty"])
def test_jsonify_array_fast_path_matches_elementwise(arr):
    got = _jsonify(arr)
    assert json.dumps(got, indent=2) == json.dumps(_jsonify_elementwise(arr.tolist()), indent=2)
    assert "Infinity" not in json.dumps(got) and "NaN" not in json.dumps(got)


def _jsonify_isinstance(obj):
    """The walk that tested every value against each container type before the scalars."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify_isinstance(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, GraphFunction):
        return _jsonify_isinstance(obj.as_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonify_isinstance(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify_isinstance(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonify_isinstance(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify_isinstance(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


_SCALARS = [0.1, -0.0, 2.5e300, math.inf, -math.inf, math.nan, np.float64(-0.0), np.float64(np.inf),
            np.float64(np.nan), np.float32(0.1), np.float32(-np.inf), np.int64(-7), True, False,
            None, 0, -3, 10**30, "inf", ""]


@pytest.mark.parametrize("value", _SCALARS, ids=repr)
def test_jsonify_scalar_first_matches_the_isinstance_walk(value):
    got = _jsonify(value)
    assert type(got) is type(_jsonify_isinstance(value)) and repr(got) == repr(_jsonify_isinstance(value))


def test_jsonify_numpy_bools_become_json_bools():
    # the isinstance walk passed them through, and json.dumps refused them
    for value in (np.bool_(True), np.bool_(False)):
        got = _jsonify(value)
        assert type(got) is bool and got == _jsonify_isinstance(value)


def test_jsonify_nested_payload_matches_the_isinstance_walk():
    g = generate("path", 3)
    payload = {"floats": _SCALARS, 1: (np.array([1.0, np.nan]), np.arange(3)), "set": {3, 1, 2},
               "f": GraphFunction(g, [0.5, -0.0, 2.0]), "nested": [{"x": [math.inf, (np.float32(2),)]}]}
    got = _jsonify(payload)
    assert json.dumps(got) == json.dumps(_jsonify_isinstance(payload))
    assert "Infinity" not in json.dumps(got) and "NaN" not in json.dumps(got)


def _jsonify_asdict(obj):
    """The walk that copied every dataclass with ``dataclasses.asdict`` first."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify_asdict(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify_asdict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify_asdict(v) for v in obj]
    return _jsonify(obj)


@pytest.mark.parametrize("argv", [
    ["curvature", "--dimension", "4"],
    ["verify-estimates", "--paper-K", "0", "--dimension", "4", "--t", "0.5,2", "--seed", "2",
     "--num-random", "3", "--full"],
], ids=["curvature", "verify-estimates-full"])
def test_cli_output_matches_the_asdict_walk(tmp_path, capsys, monkeypatch, argv):
    # the field walk must print what the deep-copying asdict walk printed
    path = _write_graph(tmp_path, random_connected_graph(np.random.default_rng(5), 8))
    argv = argv[:1] + ["--graph", path] + argv[1:]
    run(argv)
    fields = capsys.readouterr().out
    monkeypatch.setattr(cli, "_jsonify", _jsonify_asdict)
    run(argv)
    assert fields == capsys.readouterr().out


def test_cli_sign_flags_mutually_exclusive(edge_graph):
    with pytest.raises(SystemExit) as exc:
        run(["cd-check", "--graph", edge_graph, "--K", "1", "--paper-K", "-1",
             "--vertex", "v0"])
    assert exc.value.code == 2


def test_cli_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format_version": 1,
        "vertices": [{"id": "a", "measure": 0.0}, {"id": "b", "measure": 1.0}],
        "edges": [{"u": "a", "v": "b", "weight": 1.0}],
    }), encoding="utf-8")
    code = run(["validate", "--graph", str(bad)])
    report = _last_json(capsys)
    assert code == 1
    assert any("measure" in v for v in report["violations"])


def test_cli_validate_ok(edge_graph, capsys):
    assert run(["validate", "--graph", edge_graph]) == 0
    assert _last_json(capsys)["violations"] == []


@pytest.mark.parametrize("field,message", [
    ("measure", "vertices[0].measure: expected a number"),
    ("weight", "edges[0].weight: expected a number"),
])
def test_cli_validate_huge_integer_literal_exit_2(tmp_path, capsys, field, message):
    # float() of an integer literal beyond float range raises OverflowError
    huge = 10**400
    path = tmp_path / "huge.json"
    path.write_text(_doc([{"id": "a", "measure": huge if field == "measure" else 1}, {"id": "b", "measure": 1}],
                         [{"u": "a", "v": "b", "weight": huge if field == "weight" else 1}]), encoding="utf-8")
    assert run(["validate", "--graph", str(path)]) == 2
    assert _last_json(capsys)["error"] == message


def test_cli_heat_exclusive_flags_checked_before_the_semigroup(monkeypatch, edge_graph, capsys):
    # the pair is refused before the graph is factorized, also when
    # --dirichlet names a vertex the graph does not have
    def refused(*args, **kwargs):
        raise AssertionError("build_heat called")

    monkeypatch.setattr(cli, "build_heat", refused)
    assert run(["heat", "--graph", edge_graph, "--t", "1", "--indicator", "v0", "--constant", "2",
                "--dirichlet", "zz"]) == 2
    assert _last_json(capsys)["error"] == "--indicator and --constant are mutually exclusive"


def test_cli_input_error_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(["curvature", "--graph", missing]) == 2
    report = _last_json(capsys)
    assert "error" in report
    # verdict failures and input errors must use distinct exit codes
    bad = tmp_path / "dup.txt"
    bad.write_text("a b 1\nb a 2\n", encoding="utf-8")
    meas = tmp_path / "m.txt"
    meas.write_text("a 1\nb 1\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["curvature", "--graph", str(bad), "--measures", str(meas)]) == 2
    # an empty sample list must not pass vacuously
    good = tmp_path / "edge.txt"
    good.write_text("a b 1\n", encoding="utf-8")
    for samples in ("0", "-2"):
        capsys.readouterr()
        assert run(["green-check", "--graph", str(good), "--measures", str(meas),
                    "--samples", samples]) == 2
        assert "--samples" in _last_json(capsys)["error"]


@pytest.mark.parametrize("command", [
    ["curvature"],
    ["verify-estimates", "--paper-K", "0", "--t", "1"],
])
def test_cli_jobs_accepts_only_one(edge_graph, capsys, command):
    argv = [command[0], "--graph", edge_graph, *command[1:]]
    assert run(argv + ["--jobs", "1"]) == 0
    for jobs in ("0", "-3", "2"):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--jobs", jobs])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, factorizations", [
    (["verify-estimates", "--paper-K", "0", "--dimension", "4", "--t", "0.1,1"], [None]),
    (["taylor-check", "--vertex", "v0"], [None]),
    (["cutoff", "--target", "v0", "--epsilon", "0.5"], [None]),
    (["heat", "--t", "0.5,2", "--indicator", "v0"], []),
    (["heat", "--t", "0.5,2", "--indicator", "v0", "--dirichlet", "v0,v1,v2"], []),
])
def test_cli_factorizes_the_semigroup_once(monkeypatch, capsys, tmp_path, command, factorizations):
    # the estimates and the cutoff factorize the full graph once; heat
    # applies P_t by the Chebyshev expansion and factorizes nothing
    from graphcurv.heat import HeatOperator

    calls = []
    factorize = HeatOperator._spectrum.func

    def counted(h):
        calls.append(h.dirichlet_domain)
        return factorize(h)

    spectrum = functools.cached_property(counted)
    spectrum.__set_name__(HeatOperator, "_spectrum")
    monkeypatch.setattr(HeatOperator, "_spectrum", spectrum)
    path = tmp_path / "cycle6.json"
    path.write_text(serialize_graph(generate("cycle", 6)), encoding="utf-8")
    assert run([command[0], "--graph", str(path), *command[1:]]) == 0
    assert calls == factorizations


def test_cli_unknown_vertex_exit_2(edge_graph, capsys):
    assert run(["cd-check", "--graph", edge_graph, "--K", "1", "--vertex", "zz"]) == 2


def test_cli_generate_roundtrip(capsys):
    assert run(["generate", "--family", "hypercube", "--size", "2",
                "--measure-profile", "normalizing"]) == 0
    doc = _last_json(capsys)
    g = parse_graph(json.dumps(doc))
    assert g.num_vertices == 4
    assert all(g.measure(v) == 2.0 for v in g.vertices)


def test_cli_heat_dirichlet_mass(edge_graph, capsys):
    code = run(["heat", "--graph", edge_graph, "--t", "1", "--dirichlet", "v0"])
    report = _last_json(capsys)
    assert code == 0
    assert report["results"][0]["mass"]["v0"] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_cli_heat_constant_at_the_top_of_the_float_range(edge_graph, capsys):
    code = run(["heat", "--graph", edge_graph, "--t", "1", "--constant", "1e308"])
    report = _last_json(capsys)
    assert code == 0
    assert report["results"][0]["values"] == {"v0": pytest.approx(1e308, rel=1e-12),
                                              "v1": pytest.approx(1e308, rel=1e-12)}


def test_cli_cutoff_and_precondition(edge_graph, tmp_path, capsys):
    assert run(["cutoff", "--graph", edge_graph, "--target", "v0", "--epsilon", "1"]) == 0
    report = _last_json(capsys)
    assert report["max_gamma"] == 0.0 and report["bound_holds"] is True
    star = tmp_path / "star.json"
    star.write_text(serialize_graph(generate("star", 5)), encoding="utf-8")
    capsys.readouterr()
    code = run(["cutoff", "--graph", str(star), "--target", "c", "--epsilon", "1"])
    report = _last_json(capsys)
    assert code == 1 and "error" in report


def test_cli_green_ec_finiteness_taylor(edge_graph, capsys):
    assert run(["green-check", "--graph", edge_graph, "--samples", "5"]) == 0
    capsys.readouterr()
    assert run(["ec-check", "--graph", edge_graph]) == 0
    capsys.readouterr()
    assert run(["finiteness", "--graph", edge_graph, "--K", "2", "--epsilons", "0.5,2"]) == 0
    capsys.readouterr()
    assert run(["taylor-check", "--graph", edge_graph, "--vertex", "v0"]) == 0


def test_cli_consecutive_runs_print_what_each_prints_alone(tmp_path, capsys):
    # the parser is built once per process; no call may leave state behind for
    # the next, whatever its subcommand and exit code
    path = tmp_path / "cycle6.json"
    path.write_text(serialize_graph(generate("cycle", 6, "normalizing")), encoding="utf-8")
    g = str(path)
    commands = [
        ["generate", "--family", "star", "--size", "3"],
        ["validate", "--graph", g],
        ["curvature", "--graph", g, "--dimension", "4"],
        ["cd-check", "--graph", g, "--K", "0.5", "--vertex", "v1"],
        ["cd-check", "--graph", g, "--K", "1", "--vertex", "zz"],
        ["heat", "--graph", g, "--t", "0.5,2", "--dirichlet", "v0"],
        ["verify-estimates", "--graph", g, "--paper-K", "0", "--t", "0.5", "--seed", "3"],
        ["green-check", "--graph", g, "--samples", "3", "--seed", "3"],
        ["ec-check", "--graph", g],
        ["cutoff", "--graph", g, "--target", "v2", "--epsilon", "1"],
        ["finiteness", "--graph", g, "--K", "2", "--epsilons", "0.5"],
        ["taylor-check", "--graph", g, "--vertex", "v3"],
    ]

    def outputs(argvs, fresh_parser):
        out = []
        for argv in argvs:
            if fresh_parser:
                cli.build_parser.cache_clear()
            code = run(argv)
            out.append((code, *capsys.readouterr()))
        return out

    alone = outputs(commands, fresh_parser=True)
    assert {code for code, _, _ in alone} == {0, 1, 2}
    assert outputs(commands, fresh_parser=False) == alone
    assert outputs(commands[::-1], fresh_parser=False) == alone[::-1]


_SCALE_GRAPHS = {
    # name: (graph, its exact curvature at n = infinity, or None if negative)
    "edge": (lambda: generate("complete", 2), 2.0),
    "complete30": (lambda: generate("complete", 30), 16.0),
    "fuzzed100": (lambda: random_connected_graph(np.random.default_rng(3), 100, 0.05), None),
}


def _write_graph(tmp_path, g):
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("name", list(_SCALE_GRAPHS))
def test_cli_supporting_checks_pass_at_every_scale(tmp_path, capsys, name, c):
    # weights, K and epsilon times c; a fixed Taylor grid and absolute
    # tolerances failed taylor-check from x1e3 on (with an OverflowError at
    # x1e8) and finiteness on the edge at x1e3 and x1e8
    make, curvature = _SCALE_GRAPHS[name]
    g = scaled_weights(make(), c)
    path, x = _write_graph(tmp_path, g), g.vertices[0]
    commands = [
        ["green-check", "--graph", path, "--samples", "5"],
        ["ec-check", "--graph", path],
        ["taylor-check", "--graph", path, "--vertex", x, "--K", repr(0.5 * c)],
    ]
    if curvature is not None:
        commands += [
            ["cutoff", "--graph", path, "--target", x, "--epsilon", repr(0.5 * c)],
            ["finiteness", "--graph", path, "--K", repr(curvature * c),
             "--epsilons", ",".join(repr(e * c) for e in (0.05, 1.0))],
        ]
    for argv in commands:
        code = run(argv)
        report = _last_json(capsys)
        assert code == 0, (argv[0], report)
        if argv[0] == "finiteness":
            assert report["report"]["jensen_scale"] > 0.0


def test_cli_taylor_check_complete30_unit_weights(tmp_path, capsys):
    # the fixed grid t = 0.1 / 2^j left the small-t regime: mismatch 1.6e-4
    path = _write_graph(tmp_path, generate("complete", 30))
    assert run(["taylor-check", "--graph", path, "--vertex", "v0"]) == 0
    assert _last_json(capsys)["max_relative_mismatch"] <= 1e-8


def test_cli_taylor_check_large_K_shrinks_the_grid(edge_graph, capsys):
    # e^{2Kt} at t = 0.1 overflowed into an uncaught OverflowError; the grid
    # now starts at 0.1 / max(D, |K|), so 2|K|t stays at most 0.2
    code = run(["taylor-check", "--graph", edge_graph, "--vertex", "v0", "--K", "1e4"])
    report = _last_json(capsys)
    assert code == 0, report
    assert report["max_relative_mismatch"] <= 1e-8


@pytest.mark.parametrize("c", [1e-8, 1e-2])
def test_cli_taylor_check_default_K_on_a_light_graph(tmp_path, capsys, c):
    # the default --K 0.5 stays fixed while the weights shrink: a grid sized
    # from D alone put 2Kt at 1e7 (overflow) at x1e-8 and at 10, outside the
    # small-t regime, at x1e-2
    path = _write_graph(tmp_path, scaled_weights(generate("complete", 2), c))
    code = run(["taylor-check", "--graph", path, "--vertex", "v0"])
    report = _last_json(capsys)
    assert code == 0, report
    assert report["max_relative_mismatch"] <= 1e-8


def test_cli_isolated_vertex_reports_inf(tmp_path, capsys):
    # a 1e6 cap at the isolated vertex capped the global curvature as well
    g = scaled_weights(generate("complete", 30), 1e5)
    with_isolated = WeightedGraph([*g.vertices, "iso"], {(u, v): w for u, v, w in g.edges()},
                                  {"iso": 1.0, **{v: g.measure(v) for v in g.vertices}})
    path = _write_graph(tmp_path, with_isolated)
    assert run(["curvature", "--graph", path, "--dimension", "inf"]) == 0
    profile = _last_json(capsys)["profile"]
    assert profile["per_vertex"][-1]["vertex"] == "iso"
    assert profile["per_vertex"][-1]["curvature"] == "inf"
    assert profile["global_curvature"] == pytest.approx(1.6e6, rel=1e-9)


def test_cli_reports_deterministic_with_seed(edge_graph, capsys):
    args = ["verify-estimates", "--graph", edge_graph, "--paper-K", "-2",
            "--dimension", "4", "--t", "0.5", "--seed", "7"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


class _RecordingJson:
    """The json module, with each object given to ``dumps`` recorded."""

    def __init__(self):
        self.dumped = []

    def dumps(self, obj, **kwargs):
        self.dumped.append(obj)
        return json.dumps(obj, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.partition(" > ")[0])[1:] for line in block.strip().splitlines()]


def test_every_report_is_one_compact_json_line(tmp_path, capsys, monkeypatch):
    # the README's commands (its first is a generate), and an input-error report
    commands = _readme_commands() + [["curvature", "--graph", str(tmp_path / "missing.json")]]
    assert commands[0][0] == "generate" and len(commands) > 5
    monkeypatch.chdir(tmp_path)
    recorder = _RecordingJson()
    monkeypatch.setattr(cli, "json", recorder)
    monkeypatch.setattr(graph_io, "json", recorder)
    for argv in commands:
        recorder.dumped.clear()
        code = run(argv)
        out = capsys.readouterr().out
        if argv[0] == "generate":
            (tmp_path / "cube.json").write_text(out, encoding="utf-8")
        assert code == (2 if argv[-1].endswith("missing.json") else 0), argv
        assert out.endswith("\n") and out.count("\n") == 1, argv
        (payload,) = recorder.dumped
        assert json.loads(out) == json.loads(json.dumps(payload, indent=2)), argv
