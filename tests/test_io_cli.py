import base64
import dataclasses
import functools
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph, scaled_weights
from graphcurv import (
    GraphFormatError,
    GraphFunction,
    WeightedGraph,
    build_heat,
    default_corpus,
    estimate_sweep,
    generate,
    parse_graph,
    serialize_graph,
    taylor_check,
)
from graphcurv import cli, graph_io, graphs
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
    with pytest.raises(GraphFormatError, match=r"asymmetry at \('a', 'b'\)"):
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
    """The document of these vertex and edge entries; versions 2 and 3 hold them as columns.

    Version 3 writes each endpoint as the index of the last vertex with its id.
    """
    if version in (2, 3):
        vertices = {key: [e[key] for e in vertices] for key in ("id", "measure")}
        edges = {key: [e[key] for e in edges] for key in ("u", "v", "weight")}
    if version == 3:
        index = {x: i for i, x in enumerate(vertices["id"])}
        vertices["measure"] = _b64(vertices["measure"], "<f8")
        edges = {"u": _b64([index[x] for x in edges["u"]], "<i4"),
                 "v": _b64([index[x] for x in edges["v"]], "<i4"), "weight": _b64(edges["weight"], "<f8")}
    return json.dumps({"format_version": version, "vertices": vertices, "edges": edges})


def _b64(values, dtype):
    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode("ascii")


def _entries(text, version=1):
    """The version-1 (or 2) document of a version-3 one: its columns decoded and zipped into entries."""
    doc = json.loads(text)
    vertices, edges = doc["vertices"], doc["edges"]
    ids = vertices["id"]
    measure, u, v, weight = (np.frombuffer(base64.b64decode(table[key]), dtype).tolist() for table, key, dtype in (
        (vertices, "measure", "<f8"), (edges, "u", "<i4"), (edges, "v", "<i4"), (edges, "weight", "<f8")))
    return _doc([{"id": x, "measure": m} for x, m in zip(ids, measure)],
                [{"u": ids[i], "v": ids[j], "weight": w} for i, j, w in zip(u, v, weight)], version)


_ABC = [{"id": v, "measure": 1} for v in "abc"]
_AB = {"u": "a", "v": "b", "weight": 1}
_ABC_MEASURES = "a 1\nb 1\nc 1\n"

# faulty entries that both layouts can hold: entry k gets one message in either
_ENTRY_FAULTS = [
    ([{"id": 1, "measure": 1}], [], "vertices[0].id: expected a string"),
    (_ABC + [{"id": "b", "measure": 2}], [], "vertices[3]: duplicate vertex id 'b'"),
    ([{"id": "a", "measure": "heavy"}], [], "vertices[0].measure: expected a number"),
    # only JSON numbers are numbers: not strings that float() reads, nor true
    ([{"id": "a", "measure": "1.5"}], [], "vertices[0].measure: expected a number"),
    ([{"id": "a", "measure": True}], [], "vertices[0].measure: expected a number"),
    (_ABC, [_AB, {"u": "b", "v": "c", "weight": " 3 "}], "edges[1].weight: expected a number"),
    (_ABC, [_AB, {"u": "b", "v": "c", "weight": "1_0"}], "edges[1].weight: expected a number"),
    (_ABC, [_AB, {"u": "b", "v": "c", "weight": True}], "edges[1].weight: expected a number"),
    (_ABC, [_AB, {"u": "b", "v": "c", "weight": 10**400}], "edges[1].weight: expected a number"),
    (_ABC, [_AB, {"u": "a", "v": ["c"], "weight": 1}], "edges[1]: endpoints must be strings"),
    # hashable endpoints that are not strings: no declared id equals one, so the type check names it
    (_ABC, [_AB, {"u": 1, "v": "c", "weight": 1}], "edges[1]: endpoints must be strings"),
    (_ABC, [_AB, {"u": "b", "v": None, "weight": 1}], "edges[1]: endpoints must be strings"),
    (_ABC, [{"u": True, "v": "c", "weight": 1}, _AB], "edges[0]: endpoints must be strings"),
    (_ABC, [_AB, {"u": "b", "v": 1.5, "weight": 1}], "edges[1]: endpoints must be strings"),
    (_ABC + [{"id": "1", "measure": 1}], [_AB, {"u": 1, "v": "a", "weight": 1}],
     "edges[1]: endpoints must be strings"),
    (_ABC + [{"id": "1", "measure": 1}], [{"u": "a", "v": "zz", "weight": 1}, {"u": "1", "v": 1, "weight": 1}],
     "edges[1]: endpoints must be strings"),
    # a string endpoint that is not declared is validate's to name
    (_ABC + [{"id": "1", "measure": 1}], [_AB, {"u": "1", "v": "zz", "weight": 1}],
     "invalid graph: edge ('1', 'zz') has an undeclared endpoint"),
    (_ABC, [_AB, {"u": "b", "v": "c", "weight": None}], "edges[1].weight: expected a number"),
    (_ABC, [_AB, {"u": "c", "v": "b", "weight": 1}, {"u": "a", "v": "b", "weight": 1}],
     "edge ('a', 'b') is listed twice in one orientation"),
    # a faulty entry is reported before the pairs are checked
    (_ABC, [_AB, {"u": "a", "v": "b", "weight": 1}, {"u": "a", "v": "c", "weight": "x"}],
     "edges[2].weight: expected a number"),
    (_ABC, [_AB, {"u": "a", "v": "c", "weight": "x"}, {"u": "b", "v": "a", "weight": 1}],
     "edges[1].weight: expected a number"),
]
_V2_EDGES_AB = ', "edges": {"u": ["a"], "v": ["b"], "weight": [1]}}'


def _v3(ids, measure, u, v, weight):
    """A version-3 document; a numeric column given as a tuple is encoded, any other value is written as it is."""
    columns = [_b64(c, dtype) if isinstance(c, tuple) else c
               for c, dtype in zip((measure, u, v, weight), ("<f8", "<i4", "<i4", "<f8"))]
    return json.dumps({"format_version": 3, "vertices": {"id": ids, "measure": columns[0]},
                       "edges": dict(zip(("u", "v", "weight"), columns[1:]))})


# faults of a version-3 document: each names its column or entry
_V3_FAULTS = [
    *[(_doc(vertices, edges, 3), message) for vertices, edges, message in _ENTRY_FAULTS
      if message.startswith(("vertices[0].id", "vertices[3]: duplicate", "edge ('a', 'b') is listed"))],
    (_v3(["a", "b"], [1.0, 1.0], (0,), (1,), (1.0,)), "vertices.measure: expected a base64 string"),
    (_v3(["a", "b"], (1.0, 1.0), (0,), None, (1.0,)), "edges.v: expected a base64 string"),
    (_v3(["a", "b"], (1.0, 1.0), (0,), (1,), 1.0), "edges.weight: expected a base64 string"),
    (_v3(["a", "b"], (1.0, 1.0), "AAAA!AA=", (1,), (1.0,)), "edges.u: not valid base64"),
    (_v3(["a", "b"], (1.0, 1.0), (0,), (1,), "AAAAAAAAAA\u00e9="), "edges.weight: not valid base64"),
    (_v3(["a", "b"], (1.0, 1.0), (0,), (1,), "AAAAAAAAAA="), "edges.weight: not valid base64"),
    (_v3(["a", "b"], (1.0, 1.0), "AAAA", (1,), (1.0,)), "edges.u: 3 bytes is not a whole number of 4-byte entries"),
    (_v3(["a", "b"], "AAAAAAAAAAAA", (0,), (1,), (1.0,)),
     "vertices.measure: 9 bytes is not a whole number of 8-byte entries"),
    (_v3(["a", "b"], (1.0,), (0,), (1,), (1.0,)), "vertices: columns of unequal length (id 2, measure 1)"),
    (_v3(["a", "b"], (1.0, 1.0), (0, 1), (1,), (1.0, 1.0)), "edges: columns of unequal length (u 2, v 1, weight 2)"),
    (_v3("ab", (1.0, 1.0), (0,), (1,), (1.0,)), "vertices.id: expected a list"),
    (_v3(["a", "b", "c"], (1.0,) * 3, (0, 1), (1, -1), (1.0, 1.0)), "edges[1].v: vertex index -1 is outside [0, 3)"),
    (_v3(["a", "b", "c"], (1.0,) * 3, (0, 3), (1, 2), (1.0, 1.0)), "edges[1].u: vertex index 3 is outside [0, 3)"),
    # an index out of range is reported before the pairs are checked
    (_v3(["a", "b", "c"], (1.0,) * 3, (0, 0, 2), (1, 1, 7), (1.0,) * 3), "edges[2].v: vertex index 7 is outside [0, 3)"),
    (_v3(["a", "b", "c"], (1.0,) * 3, (0, 2, 1), (1, 7, 0), (1.0,) * 3), "edges[1].v: vertex index 7 is outside [0, 3)"),
    # NaN and values that are not positive are the validator's to name
    (_v3(["a", "b"], (1.0, math.nan), (0,), (1,), (1.0,)), "invalid graph: non-finite measure at 'b'"),
    (_v3(["a", "b"], (1.0, -0.0), (0,), (1,), (1.0,)), "invalid graph: nonpositive measure at 'b'"),
    (_v3(["a", "b"], (1.0, 1.0), (0,), (1,), (-math.inf,)), "invalid graph: non-finite weight at ('a', 'b')"),
    (_v3(["a", "b"], (1.0, 1.0), (0,), (1,), (0.0,)), "invalid graph: nonpositive weight at ('a', 'b')"),
]


@pytest.mark.parametrize("text,measures,message", [
    ("{not json", None,
     "JSON parse error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"format_version": 1, "vertices": {}, "edges": []}', None, "vertices: expected a list"),
    ('{"format_version": 1, "vertices": [], "edges": null}', None, "edges: expected a list"),
    (_doc([], [], version=4), None, "format_version: expected 1, 2 or 3, got 4"),
    # only a JSON integer is a version: not a bool, a float or a string that equals one
    (_doc([], [], version=True), None, "format_version: expected 1, 2 or 3, got True"),
    (_doc([], [], version=1.0), None, "format_version: expected 1, 2 or 3, got 1.0"),
    (_doc([], [], version=2.0), None, "format_version: expected 1, 2 or 3, got 2.0"),
    (_doc([], [], version="2"), None, "format_version: expected 1, 2 or 3, got '2'"),
    ('{"vertices": [], "edges": []}', None, "format_version: expected 1, 2 or 3, got None"),
    *[(_doc(vertices, edges, version), None, message)
      for version in (1, 2) for vertices, edges, message in _ENTRY_FAULTS],
    *[(text, None, message) for text, message in _V3_FAULTS],
    # faults that only the column layouts have: a table or a column of the wrong type, unequal columns
    ('{"format_version": 2, "vertices": [], "edges": []}', None, "vertices: expected an object of columns"),
    ('{"format_version": 2, "vertices": {"id": ["a"], "measure": 1}' + _V2_EDGES_AB, None,
     "vertices.measure: expected a list"),
    ('{"format_version": 2, "vertices": {"id": ["a", "b"], "measure": [1, 1]},'
     ' "edges": {"u": ["a"], "v": ["b"]}}', None, "edges.weight: expected a list"),
    ('{"format_version": 2, "vertices": {"id": ["a", "b"], "measure": [1]}' + _V2_EDGES_AB, None,
     "vertices: columns of unequal length (id 2, measure 1)"),
    ('{"format_version": 2, "vertices": {"id": ["a", "b"], "measure": [1, 1]},'
     ' "edges": {"u": ["a", "b"], "v": ["b"], "weight": [1, 1]}}', None,
     "edges: columns of unequal length (u 2, v 1, weight 2)"),
    (_doc(["a"], []), None, "vertices[0]: expected an object with id and measure"),
    (_doc(_ABC, [_AB, 7]), None, "edges[1]: expected an object with u, v and weight"),
    ("a b 1\n", None, "edge-list input requires a measure file"),
    ("a b 1\n", "a 1 2\n", "measures line 1: expected 'vertex measure'"),
    ("a b 1\n", "a 1\nb 2\na 3\n", "measures line 3: duplicate measure for 'a'"),
    ("a b 1\n", "a one\n", "measures line 1: bad measure 'one'"),
    ("a b 1\nb c\n", _ABC_MEASURES, "edges line 2: expected 'u v weight'"),
    ("a b 1\nb c one\n", _ABC_MEASURES, "edges line 2: bad weight 'one'"),
    ("a b 1\nb d 1\n", _ABC_MEASURES, "edges line 2: no measure declared for vertex 'd'"),
    ("a b 1\nb c 1\nc b 2\n", _ABC_MEASURES, "invalid graph: asymmetry at ('b', 'c')"),
    # of two pairs listed twice in one orientation, the one repeated first in the file, not the first pair
    ("a b 1\nb c 1\nb c 1\na b 1\n", _ABC_MEASURES, "edge ('b', 'c') is listed twice in one orientation"),
    ("a b 1\nb a 1\nb c x\n", _ABC_MEASURES, "edges line 3: bad weight 'x'"),
    ("a b 1\nb c x\nb a 1\n", _ABC_MEASURES, "edges line 2: bad weight 'x'"),
    # line numbers count comment and blank lines
    ("# header\na b 1\n\nb c 1  # note\nc b x\n", _ABC_MEASURES, "edges line 5: bad weight 'x'"),
    ("# header\na b 1\n\nb c 1  # note\nb c 1\na b c d\n", _ABC_MEASURES, "edges line 6: expected 'u v weight'"),
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
    ('{"format_version": 2, "vertices": {"id": ["a"], "measure": [1e400]},'
     ' "edges": {"u": [], "v": [], "weight": []}}', None, "invalid graph: non-finite measure at 'a'"),
    ('{"format_version": 2, "vertices": {"id": ["a", "b"], "measure": [1, 1]},'
     ' "edges": {"u": ["a"], "v": ["b"], "weight": [-1e400]}}', None,
     "invalid graph: non-finite weight at ('a', 'b')"),
    ("a b nan\n", "a 0\nb inf\n",
     "invalid graph: non-finite weight at ('a', 'b'); nonpositive measure at 'a'; non-finite measure at 'b'"),
])
def test_parse_errors_are_pinned(text, measures, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text, measures)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", _V3_FAULTS)
def test_cli_names_each_fault_of_a_binary_document(text, message, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    assert run(["curvature", "--graph", str(path)]) == 2
    assert _last_json(capsys) == {"format_version": 5, "command": "curvature", "error": message}


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
def test_round_trip_generated_graphs(family, size, profile, monkeypatch, tmp_path, capsys):
    g = generate(family, size, profile, seed=5)
    text = serialize_graph(g)
    assert json.loads(text)["format_version"] == 3
    assert parse_graph(_entries(text)) == g
    # the edges go in pair order, which the parser does not sort again
    monkeypatch.setattr(np, "lexsort", None)
    assert parse_graph(text) == g
    monkeypatch.undo()
    assert run(["generate", "--family", family, "--size", str(size), "--measure-profile", profile,
                "--seed", "5"]) == 0
    path = tmp_path / "g.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["validate", "--graph", str(path)]) == 0
    assert _last_json(capsys)["violations"] == []


def test_every_document_version_reads_as_one_graph(tmp_path, capsys):
    g = random_connected_graph(np.random.default_rng(41), 14)
    text = serialize_graph(g)
    outputs = []
    for version, document in ((1, _entries(text)), (2, _entries(text, 2)), (3, text)):
        assert json.loads(document)["format_version"] == version
        assert parse_graph(document) == g
        path = tmp_path / f"g{version}.json"
        path.write_text(document, encoding="utf-8")
        for argv in (["validate"], ["curvature"], ["heat", "--t", "0.5,2", "--indicator", "v3"]):
            assert run([argv[0], "--graph", str(path), *argv[1:]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0].count("\n") == 3


_LAYOUTS = ("v1", "v2", "v3", "edge list")


def _graph_files(tmp_path, measure, triples, layout):
    """The CLI arguments of a graph file in ``layout`` with the measures by id and the (u, v, w) triples."""
    if layout == "edge list":
        paths = tmp_path / "g.txt", tmp_path / "m.txt"
        paths[0].write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in triples), encoding="utf-8")
        paths[1].write_text("".join(f"{x} {m!r}\n" for x, m in measure.items()), encoding="utf-8")
        return ["--graph", str(paths[0]), "--measures", str(paths[1])]
    path = tmp_path / "g.json"
    path.write_text(_doc([{"id": x, "measure": m} for x, m in measure.items()],
                         [{"u": u, "v": v, "weight": w} for u, v, w in triples], int(layout[1])), encoding="utf-8")
    return ["--graph", str(path)]


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_a_pair_in_both_orientations_with_one_weight_is_one_edge(layout, tmp_path, capsys):
    # the pair rule of WeightedGraph(...) and from_arrays, in every file format
    g = random_connected_graph(np.random.default_rng(43), 12)
    measure, triples = {x: g.measure(x) for x in g.vertices}, list(g.edges())
    both = triples + [(v, u, w) for u, v, w in triples]
    both = [both[i] for i in np.random.default_rng(44).permutation(len(both))]
    outputs = []
    for listed in (triples, both):
        argv = _graph_files(tmp_path, measure, listed, layout)
        assert parse_graph(*(Path(path).read_text(encoding="utf-8") for path in argv[1::2])) == g
        for command in ("validate", "curvature"):
            assert run([command, *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_a_pair_with_two_weights_is_an_asymmetry(layout, tmp_path, capsys):
    argv = _graph_files(tmp_path, {"a": 1.0, "b": 1.0, "c": 1.0},
                        [("a", "b", 1.0), ("c", "b", 2.0), ("b", "c", 1.0)], layout)
    assert run(["validate", *argv]) == 1
    assert _last_json(capsys)["violations"] == ["asymmetry at ('b', 'c')"]
    assert run(["curvature", *argv]) == 2
    assert _last_json(capsys)["error"] == "invalid graph: asymmetry at ('b', 'c')"


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_a_pair_listed_twice_in_one_orientation_is_refused_by_name(layout, tmp_path, capsys):
    argv = _graph_files(tmp_path, {"a": 1.0, "b": 1.0, "c": 1.0},
                        [("a", "b", 1.0), ("c", "b", 1.0), ("b", "c", 1.0), ("c", "b", 1.0)], layout)
    for command in ("validate", "curvature"):
        assert run([command, *argv]) == 2
        assert _last_json(capsys)["error"] == "edge ('c', 'b') is listed twice in one orientation"


def test_a_document_is_paired_once(monkeypatch):
    # the pairs are checked once, by from_arrays
    g = random_connected_graph(np.random.default_rng(45), 30)
    text, calls, pair_order = serialize_graph(g), [], graphs._pair_order

    def counting(*args):
        calls.append(args)
        return pair_order(*args)

    for module in (graphs, graph_io):
        monkeypatch.setattr(module, "_pair_order", counting, raising=False)
    assert parse_graph(text) == g
    assert len(calls) == 1


_DOUBLES = st.one_of(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                     st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308,
                                      np.nextafter(1.7976931348623157e308, 0.0)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), ids=st.lists(st.text(), min_size=2, max_size=7, unique=True))
def test_serialize_round_trips_bit_for_bit(data, ids):
    # positive doubles of the whole range, subnormal measures and weights near the largest double among them
    n = len(ids)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] < p[1]), unique=True, max_size=12))
    iu, iv = (np.array([p[k] for p in pairs], dtype=int) for k in (0, 1))
    w = data.draw(st.lists(_DOUBLES, min_size=len(pairs), max_size=len(pairs)))
    m = data.draw(st.lists(_DOUBLES, min_size=n, max_size=n))
    g = WeightedGraph.from_arrays(ids, iu, iv, w, m)
    h = parse_graph(serialize_graph(g))
    assert h == g and h.vertices == g.vertices
    for a, b in zip((*h.edge_arrays, h.measure_vector), (*g.edge_arrays, g.measure_vector)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    assert report["format_version"] == 5
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
    ["finiteness", "--K", "inf"],
    ["finiteness", "--K", "nan"],
    ["heat", "--t", "1", "--constant", "nan"],
    ["heat", "--t", "1", "--constant", "inf"],
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
    (["finiteness", "--K", "1"], (1, 0, 1)),
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
    (["curvature", "--dimension", "4_0"], "--dimension"),
    (["cd-check", "--K", "1_0", "--vertex", "v0"], "--K"),
    (["cd-check", "--paper-K", "\u0661", "--vertex", "v0"], "--paper-K"),
    (["finiteness", "--K", "1_0"], "--K"),
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
    if flag in ("--t", "--dimension"):  # read by the command: a JSON error report
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


def test_parse_graph_drops_one_byte_order_mark():
    # some editors begin a UTF-8 file with U+FEFF; it is not part of the document or the first id
    g = generate("path", 3)
    edges, measures = _edge_list(g)
    assert parse_graph("\ufeff" + serialize_graph(g)) == g
    assert parse_graph("\ufeff" + _entries(serialize_graph(g))) == g
    for text, companion in (("\ufeff" + edges, measures), (edges, "\ufeff" + measures),
                            ("\ufeff" + edges, "\ufeff" + measures)):
        assert parse_graph(text, companion) == g
    # one mark only: a second one is the start of the first id
    with pytest.raises(GraphFormatError) as info:
        parse_graph("\ufeff\ufeff" + edges, measures)
    assert str(info.value) == "edges line 1: no measure declared for vertex " + repr("\ufeffv0")


def test_cli_reads_files_with_a_byte_order_mark(tmp_path, capsys):
    # some editors begin a UTF-8 file with U+FEFF; it is not part of the document or the first id
    g = generate("path", 3)
    paths = [tmp_path / name for name in ("g.json", "g.edges", "g.measures")]
    for path, text in zip(paths, (serialize_graph(g), *_edge_list(g))):
        path.write_text("\ufeff" + text, encoding="utf-8")
    document, edges = ["--graph", str(paths[0])], ["--graph", str(paths[1]), "--measures", str(paths[2])]
    for graph in (document, edges):
        assert run(["validate", *graph]) == 0
        assert _last_json(capsys)["violations"] == []
    # with the mark on both edge-list files, only the ids show it
    assert run(["curvature", *edges]) == 0
    assert [r["vertex"] for r in _last_json(capsys)["profile"]["per_vertex"]] == list(g.vertices)


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


_READING_COMMANDS = [
    ["validate"], ["curvature"], ["cd-check", "--K", "0", "--vertex", "v0"], ["heat", "--t", "1"],
    ["verify-estimates", "--paper-K", "0", "--t", "1"], ["green-check"], ["ec-check"],
    ["cutoff", "--target", "v0", "--epsilon", "1"], ["finiteness", "--K", "1"], ["taylor-check", "--vertex", "v0"],
]


@pytest.mark.parametrize("argv", _READING_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", ["--graph", "--measures"])
def test_cli_an_unreadable_path_is_an_input_error(tmp_path, capsys, argv, flag):
    # only a missing file was refused: a directory escaped as an IsADirectoryError traceback
    edges, measures = tmp_path / "g.edges", tmp_path / "g.measures"
    edges.write_text("v0 v1 1\n", encoding="utf-8")
    measures.write_text("v0 1\nv1 1\n", encoding="utf-8")
    paths = {"--graph": str(edges), "--measures": str(measures), flag: str(tmp_path)}
    assert run([argv[0], "--graph", paths["--graph"], "--measures", paths["--measures"], *argv[1:]]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert list(report) == ["format_version", "command", "error"]
    assert report["error"].startswith(f"cannot read {tmp_path}: ") and "Traceback" not in captured.err


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


@pytest.mark.parametrize("argv, code", [
    (["verify-estimates", "--paper-K", "0", "--t", "-1"], 2),
    (["verify-estimates", "--paper-K", "5", "--t", "1e300"], 1),
    (["verify-estimates", "--paper-K", "0", "--t", "1", "--dimension", "0"], 2),
    (["curvature", "--dimension", "0"], 2),
    (["cd-check", "--K", "inf", "--vertex", "v0"], 2),
    (["cutoff", "--target", "v0", "--epsilon", "0"], 2),
    (["finiteness", "--K", "0"], 2),
    (["taylor-check", "--vertex", "v0", "--K", "inf"], 2),
], ids=lambda a: " ".join(a) if isinstance(a, list) else "")
def test_cli_refuses_its_numbers_before_any_factorization(monkeypatch, tmp_path, capsys, argv, code):
    # verify-estimates factorized the semigroup for its corpus before it refused its own t or K
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, factorize=getattr(np.linalg, name), **kwargs:
                            calls.append(name) or factorize(*args, **kwargs))
    path = _write_graph(tmp_path, generate("weighted_tree", 40))
    assert run([argv[0], "--graph", path, *argv[1:]]) == code
    assert list(json.loads(capsys.readouterr().out)) == ["format_version", "command", "error"]
    assert calls == []


def test_cli_unknown_vertex_exit_2(edge_graph, capsys):
    assert run(["cd-check", "--graph", edge_graph, "--K", "1", "--vertex", "zz"]) == 2


def test_cli_generate_roundtrip(capsys):
    assert run(["generate", "--family", "hypercube", "--size", "2",
                "--measure-profile", "normalizing"]) == 0
    doc = _last_json(capsys)
    g = parse_graph(json.dumps(doc))
    assert g.num_vertices == 4
    assert all(g.measure(v) == 2.0 for v in g.vertices)


@pytest.mark.parametrize("dirichlet", [None, "v0", "v1,v0,v1"])
def test_cli_heat_echoes_the_domain_it_used(edge_graph, capsys, dirichlet):
    # the echo is the operator's domain, sorted and without repeats, as the mass keys are
    extra = [] if dirichlet is None else ["--dirichlet", dirichlet]
    assert run(["heat", "--graph", edge_graph, "--t", "1", *extra]) == 0
    report = _last_json(capsys)
    mass = list(report["results"][0]["mass"])
    if dirichlet is None:
        assert report["dirichlet"] is None and mass == ["v0", "v1"]
    else:
        assert report["dirichlet"] == sorted(set(dirichlet.split(","))) == mass


def test_cli_verify_estimates_wraps_no_corpus_column(monkeypatch, tmp_path, capsys):
    # the default corpus goes to the sweep as one array: no GraphFunction is
    # built per column, with or without the table
    init, calls = GraphFunction.__init__, []

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GraphFunction, "__init__", counted)
    path = tmp_path / "cycle6.json"
    path.write_text(serialize_graph(generate("cycle", 6)), encoding="utf-8")
    for extra in ([], ["--full"]):
        assert run(["verify-estimates", "--graph", str(path), "--paper-K", "0", "--t", "0.1,1",
                    *extra]) == 0
        assert _last_json(capsys)["corpus_size"] == 2 * 6 + 20
    assert calls == []


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


@pytest.mark.parametrize("family, size", [("cycle", 20), ("complete", 2)])
@pytest.mark.parametrize("domain", [None, ["v0"]])
def test_cli_heat_refuses_a_t_past_the_expansion(tmp_path, capsys, family, size, domain):
    # the expansion's degree, about sqrt(2 c ln 1e15) at c = t Lambda / 2, overflowed
    # in an uncaught OverflowError: at c = inf on the unit cycle (Lambda = 4)
    # and at the finite c = 1e308 on the unit edge (Lambda = 2)
    g = generate(family, size)
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    extra = [] if domain is None else ["--dirichlet", ",".join(domain)]
    code = run(["heat", "--graph", str(path), "--t", "1,1e308", "--indicator", "v0", *extra])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2 and list(report) == ["format_version", "command", "error"]
    bound = build_heat(g, dirichlet_domain=domain)._bound
    assert report["error"].startswith("t = 1e+308 is too large for the Chebyshev expansion")
    assert f"Lambda = {bound:g}," in report["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("t", ["1", "1e-287"])
def test_cli_heat_refuses_a_degree_past_the_ceiling(tmp_path, capsys, t):
    # two vertices joined by a weight of 1e300: t = 1 failed on numpy's "Maximum
    # allowed dimension exceeded", and t = 1e-287 (c = 1e13) ran for minutes
    path = _write_graph(tmp_path, WeightedGraph(["a", "b"], {("a", "b"): 1e300}, {"a": 1.0, "b": 1.0}))
    assert run(["heat", "--graph", path, "--t", t]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert list(report) == ["format_version", "command", "error"]
    assert report["error"].startswith(f"t = {float(t):g} is too large for the Chebyshev expansion")
    assert report["error"].endswith("Lambda = 2e+300, exceeds 1048576")
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("family, size, target, epsilon", [("hypercube", 5, "00000", "1e-14"),
                                                            ("cycle", 10, "v0", "1e-15")])
def test_cli_cutoff_keeps_the_mass_at_long_times(tmp_path, capsys, family, size, target, epsilon):
    # U is the whole vertex set, so P_t 1_U = 1 at t = 2 / epsilon, however
    # far past mixing, and eta = 1 has no gradient
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(generate(family, size)), encoding="utf-8")
    assert run(["cutoff", "--graph", str(path), "--target", target, "--epsilon", epsilon]) == 0
    report = _last_json(capsys)
    assert report["bound_holds"] is True and report["max_gamma"] == 0.0


def test_cli_green_ec_finiteness_taylor(edge_graph, capsys):
    assert run(["green-check", "--graph", edge_graph, "--samples", "5"]) == 0
    capsys.readouterr()
    assert run(["ec-check", "--graph", edge_graph]) == 0
    capsys.readouterr()
    assert run(["finiteness", "--graph", edge_graph, "--K", "2"]) == 0
    report = _last_json(capsys)
    assert report["format_version"] == 5
    assert list(report["report"]) == ["curvature_bound", "total_measure", "jensen_max_violation", "jensen_scale",
                                      "vertices", "degree", "epsilon_threshold", "min_epsilon_threshold"]
    assert report["report"]["vertices"] == ["v0", "v1"] and report["report"]["degree"] == [1.0, 1.0]
    assert report["report"]["epsilon_threshold"] == [2.0, 2.0]
    assert report["report"]["min_epsilon_threshold"] == {"vertex": "v0", "epsilon_threshold": 2.0}
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
        ["finiteness", "--graph", g, "--K", "2"],
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
            ["finiteness", "--graph", path, "--K", repr(curvature * c)],
        ]
    for argv in commands:
        code = run(argv)
        report = _last_json(capsys)
        assert code == 0, (argv[0], report)
        if argv[0] == "finiteness":
            assert report["report"]["jensen_scale"] > 0.0
            theta = (curvature * c) ** 2 / (2.0 * g.weighted_degrees.max())
            assert report["report"]["min_epsilon_threshold"]["epsilon_threshold"] == pytest.approx(theta, rel=1e-14)


@pytest.mark.parametrize("graph, K, code", [
    (("weighted_tree", 12, 1e150), 0.5e150, 0),
    (("weighted_tree", 12, 1e160), 0.5e160, 0),
    (("complete", 2, 1.0), 1e300, 1),
    (("complete", 6, 1.0), 5e300, 1),
])
def test_cli_taylor_check_refuses_a_rate_past_double_precision(tmp_path, capsys, graph, K, code):
    # past a rate of about 1e154 the second-order coefficients overflowed and
    # the fit's t^2 reached 0, in a ZeroDivisionError.  The fit runs on the
    # normalized graph, whose max Deg lies in [1, 4), so only |K| / max Deg can
    # push its smallest t below a normal square: at 1e300 that is refused.  At
    # x1e160 the second order is -inf in the graph's units, so it is judged on
    # the normalized graph, where it is a double
    family, size, c = graph
    path = _write_graph(tmp_path, scaled_weights(generate(family, size, seed=3), c))
    assert run(["taylor-check", "--graph", path, "--vertex", "v0", "--K", repr(K)]) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    if code == 0:
        mismatch = report["report"]["relative_mismatch"]
        assert report["passed"] is True and report["max_relative_mismatch"] == max(mismatch.values())
        assert 0.0 < mismatch["second_order"] <= cli.TAYLOR_TOL
    else:
        assert list(report) == ["format_version", "command", "error"]
        assert report["error"].startswith("|K| / max Deg = 1e+300 is too large for the Taylor fit")
        assert "Traceback" not in captured.err


def test_cli_taylor_check_fails_on_a_nan_mismatch(edge_graph, capsys, monkeypatch):
    # max() kept the old worst against a nan, which passed a check that compared nothing
    def nan_second_order(*args, **kwargs):
        report = taylor_check(*args, **kwargs)
        return {**report, "relative_mismatch": {"first_order": 0.0, "second_order": math.nan}}

    monkeypatch.setattr(cli, "taylor_check", nan_second_order)
    assert run(["taylor-check", "--graph", edge_graph, "--vertex", "v0"]) == 1
    assert _last_json(capsys)["passed"] is False


@pytest.mark.parametrize("c, measure", [(1e153, 1.0), (1e154, 1.0), (1e160, 1.0), (1e-200, 1.0), (1e-310, 1e-310)])
def test_cli_curvature_at_the_edge_of_the_double_range(tmp_path, capsys, c, measure):
    # the unit 3-cube, K = 2, with its weights times c.  From x1e154 its local
    # forms left the doubles: curvature passed with every value nan, finiteness
    # accepted K = 5c, and at x1e160 and x1e-200 eigh failed to converge.  A max
    # Deg range then refused them; on the normalized graph each is answered
    g = scaled_weights(generate("hypercube", 3), c, measure)
    path, x, K = _write_graph(tmp_path, g), g.vertices[0], 2 * c / measure
    commands = [["curvature"], ["cd-check", "--K", repr(K), "--vertex", x],
                ["cd-check", "--K", repr(2.5 * K), "--vertex", x], ["finiteness", "--K", repr(K)],
                ["finiteness", "--K", repr(2.5 * K)]]
    for argv, code in zip(commands, [0, 0, 1, 0, 1]):
        assert run([argv[0], "--graph", path, *argv[1:]]) == code, argv
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.out.count("\n") == 1 and "Traceback" not in captured.err
        if argv[0] == "curvature":
            profile = report["profile"]
            assert profile["global_curvature"] == pytest.approx(K, rel=1e-15)
            assert all(r["converged"] is True for r in profile["per_vertex"])
        elif argv[0] == "cd-check":
            assert report["holds"] is (code == 0)
        elif code == 1:
            assert "the curvature at" in report["error"]


@pytest.mark.parametrize("c, argv, code, error", [
    (1e10, ["cd-check", "--K=-1e300", "--vertex", "000"], 0, None),
    (1e-10, ["cd-check", "--K=-1e300", "--vertex", "000"], 1, "|K| / max Deg is too large for double precision"),
    (1.0, ["curvature", "--dimension", "1e-310"], 2, "dimension n = 1e-310 is too small"),
    (1.0, ["cd-check", "--K", "0", "--vertex", "000", "--dimension", "1e-310"], 2, "dimension n = 1e-310 is too small"),
])
def test_cli_ratios_past_the_doubles(tmp_path, capsys, c, argv, code, error):
    # on the 3-cube times c: --K -1e300 at x1e10 crashed in eigvalsh and --dimension
    # 1e-310 failed with "Eigenvalues did not converge".  On the normalized graph the
    # first holds; what is left is refused by the unit-free ratio that leaves the doubles
    path = _write_graph(tmp_path, scaled_weights(generate("hypercube", 3), c))
    assert run([argv[0], "--graph", path, *argv[1:]]) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert "Traceback" not in captured.err
    if error is None:
        assert report["holds"] is True and isinstance(report["smallest_eigenvalue"], float)
    else:
        assert list(report) == ["format_version", "command", "error"] and report["error"].startswith(error)


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
