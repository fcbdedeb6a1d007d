"""Graph ingestion and serialization.

Two interchange formats:

* a JSON document carrying vertices with measures and edges with weights in
  one file, and
* a plain edge list (one ``u v weight`` per line, ``#`` comments) with a
  companion measure file (``v m`` per line), which interoperates with common
  graph corpora.

The document has three layouts with the same keys.  ``"format_version": 2``
holds each table as columns, ``{"id": [...], "measure": [...]}`` and
``{"u": [...], "v": [...], "weight": [...]}``; version 1 holds one object
per vertex and per edge.  Version 3, the one ``serialize_graph`` writes,
has version 2's columns, but each numeric column is one base64 string of
little-endian binary: ``measure`` and ``weight`` as doubles (``<f8``),
``u`` and ``v`` as 32-bit indices into ``id`` (``<i4``), which stays a
list of strings.  Ingest is the largest share of a command on a graph of a
few thousand vertices, and in version 2 most of it is ``json.loads``
reading 17-digit decimals and the lookups of the endpoint names; binary
columns are decoded by ``np.frombuffer`` and hold every double bit for bit
(see ``serialize_graph`` for the times).  ``parse_graph`` reads all three:
versions 1 and 2 are the layouts to write by hand.

Both parsers read their entries, vertices and edges alike, column by
column and fill the index arrays of ``WeightedGraph.from_arrays`` directly.
Each endpoint column of names is mapped by ``graphs._indices``, the helper
of the mapping constructor too: one pass of lookups in the id dict, with a
name that is not an id numbered for ``validate``.  Only strings are ids, so
only those names have their types checked.  An index column of version 3
is checked against the range of the ids instead.  Only an input with a
fault is walked entry by entry, to name it, and an entry of a column
layout is the row of its columns, so a faulty entry gets the same message
in every layout.  The first such fault in file order is the one reported,
before the graph is built.  The pairs follow the one rule of
``from_arrays`` in every layout: a pair listed in both orientations with
one weight is one edge, with two weights it is an asymmetry for
``validate``, and one listed twice in one orientation is a
``GraphFormatError`` naming it.  ``serialize_graph`` writes the document
as one compact line; the parser accepts any whitespace.
"""

from __future__ import annotations

import base64
import json
from collections.abc import Iterable, Iterator

import numpy as np

from .graphs import WeightedGraph, _indices, validate

__all__ = ["GraphFormatError", "parse_graph", "parse_edge_list", "serialize_graph"]

FORMAT_VERSION = 3  # the version serialize_graph writes; parse_graph also reads 1 and 2
_VERTEX_KEYS = ("id", "measure")
_EDGE_KEYS = ("u", "v", "weight")
_BINARY = {"measure": "<f8", "u": "<i4", "v": "<i4", "weight": "<f8"}  # the base64 columns of version 3
# the types of a number: json gives int and float, a binary column np.float64; bool and str are not numbers
_NUMBERS = frozenset((int, float, np.float64))


class GraphFormatError(ValueError):
    """Malformed graph input; the message carries the line or field."""


def parse_graph(
    text: str,
    measures: str | None = None,
    require_valid: bool = True,
) -> WeightedGraph:
    """Parse either interchange format into a WeightedGraph.

    JSON input is detected by a leading ``{``; anything else is treated as
    an edge list, which needs the companion ``measures`` text.  One leading
    byte order mark (U+FEFF, as some editors write) is dropped from either
    text.  With ``require_valid`` (the default) structural violations raise;
    pass False to obtain the raw graph for diagnostic validation.
    """
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        g = _parse_document(text)
    else:
        if measures is None:
            raise GraphFormatError("edge-list input requires a measure file")
        g = parse_edge_list(text, measures.removeprefix("\ufeff"))
    if require_valid:
        violations = validate(g)
        if violations:
            raise GraphFormatError("invalid graph: " + "; ".join(violations))
    return g


def _parse_document(text: str) -> WeightedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"JSON parse error: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, 2, 3):  # not a bool, not a float
        raise GraphFormatError(f"format_version: expected 1, 2 or 3, got {version!r}")
    read = _entry_table if version == 1 else _column_table
    vertices, edges = read(doc, "vertices", _VERTEX_KEYS), read(doc, "edges", _EDGE_KEYS)
    index, measure = _vertex_columns(*vertices)
    ends, weights = _index_columns(*edges[0], len(index)) if version == 3 else _edge_columns(*edges, index)
    del doc, vertices, edges  # the document goes before the graph is built
    return _graph(index, measure, ends, weights)


def _entry_table(doc: dict, name: str, keys: tuple[str, ...]) -> tuple[list[list] | None, list]:
    """A version-1 table's columns, None if an entry lacks one, and its list of entries."""
    entries = doc.get(name)
    if not isinstance(entries, list):
        raise GraphFormatError(f"{name}: expected a list")
    try:
        return [[e[key] for e in entries] for key in keys], entries
    except (KeyError, TypeError):  # an entry that is not an object with all keys
        return None, entries


def _column_table(doc: dict, name: str, keys: tuple[str, ...]) -> tuple[list, Iterator[dict]]:
    """A version-2 or -3 table's columns, and its entries, zipped from them when they are walked.

    In version 3 every column but ``id`` is binary, decoded to an array.
    """
    table, binary = doc.get(name), doc["format_version"] == 3
    if not isinstance(table, dict):
        raise GraphFormatError(f"{name}: expected an object of columns")
    columns = [table.get(key) for key in keys]
    for k, key in enumerate(keys):
        if binary and key in _BINARY:
            columns[k] = _decode(f"{name}.{key}", columns[k], _BINARY[key])
        elif not isinstance(columns[k], list):
            raise GraphFormatError(f"{name}.{key}: expected a list")
    if len({*map(len, columns)}) > 1:
        lengths = ", ".join(f"{key} {len(column)}" for key, column in zip(keys, columns))
        raise GraphFormatError(f"{name}: columns of unequal length ({lengths})")
    return columns, (dict(zip(keys, row)) for row in zip(*columns))


def _decode(field: str, column, dtype: str) -> np.ndarray:
    """A version-3 column: one base64 string of little-endian ``dtype`` entries."""
    if not isinstance(column, str):
        raise GraphFormatError(f"{field}: expected a base64 string")
    try:
        raw = base64.b64decode(column, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise GraphFormatError(f"{field}: not valid base64") from None
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise GraphFormatError(f"{field}: {len(raw)} bytes is not a whole number of {size}-byte entries")
    return np.frombuffer(raw, dtype)


def _vertex_columns(columns: list[list] | None, entries: Iterable) -> tuple[dict[str, int], np.ndarray]:
    """The id -> index dict and the measures of the vertex entries.

    Entries are read column by column.  Only if one is malformed or repeats
    an earlier id are they checked one by one, to name the first fault.
    """
    if columns is not None:
        ids, measure = columns[0], _numbers(columns[1])
        if measure is not None and {*map(type, ids)} <= {str}:
            index = dict(zip(ids, range(len(ids))))
            if len(index) == len(ids):
                return index, measure
    i, fault = next((i, fault) for i, fault in enumerate(_vertex_faults(entries)) if fault)
    raise GraphFormatError(f"vertices[{i}]{fault}")


def _vertex_faults(entries: Iterable):
    """What is wrong with each vertex entry in turn, as the message after its location; None if nothing is."""
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict) or not entry.keys() >= {*_VERTEX_KEYS}:
            yield ": expected an object with id and measure"
        elif not isinstance(entry["id"], str):
            yield ".id: expected a string"
        elif entry["id"] in seen:
            yield f": duplicate vertex id {entry['id']!r}"
        else:
            seen.add(entry["id"])
            yield _number_fault(entry["measure"], ".measure")


def _edge_columns(columns: list[list] | None, entries: Iterable, index: dict[str, int]):
    """The ends and weight of the edge entries.

    Entries are read column by column, and each endpoint is looked up in
    ``index`` by ``graphs._indices``: one that is found is a declared id and
    so a string, so only the types of the others are checked.  Only if an
    entry is malformed are they checked one by one, to name the first fault.
    """
    if columns is not None:
        us, vs, weights = *columns[:2], _numbers(columns[2])
        if weights is not None:
            unknown: dict[str, int] = {}  # string endpoints that are not vertices go to validate by name
            try:
                ends = _indices(us, index, unknown), _indices(vs, index, unknown), list(unknown)
                if {*map(type, unknown)} <= {str}:
                    return ends, weights
            except TypeError:  # a JSON list or object, which no dict holds
                pass
    k, fault = next((k, fault) for k, fault in enumerate(map(_edge_fault, entries)) if fault)
    raise GraphFormatError(f"edges[{k}]{fault}")


def _index_columns(iu: np.ndarray, iv: np.ndarray, weights: np.ndarray, n: int):
    """The ends and weight of the version-3 edges, whose ``iu`` and ``iv`` must index the ``n`` vertex ids."""
    outside = (np.minimum(iu, iv) < 0) | (np.maximum(iu, iv) >= n)
    if outside.any():
        k = int(np.argmax(outside))
        key, x = ("u", iu[k]) if not 0 <= iu[k] < n else ("v", iv[k])
        raise GraphFormatError(f"edges[{k}].{key}: vertex index {x} is outside [0, {n})")
    return (iu, iv, []), weights


def _edge_fault(entry) -> str | None:
    """What is wrong with one edge entry, as the message after its location; None if nothing is."""
    if not isinstance(entry, dict) or not entry.keys() >= {*_EDGE_KEYS}:
        return ": expected an object with u, v and weight"
    if not isinstance(entry["u"], str) or not isinstance(entry["v"], str):
        return ": endpoints must be strings"
    return _number_fault(entry["weight"], ".weight")


def _numbers(raw: list | np.ndarray) -> np.ndarray | None:
    """The JSON numbers as a float array; None if one is not a number that a float holds.

    A binary column is returned as it is: it holds doubles only.
    """
    if isinstance(raw, np.ndarray):
        return raw
    if {*map(type, raw)} <= _NUMBERS:
        try:
            return np.array(raw, dtype=float)
        except OverflowError:  # an integer beyond the largest double, as float() refuses it
            pass
    return None


def _number_fault(value, field: str) -> str | None:
    """``field``'s fault unless ``value`` is a JSON number that a float holds."""
    return None if _numbers([value]) is not None else f"{field}: expected a number"


def _graph(index: dict[str, int], measure: np.ndarray | list[float],
           ends: tuple[np.ndarray, np.ndarray, list[str]], weights: np.ndarray | list[float]) -> WeightedGraph:
    """The graph of the edges read, by ``from_arrays``; its refusal of a pair listed twice is a GraphFormatError.

    ``ends`` holds the endpoints' indices, with -1 - j for the j-th name that
    is not a vertex; those go to ``validate`` by name.
    """
    iu, iv, undeclared = ends
    try:
        return WeightedGraph.from_arrays(list(index), iu, iv, weights, measure, undeclared=undeclared)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _lines(text: str, label: str, fields: str):
    """(line number, fields) of each line with content, which must have the named ``fields``."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if parts and len(parts) != len(fields.split()):
            raise GraphFormatError(f"{label} line {lineno}: expected {fields!r}")
        if parts:
            yield lineno, parts


def _columns(text: str, width: int) -> list[list[str]] | None:
    """The fields of the lines with content, column by column; None if a line has not ``width`` fields."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    if not {*map(len, map(str.split, text.splitlines()))} <= {0, width}:
        return None
    fields = text.split()  # each line break is whitespace, so these are the lines' fields in turn
    return [fields[i::width] for i in range(width)]


def _floats(raw: list[str]) -> list[float] | None:
    """The number tokens as floats; None if one is not a number.

    ``float`` also reads ``_`` between digits and non-ASCII digits, so a
    token with either is refused, here and by every number flag of the CLI.
    """
    text = "".join(raw)
    if not text.isascii() or "_" in text:
        return None
    try:
        return list(map(float, raw))
    except ValueError:
        return None


def parse_edge_list(edge_text: str, measure_text: str) -> WeightedGraph:
    """Parse ``u v weight`` lines plus ``v m`` measure lines.

    Each file is read column by column.  Only if that finds a fault is it
    walked line by line, to name the first fault.
    """
    index, measure = _parse_measures(measure_text)
    columns = _columns(edge_text, 3)
    weights = None if columns is None else _floats(columns[2])
    unknown: dict[str, int] = {}
    ends = None if weights is None else (*(_indices(c, index, unknown) for c in columns[:2]), [])
    if ends is None or unknown:
        _walk_edges(edge_text, index)
    return _graph(index, measure, ends, weights)


def _parse_measures(text: str) -> tuple[dict[str, int], list[float]]:
    """The id -> index dict and the measures of the ``v m`` lines."""
    columns = _columns(text, 2)
    measure = None if columns is None else _floats(columns[1])
    if measure is not None:
        index = dict(zip(columns[0], range(len(measure))))
        if len(index) == len(measure):
            return index, measure
    _walk_measures(text)


def _walk_measures(text: str) -> None:
    """Raise the fault of the first faulty measure line, which the column pass found there is."""
    seen = set()
    for lineno, (vid, raw) in _lines(text, "measures", "vertex measure"):
        if vid in seen:
            raise GraphFormatError(f"measures line {lineno}: duplicate measure for {vid!r}")
        if _floats([raw]) is None:
            raise GraphFormatError(f"measures line {lineno}: bad measure {raw!r}")
        seen.add(vid)


def _walk_edges(text: str, index: dict[str, int]) -> None:
    """Raise the fault of the first faulty edge line, which the column pass found there is."""
    for lineno, (u, v, raw) in _lines(text, "edges", "u v weight"):
        if _floats([raw]) is None:
            raise GraphFormatError(f"edges line {lineno}: bad weight {raw!r}")
        for endpoint in (u, v):
            if endpoint not in index:
                raise GraphFormatError(f"edges line {lineno}: no measure declared for vertex {endpoint!r}")


def serialize_graph(g: WeightedGraph) -> str:
    """Emit the version-3 JSON document as one compact line; doubles round-trip bit for bit.

    There is no way to write versions 1 and 2, which ``parse_graph`` still
    reads.  The edges go in ``edge_arrays`` order, each pair (min, max) once,
    which ``parse_graph`` reads without sorting.  Binary columns take the
    decimals out of ``json.loads`` and the name lookups out of the parse: on
    a fuzzed graph of 2,000 vertices and 6,000 edges the file is 166 KB
    instead of version 2's 277 KB, ``parse_graph`` takes 1.1-1.8 ms instead
    of 3.9-4.8 ms, and this function 0.54-1.06 ms instead of 5.5-6.8 ms
    (best of 60 in-process runs, seven interleaved runs at seed 7, on a
    shared 2-vCPU host).
    """
    iu, iv, w = g.edge_arrays
    return json.dumps({
        "format_version": FORMAT_VERSION,
        "vertices": {"id": list(g.vertices), "measure": _encode(g.measure_vector, "<f8")},
        "edges": {"u": _encode(iu, "<i4"), "v": _encode(iv, "<i4"), "weight": _encode(w, "<f8")},
    })


def _encode(values: np.ndarray, dtype: str) -> str:
    """A version-3 column: the values as one base64 string of little-endian ``dtype`` entries."""
    return base64.b64encode(values.astype(dtype).tobytes()).decode("ascii")
