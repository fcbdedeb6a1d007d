import json

import numpy as np
import pytest

from conftest import random_connected_graph, scaled_weights
from graphcurv import (
    GraphFormatError,
    WeightedGraph,
    build_heat,
    default_corpus,
    estimate_sweep,
    generate,
    parse_graph,
    serialize_graph,
)
from graphcurv.cli import run

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


@pytest.mark.parametrize(
    "family,size,profile",
    [("path", 5, "unit"), ("cycle", 6, "normalizing"), ("complete", 4, "unit"),
     ("star", 3, "normalizing"), ("hypercube", 3, "unit"), ("weighted_tree", 9, "unit")],
)
def test_round_trip_generated_graphs(family, size, profile):
    g = generate(family, size, profile, seed=5)
    assert parse_graph(serialize_graph(g)) == g


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
    assert report["format_version"] == 3
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
    h = build_heat(g)
    result, summary = estimate_sweep(g, -2.0, 4.0, [0.1, 1.0],
                                     default_corpus(g, seed=3, heat_op=h, num_random=4),
                                     heat_op=h)
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
], ids=" ".join)
def test_cli_non_finite_numbers_are_input_errors(edge_graph, capsys, argv):
    code = run([argv[0], "--graph", edge_graph, *argv[1:]])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["command"] == argv[0]
    assert "finite" in report["error"] or "nonnegative" in report["error"]
    assert "Traceback" not in captured.err


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
