"""Wire formats and the command line front end."""

from __future__ import annotations

import json

import pytest

from surfembed.cli import _parser, main
from surfembed.core import Graph, MarkedGraph, complete_bipartite, complete_graph, cycle_graph
from surfembed.decompose import decompose
from surfembed.dichotomy import star_comb
from surfembed.embeddings import planarity
from surfembed.io import (
    comb_from_json,
    comb_to_json,
    decomposition_from_json,
    decomposition_to_json,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    kuratowski_from_json,
    kuratowski_to_json,
    model_from_json,
    model_to_json,
    parse_edge_list,
    parse_graph,
    pattern_id_from_json,
    pattern_id_to_json,
    rotation_from_json,
    rotation_to_json,
)
from surfembed.minors import find_minor
from surfembed.patterns import PatternId


def test_edge_list_round_trip():
    g = complete_bipartite(2, 3)
    assert parse_edge_list(format_edge_list(g)) == g
    mg = MarkedGraph(g, frozenset([2, 3]))
    back = parse_edge_list(format_edge_list(mg))
    assert isinstance(back, MarkedGraph)
    assert back.graph == g and back.marked == mg.marked


def test_edge_list_comments_and_duplicates():
    g = parse_edge_list("# header\n0 1\n1 0  # same edge again\n1 2\n")
    assert isinstance(g, Graph)
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_edge_list_rejects_loops_with_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("0 1\n1 2\n2 2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("zero one\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0 1\n1 2 3\n")


def test_marked_lines():
    g = parse_edge_list("0 1\nM 0\nM 1\n")
    assert isinstance(g, MarkedGraph)
    assert g.marked == frozenset([0, 1])
    # a mark on an unseen id introduces that vertex, isolated
    g2 = parse_edge_list("0 1\nM 5\n")
    assert g2.graph.vertices == frozenset([0, 1, 5])
    assert g2.marked == frozenset([5])


def test_format_edge_list_rejects_isolated_vertices():
    with pytest.raises(ValueError):
        format_edge_list(Graph([0, 1, 2], [(0, 1)]))


def test_graph_json_round_trip():
    g = cycle_graph(5)
    assert graph_from_json(graph_to_json(g)) == g
    mg = MarkedGraph(g, frozenset([1, 3]))
    back = graph_from_json(graph_to_json(mg))
    assert isinstance(back, MarkedGraph) and back.marked == mg.marked
    # json keeps isolated vertices, unlike the text format
    lone = Graph([0, 1, 5], [(0, 1)])
    assert graph_from_json(graph_to_json(lone)) == lone


def test_parse_graph_sniffs_format():
    g = cycle_graph(4)
    assert parse_graph(format_edge_list(g)) == g
    assert parse_graph(json.dumps(graph_to_json(g))) == g


def test_rotation_json_round_trip():
    g = complete_graph(4)
    rot = planarity(g).rotation
    assert rotation_from_json(rotation_to_json(rot)) == rot


def test_model_json_round_trip():
    g = cycle_graph(6)
    model = find_minor(g, cycle_graph(3)).model
    back = model_from_json(model_to_json(model))
    assert back.branch_sets == model.branch_sets
    assert back.connect_edges == model.connect_edges


def test_kuratowski_json_round_trip():
    w = planarity(complete_graph(5)).witness
    back = kuratowski_from_json(kuratowski_to_json(w))
    assert back == w


def test_pattern_id_json_round_trip():
    for pid in (PatternId("theta", 2), PatternId("sigma", 8, 4),
                PatternId("aux", kind="G2", level=3), PatternId("uprime", 3, 2)):
        assert pattern_id_from_json(pattern_id_to_json(pid)) == pid


def test_decomposition_json_round_trip():
    g = complete_graph(5)
    d = decompose(g, 1)
    back = decomposition_from_json(decomposition_to_json(d))
    assert back == d


def test_comb_json_round_trip():
    g = Graph(range(7), [(0, i) for i in range(1, 7)])
    s = star_comb(g, frozenset(range(1, 7)), 3)
    back = comb_from_json(comb_to_json(s))
    assert back == s


# --- command line ----------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _k5(tmp_path):
    return _write(tmp_path, "k5.txt", format_edge_list(complete_graph(5)))


def _c4(tmp_path):
    return _write(tmp_path, "c4.txt", format_edge_list(cycle_graph(4)))


def test_cli_planar_exit_codes(tmp_path, capsys):
    assert main(["planar", _c4(tmp_path)]) == 0
    assert main(["planar", _k5(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "K5" in out


def test_cli_planar_json_witness_verifies(tmp_path, capsys):
    assert main(["planar", "--json", _k5(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["planar"] is False
    wfile = _write(tmp_path, "w.json", json.dumps(payload["witness"]))
    assert main(["verify", "kuratowski", "--graph", _k5(tmp_path), "--witness", wfile]) == 0


def test_cli_genus_budget_exhaustion(tmp_path, capsys):
    assert main(["genus", "--budget", "1", _k5(tmp_path)]) == 0
    assert "1" in capsys.readouterr().out
    assert main(["genus", "--budget", "0", _k5(tmp_path)]) == 2


def test_cli_genus_long_cycle(tmp_path, capsys):
    path = _write(tmp_path, "c600.txt", format_edge_list(cycle_graph(600)))
    assert main(["genus", "--json", "--budget", "0", path]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 0


def test_cli_genus_rotation_verifies(tmp_path, capsys):
    assert main(["genus", "--json", "--budget", "1", _k5(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    rfile = _write(tmp_path, "rot.json", json.dumps(payload))
    assert main(["verify", "rotation", "--graph", _k5(tmp_path), "--witness", rfile,
                 "-n", str(payload["genus"])]) == 0


def test_cli_verify_rotation_checks_the_expected_genus(tmp_path, capsys):
    assert main(["genus", "--json", "--budget", "1", _k5(tmp_path)]) == 0
    rfile = _write(tmp_path, "rot.json", capsys.readouterr().out)
    assert main(["verify", "rotation", "--json", "--graph", _k5(tmp_path),
                 "--witness", rfile, "-n", "0"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "verified": False,
        "errors": ["rotation traces to genus 1, not the expected genus 0"],
        "genus": 1,
    }


def test_cli_verify_invalid_rotation_payload(tmp_path, capsys):
    rfile = _write(tmp_path, "rot.json", json.dumps(
        {"rotation": {"0": [1, 1, 2, 3], "1": [0, 2, 3, 4], "2": [0, 1, 3, 4],
                      "3": [0, 1, 2, 4], "4": [0, 1, 2, 3]}}))
    assert main(["verify", "rotation", "--json", "--graph", _k5(tmp_path),
                 "--witness", rfile]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "verified": False,
        "errors": ["rotation at 0 is not a permutation of its neighbors"],
        "genus": None,
    }


def test_cli_builds_one_parser(tmp_path, capsys):
    _parser.cache_clear()
    assert main(["genus", "--budget", "1", _k5(tmp_path)]) == 0
    assert main(["planar", _c4(tmp_path)]) == 0
    info = _parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cli_calls_share_no_state(tmp_path, capsys):
    k5 = _k5(tmp_path)
    assert main(["genus", "--json", "--budget", "1", k5]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 1
    assert main(["genus", "--budget", "1", k5]) == 0
    assert capsys.readouterr().out == "genus 1\n"
    with pytest.raises(SystemExit) as exc:
        main(["genus", k5])  # --budget is required
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["genus", "--budget", "0", k5]) == 2
    assert capsys.readouterr().out == "exceeds-budget: genus > 0\n"


def test_cli_minor_catalog_spec(tmp_path, capsys):
    host = _write(tmp_path, "host.txt", format_edge_list(complete_graph(6)))
    assert main(["minor", "--json", "--timeout", "10", host, "sigma:1", "-n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found"
    wfile = _write(tmp_path, "m.json", json.dumps(payload["model"]))
    assert main(["verify", "minor", "--graph", host, "--witness", wfile,
                 "--pattern", "sigma:1", "-n", "1"]) == 0


def test_cli_minor_absent_is_definitive(tmp_path):
    host = _c4(tmp_path)
    assert main(["minor", "--timeout", "10", host, "sigma:1", "-n", "1"]) == 0


def test_cli_outerplanar(tmp_path, capsys):
    g = _write(tmp_path, "g.txt", format_edge_list(cycle_graph(5)) + "M 0\nM 2\n")
    assert main(["outerplanar", g]) == 0
    capsys.readouterr()
    k4 = _write(tmp_path, "k4.txt",
                format_edge_list(complete_graph(4)) + "".join(f"M {i}\n" for i in range(4)))
    assert main(["outerplanar", "--json", k4]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outerplanar"] is False
    assert payload["theta_index"] == 1
    wfile = _write(tmp_path, "th.json", json.dumps(payload["model"]))
    assert main(["verify", "marked-minor", "--graph", k4, "--witness", wfile,
                 "--pattern", "theta:1"]) == 0


def test_cli_su_obstruct_round_trip(tmp_path, capsys):
    from surfembed.patterns import sigma

    s = sigma(5, 2)
    rest = s.remove_vertices([0])
    text = format_edge_list(rest) + "".join(f"M {v}\n" for v in sorted(set(s.neighbors(0)) & rest.vertices))
    host = _write(tmp_path, "slice.txt", text)
    assert main(["su-obstruct", "--json", "--budget", "0", "-n", "2", host]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "witness"
    wfile = _write(tmp_path, "su.json", json.dumps(payload))
    assert main(["verify", "marked-minor", "--graph", host, "--witness", wfile]) == 0


def test_cli_su_obstruct_timeout_exits_2(tmp_path, capsys):
    from surfembed.patterns import u_pattern

    host = _write(tmp_path, "u3.txt", format_edge_list(u_pattern(3, False, 3)))
    args = ["su-obstruct", "--json", "--budget", "1", "-n", "3", "--timeout", "0.2", host]
    assert main(args) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "timeout"


def test_cli_decompose_and_verify(tmp_path, capsys):
    assert main(["decompose", "--json", "--budget", "1", _k5(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"pieces", "core", "genus_bound"}
    wfile = _write(tmp_path, "d.json", json.dumps(payload))
    assert main(["verify", "decomposition", "--graph", _k5(tmp_path), "--witness", wfile]) == 0
    # an "overlaps" key, which older certificates carry, is ignored even when wrong
    payload["overlaps"] = [[0, 1, [99]]]
    wfile = _write(tmp_path, "old.json", json.dumps(payload))
    assert main(["verify", "decomposition", "--graph", _k5(tmp_path), "--witness", wfile]) == 0


def test_cli_decompose_budget_exhaustion(tmp_path):
    assert main(["decompose", "--budget", "0", _k5(tmp_path)]) == 2


def test_cli_dichotomy_witness_and_flaw(tmp_path, capsys):
    tri3 = _write(
        tmp_path, "tri3.txt",
        "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n6 7\n7 8\n6 8\n",
    )
    assert main(["dichotomy", "--json", "forest-del", tri3, "-n", "3", "-k", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "witness"
    wfile = _write(tmp_path, "dw.json", json.dumps(payload))
    assert main(["verify", "minor", "--graph", tri3, "--witness", wfile]) == 0

    c5 = _write(tmp_path, "c5.txt", format_edge_list(cycle_graph(5)))
    assert main(["dichotomy", "forest-del", c5, "-n", "2", "-k", "1"]) == 0
    assert main(["dichotomy", "forest-con", c5, "-n", "2", "-k", "0"]) == 2


def test_cli_classify(tmp_path, capsys):
    two_k5 = _write(
        tmp_path, "twok5.txt",
        format_edge_list(complete_graph(5)) + format_edge_list(complete_graph(5, offset=5)),
    )
    assert main(["classify", "--json", two_k5, "-n", "2", "-k", "1", "--budget", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"]
    wfile = _write(tmp_path, "cw.json", json.dumps(payload["witnesses"][0]))
    assert main(["verify", "minor", "--graph", two_k5, "--witness", wfile]) == 0
    # planar input: no witnesses, certificate instead, still exit 0
    assert main(["classify", _c4(tmp_path), "-n", "2", "-k", "1", "--budget", "1"]) == 0


def test_cli_pattern_emission(tmp_path, capsys):
    assert main(["pattern", "sigma:8", "-n", "2"]) == 0
    text = capsys.readouterr().out
    assert parse_graph(text).m == 6
    assert main(["pattern", "--json", "aux:K2w", "-n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["edges"]) == 6


def test_cli_starcomb(tmp_path, capsys):
    star = _write(tmp_path, "star.txt",
                  "".join(f"0 {i}\n" for i in range(1, 7)) +
                  "".join(f"M {i}\n" for i in range(1, 7)))
    assert main(["starcomb", "--json", star, "-n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found"
    assert payload["structure"]["kind"] == "star"
    wfile = _write(tmp_path, "s.json", json.dumps(payload["structure"]))
    assert main(["verify", "comb", "--graph", star, "--witness", wfile]) == 0


def test_cli_starcomb_exhaustion(tmp_path):
    # three marks cannot reach level 5
    star = _write(tmp_path, "star3.txt",
                  "0 1\n0 2\n0 3\nM 1\nM 2\nM 3\n")
    assert main(["starcomb", star, "-n", "5"]) == 2


def test_cli_verify_rejects_tampered_witness(tmp_path, capsys):
    assert main(["planar", "--json", _k5(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    w = payload["witness"]
    w["branch_vertices"] = w["branch_vertices"][:4] + [w["branch_vertices"][0]]
    wfile = _write(tmp_path, "bad.json", json.dumps(w))
    assert main(["verify", "kuratowski", "--graph", _k5(tmp_path), "--witness", wfile]) == 1


def test_cli_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["planar", missing]) == 1
    assert "error:" in capsys.readouterr().err
    bad = _write(tmp_path, "bad.txt", "1 1\n")
    assert main(["planar", bad]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["pattern", "sigma:9", "-n", "2"]) == 1
    assert main(["pattern", "u:1"]) == 1  # missing level


def test_cli_decompose_timeout_reports_timeout(tmp_path, capsys):
    from surfembed.patterns import sigma

    host = _write(tmp_path, "sigma5_3.txt", format_edge_list(sigma(5, 3)))
    assert main(["decompose", "--json", "--budget", "2", "--timeout", "1", host]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "timeout"


def test_cli_verify_comb_with_empty_path_is_invalid(tmp_path, capsys):
    star = _write(tmp_path, "star3.txt", "0 1\n0 2\n0 3\n")
    witness = {"kind": "star", "paths": [[]], "centers": [0], "level": 1}
    wfile = _write(tmp_path, "empty.json", json.dumps(witness))
    assert main(["verify", "comb", "--graph", star, "--witness", wfile]) == 1
    captured = capsys.readouterr()
    assert "invalid" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "kind, witness, pattern",
    [
        ("comb", {"kind": "star", "paths": [[0, 1]], "centers": [0], "level": None}, None),
        ("comb", {"kind": "star", "paths": [[0, [1]]], "centers": [0], "level": 1}, None),
        ("minor", {"branch_sets": {"0": [[0]]}, "edges": {}}, "k5"),
        ("marked-minor", {"branch_sets": {"0": [[0]]}, "edges": {}, "host_marked": []}, "theta:1"),
        ("kuratowski", {"kind": "K5", "branch_vertices": [[0], 1, 2, 3, 4], "paths": {}}, None),
        ("decomposition", {"pieces": [{"vertices": [0, 1], "edges": [[0, [1]]]}],
                           "core": {"vertices": [], "edges": []}, "overlaps": []}, None),
        ("comb", [0, 1], None),
        # containers of the wrong type
        ("rotation", {"rotation": 5}, None),
        ("kuratowski", {"kind": "K5", "branch_vertices": [0, 1, 2, 3, 4], "paths": []}, None),
        ("comb", {"structure": {"kind": "star", "paths": 5}}, None),
        ("decomposition", {"pieces": 5, "core": {"vertices": [], "edges": []}}, None),
        ("decomposition", {"pieces": [5], "core": {"vertices": [], "edges": []}}, None),
        ("decomposition", {"pieces": [], "core": 3}, None),
        ("decomposition", {"pieces": [{"vertices": [0], "edges": 5}],
                           "core": {"vertices": [], "edges": []}}, None),
        ("minor", {"branch_sets": 5}, "k5"),
        ("minor", {"branch_sets": {"0": [0]}, "edges": 5}, "k5"),
        ("minor", {"model": {"branch_sets": {"0": [0]}}, "kind": 5}, None),
        # an embedded pattern id whose family or kind is not a string
        ("minor", {"model": {"branch_sets": {"0": [0]}},
                   "kind": {"family": ["sigma"], "index": 1, "level": 2}}, None),
        ("minor", {"model": {"branch_sets": {"0": [0]}},
                   "kind": {"family": "sigma", "index": 1, "level": 2, "kind": ["x"]}}, None),
    ],
)
def test_cli_verify_mistyped_witness_is_an_error(tmp_path, capsys, kind, witness, pattern):
    k5 = _k5(tmp_path)
    wfile = _write(tmp_path, "w.json", json.dumps(witness))
    extra = [] if pattern is None else ["--pattern", k5 if pattern == "k5" else pattern]
    assert main(["verify", kind, "--graph", k5, "--witness", wfile, *extra]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.out + captured.err
