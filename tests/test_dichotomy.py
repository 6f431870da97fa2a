"""Structure searches, the four dichotomy engines, and the classifier."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

import surfembed

from oracles import (
    connected_graphs_on,
    k2n_by_all_pairs,
    random_graph,
    random_tree,
    two_connected_by_all_pairs,
)
from surfembed.core import (
    Graph,
    MarkedGraph,
    PathSystem,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from surfembed.dichotomy import (
    CombStructure,
    _k2n_witness,
    _outerplanar,
    _through_paths,
    almost_outerplanar_dichotomy,
    classify,
    forest_contract_dichotomy,
    forest_edge_dichotomy,
    planar_vertex_flaws,
    star_comb,
    two_connected_structures,
    two_star_search,
    verify_comb,
)
from surfembed.decompose import verify_decomposition
from surfembed.embeddings import RotationSystem, planarity
from surfembed.minors import find_minor, verify_model
from surfembed.outerplanarity import NonPlanarInput, is_u_outerplanar
from surfembed.patterns import aux_pattern, build_pattern, sigma


def _star(leaves: int) -> Graph:
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def _circular_ladder(m: int) -> Graph:
    rim1 = [(i, (i + 1) % m) for i in range(m)]
    rim2 = [(m + i, m + (i + 1) % m) for i in range(m)]
    rungs = [(i, m + i) for i in range(m)]
    return Graph(range(2 * m), rim1 + rim2 + rungs)


def _wheel(m: int) -> Graph:
    rim = [(i, (i + 1) % m) for i in range(m)]
    spokes = [(m, i) for i in range(m)]
    return Graph(range(m + 1), rim + spokes)


def _check(g: Graph, u, s: CombStructure, kind: str, n: int):
    assert s is not None
    assert s.kind == kind
    assert s.level >= n
    ok, errs = verify_comb(g, frozenset(u), s)
    assert ok, errs


def test_star_on_a_star():
    g = _star(8)
    u = frozenset(range(1, 9))
    s = star_comb(g, u, 4)
    _check(g, u, s, "star", 4)
    assert s.centers == (0,)


def test_comb_on_a_path():
    g = path_graph(9)
    u = frozenset(g.vertices)
    s = star_comb(g, u, 3)
    _check(g, u, s, "comb", 3)
    assert len(s.spines) == 1


def test_star_comb_on_random_trees(rng):
    n = 3
    for trial in range(40):
        t = random_tree(rng, n * n + rng.randrange(0, 6))
        u = frozenset(t.vertices)
        s = star_comb(t, u, n)
        # trees with n*n marks always carry one of the two structures
        _check(t, u, s, s.kind, n)
        assert s.kind in ("star", "comb")


def test_star_comb_argument_checks():
    g = _star(3)
    with pytest.raises(ValueError):
        star_comb(g, frozenset([99]), 1)
    with pytest.raises(ValueError):
        star_comb(g, frozenset([1]), 0)


def test_structure_searches_reject_levels_below_one():
    # a level below 1 used to come back as a "found" structure of that level
    g = _star(3)
    u = frozenset([1, 2, 3])
    for n in (0, -3):
        with pytest.raises(ValueError, match="level must be >= 1"):
            two_star_search(g, u, n, d=1)
        with pytest.raises(ValueError, match="level must be >= 1"):
            two_connected_structures(g, u, n)
    with pytest.raises(ValueError):
        two_star_search(g, u, 2, d=-2)


def test_two_star_prefers_comb_when_one_exists():
    g = _star(8)
    u = frozenset(range(1, 9))
    s = two_star_search(g, u, 3, d=1)
    _check(g, u, s, "comb", 3)


def test_two_star_finds_dominating_set():
    # only 3 marks, so neither a level-4 comb nor a level-4 two-star fits
    g = _star(3)
    u = frozenset([1, 2, 3])
    s = two_star_search(g, u, 4, d=1)
    assert s is not None and s.kind == "dominating-set"
    ok, errs = verify_comb(g, u, s)
    assert ok, errs
    assert set(s.centers) == {0}


def test_two_star_on_subdivided_star():
    # center 0, middles 1..8, tips 9..16: a comb caps out at three teeth
    edges = [(0, i) for i in range(1, 9)] + [(i, i + 8) for i in range(1, 9)]
    g = Graph(range(17), edges)
    u = frozenset(range(9, 17))
    s = two_star_search(g, u, 4, d=0)
    _check(g, u, s, "two-star", 4)


def test_double_star_structure_on_k27():
    g = complete_bipartite(2, 7)
    u = frozenset(range(2, 9))
    s = two_connected_structures(g, u, 3)
    _check(g, u, s, "double-star", 3)
    assert len(s.centers) == 2


def test_ladder_on_circular_ladder():
    # at level 5 the cubic degrees rule out double stars and fans
    g = _circular_ladder(7)
    u = frozenset(g.vertices)
    s = two_connected_structures(g, u, 5)
    _check(g, u, s, "ladder", 5)
    assert len(s.spines) == 2


def test_double_star_preferred_on_circular_ladder():
    g = _circular_ladder(7)
    u = frozenset(g.vertices)
    s = two_connected_structures(g, u, 3)
    _check(g, u, s, "double-star", 3)


def _smallest_separator(g: Graph, x: int, y: int) -> int:
    """Brute force: the fewest vertices other than x and y whose deletion,
    with the edge xy, leaves no x-y path."""
    rest = sorted(g.vertices - {x, y})
    base = g.remove_edges([(x, y)])
    for k in range(len(rest) + 1):
        for cut in itertools.combinations(rest, k):
            if not any(y in c for c in base.remove_vertices(cut).components() if x in c):
                return k
    raise AssertionError("x and y cannot be separated")


def test_through_paths_match_menger(rng):
    # three paths of length 2 between 0 and 1, plus the direct edge 0-1
    hosts = [Graph(range(5), [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])]
    hosts += [random_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.8)) for _ in range(40)]
    for g in hosts:
        for x, y in itertools.combinations(g.sorted_vertices(), 2):
            paths = _through_paths(g, x, y)
            assert len(paths) == _smallest_separator(g, x, y), (sorted(g.edges), x, y)
            seen: set[int] = set()
            for p in paths:
                assert p[0] == x and p[-1] == y and len(p) >= 3
                assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                inner = set(p[1:-1])
                assert len(inner) == len(p) - 2 and not inner & ({x, y} | seen)
                seen |= inner
    assert len(_through_paths(hosts[0], 0, 1)) == 3


def test_fan_on_wheel():
    g = _wheel(7)
    u = frozenset(range(7))
    s = two_connected_structures(g, u, 3)
    _check(g, u, s, "fan", 3)
    assert len(s.spines) == 1


def test_verify_comb_rejects_tampering():
    g = _star(5)
    u = frozenset(range(1, 6))
    s = star_comb(g, u, 3)
    # inflated level
    fat = CombStructure(s.kind, s.carrier, s.spines, s.centers, level=9)
    ok, errs = verify_comb(g, u, fat)
    assert not ok
    # wrong center
    moved = CombStructure(s.kind, s.carrier, s.spines, (1,), s.level)
    ok, errs = verify_comb(g, u, moved)
    assert not ok
    # unknown kind
    alien = CombStructure("zigzag", s.carrier, s.spines, s.centers, s.level)
    ok, errs = verify_comb(g, u, alien)
    assert not ok


def test_forest_edge_flaw_is_spanning_forest_complement():
    out = forest_edge_dichotomy(cycle_graph(5), 2, 1)
    assert out.tag == "flaw-set"
    assert len(out.flaw) == 1
    g2 = cycle_graph(5).remove_edges(out.flaw)
    assert g2.cycle_rank() == 0
    # rank 1 > budget 0, but a single triangle cannot reach level 2
    out0 = forest_edge_dichotomy(cycle_graph(3), 2, 0)
    assert out0.tag == "budget-exhausted"


def test_forest_edge_witness_families():
    tri3 = disjoint_union([cycle_graph(3)] * 3)
    out = forest_edge_dichotomy(tri3, 3, 0)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind == "omegaK3" and pid.level == 3
    ok, errs = verify_model(tri3, aux_pattern("omegaK3", 3), model)
    assert ok, errs

    friendship = Graph(range(7), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4),
                                  (3, 4), (0, 5), (0, 6), (5, 6)])
    out = forest_edge_dichotomy(friendship, 3, 0)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind == "veeK3" and pid.level == 3
    ok, errs = verify_model(friendship, aux_pattern("veeK3", 3), model)
    assert ok, errs

    k25 = complete_bipartite(2, 5)
    out = forest_edge_dichotomy(k25, 4, 0)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind == "K2w" and pid.level == 4
    ok, errs = verify_model(k25, aux_pattern("K2w", 4), model)
    assert ok, errs


def test_forest_contract_flaw_is_minimum():
    g = complete_bipartite(2, 5)
    out = forest_contract_dichotomy(g, 2, 3)
    assert out.tag == "flaw-set"
    assert len(out.flaw) == 2
    from surfembed.core import contract

    q, _ = contract(g, out.flaw)
    assert q.cycle_rank() == 0


def test_forest_contract_exhausts_honestly():
    # bipartite host, no triangles anywhere, flaw needs 2 > budget
    out = forest_contract_dichotomy(complete_bipartite(2, 5), 2, 1)
    assert out.tag == "budget-exhausted"


def test_forest_contract_witness():
    tri3 = disjoint_union([cycle_graph(3)] * 3)
    out = forest_contract_dichotomy(tri3, 3, 2)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind == "omegaK3"
    ok, errs = verify_model(tri3, aux_pattern("omegaK3", 3), model)
    assert ok, errs


def test_outerplanar_flaw_empty_on_outerplanar():
    g = cycle_graph(6).add_edges([(0, 2), (0, 3)])
    out = almost_outerplanar_dichotomy(g, 1, 0)
    assert out.tag == "flaw-set" and out.flaw == frozenset()


def test_outerplanar_single_deletion():
    g = complete_graph(4)
    out = almost_outerplanar_dichotomy(g, 2, 1)
    assert out.tag == "flaw-set"
    assert len(out.flaw) == 1


def test_outerplanar_witnesses():
    k4s = disjoint_union([complete_graph(4)] * 2)
    out = almost_outerplanar_dichotomy(k4s, 2, 0)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind == "omegaK4" and pid.level == 2
    ok, errs = verify_model(k4s, aux_pattern("omegaK4", 2), model)
    assert ok, errs

    g1 = aux_pattern("G1", 3)
    out = almost_outerplanar_dichotomy(g1, 3, 0)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind in ("G1", "G2", "omegaK23")
    ok, errs = verify_model(g1, aux_pattern(pid.kind, pid.level), model)
    assert ok, errs


def test_outerplanar_matches_full_marking():
    for g in connected_graphs_on(6):
        try:
            want = isinstance(is_u_outerplanar(g, g.vertices), RotationSystem)
        except NonPlanarInput:
            want = False
        assert _outerplanar(g) == want, sorted(g.edges)


def test_planar_vertex_flaw_minimum():
    out = planar_vertex_flaws(complete_graph(6), 2, 2)
    assert out.tag == "flaw-set"
    assert len(out.flaw) == 2
    assert planarity(complete_graph(6).remove_vertices(out.flaw)).planar
    out0 = planar_vertex_flaws(cycle_graph(4), 1, 0)
    assert out0.tag == "flaw-set" and out0.flaw == frozenset()


def test_planar_vertex_witness_k5_pack():
    g = disjoint_union([complete_graph(5)] * 2)
    out = planar_vertex_flaws(g, 2, 1)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.family == "sigma" and pid.index == 1 and pid.level == 2
    ok, errs = verify_model(g, sigma(1, 2), model)
    assert ok, errs


def test_planar_vertex_witness_k33_pack():
    g = disjoint_union([complete_bipartite(3, 3)] * 2)
    out = planar_vertex_flaws(g, 2, 1)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.family == "sigma" and pid.index == 2 and pid.level == 2
    ok, errs = verify_model(g, sigma(2, 2), model)
    assert ok, errs


def _count_graph_builds(monkeypatch) -> list[int]:
    calls = [0]
    original = Graph.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    return calls


@pytest.mark.parametrize("engine, host, builds", [
    # contract(g, ()) is g itself: the tree is a forest already
    (forest_contract_dichotomy, path_graph(7), 0),
    # g.remove_vertices(()) is g itself: planarity builds no graph
    (planar_vertex_flaws, complete_bipartite(2, 5), 0),
    # g.remove_edges(()) is g itself: only the cone over it is built
    (almost_outerplanar_dichotomy, cycle_graph(8), 1),
], ids=["forest_contract", "planar_vertex", "almost_outerplanar"])
def test_empty_flaw_checks_copy_no_graph(monkeypatch, engine, host, builds):
    calls = _count_graph_builds(monkeypatch)
    out = engine(host, 2, 0)
    assert out.tag == "flaw-set" and out.flaw == frozenset()
    assert calls[0] == builds


def test_classify_planar_graph_gets_certificate():
    rep = classify(cycle_graph(6), 2, 1, 1)
    assert not rep.obstructed
    assert rep.flaw == frozenset()
    assert rep.certificate is not None
    ok, errs = verify_decomposition(cycle_graph(6), rep.certificate)
    assert ok, errs
    assert rep.bound == 0


def test_classify_recognizes_sigma5():
    g = sigma(5, 2)
    rep = classify(g, 2, 1, 0)
    assert rep.obstructed
    pid, model = rep.witnesses[0]
    assert pid.family == "sigma" and pid.level >= 2
    ok, errs = verify_model(g, sigma(pid.index, pid.level), model)
    assert ok, errs


def test_classify_direct_witness_without_flaw():
    g = disjoint_union([complete_graph(5)] * 2)
    rep = classify(g, 2, 1, 0)
    assert rep.obstructed
    pid, model = rep.witnesses[0]
    assert pid.family == "sigma" and pid.index == 1
    ok, errs = verify_model(g, sigma(1, 2), model)
    assert ok, errs


def test_classify_gives_up_honestly():
    # K6 minus nothing: flaw {a, b} exists at k=2; with k=0 and level 2
    # neither branch can fire, so the report carries only notes
    rep = classify(complete_graph(6), 2, 0, 0)
    assert not rep.obstructed
    assert rep.flaw is None
    assert rep.certificate is None
    assert rep.notes


_CLASSIFY_TIMEOUT_SCRIPT = """
import json, time
from surfembed.dichotomy import classify
from surfembed.patterns import sigma
start = time.monotonic()
rep = classify(sigma(5, 3), 4, 1, 2, timeout=2.0)
print(json.dumps({"elapsed": time.monotonic() - start,
                  "certified": rep.certificate is not None, "notes": rep.notes}))
"""


def test_classify_timeout_bounds_the_whole_call():
    # in a child process, so that a deadline that does not hold fails the
    # test instead of stalling the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfembed.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _CLASSIFY_TIMEOUT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["elapsed"] < 10
    assert not out["certified"]
    assert any("deadline" in note for note in out["notes"])


# G(20, 0.3) has no planarizing set of size 0, and the search for three
# disjoint K5 models in it runs past 20 s; the timeout must reach it
_PLANAR_VERTEX_TIMEOUT_SCRIPT = """
import json, random, time
from oracles import random_graph
from surfembed.core import SearchTimeout
from surfembed.dichotomy import classify, planar_vertex_flaws
g = random_graph(random.Random(5), 20, 0.3)
start = time.monotonic()
rep = classify(g, 3, 0, 1, timeout=1.0)
elapsed = time.monotonic() - start
try:
    planar_vertex_flaws(g, 3, 0, timeout=0.5)
    raised = False
except SearchTimeout:
    raised = True
print(json.dumps({"elapsed": elapsed, "witnesses": len(rep.witnesses),
                  "flaw": rep.flaw is not None, "certified": rep.certificate is not None,
                  "notes": rep.notes, "raised": raised}))
"""


def _run_with_oracles(script: str) -> dict:
    """Run script in a child process that imports surfembed and the
    oracles, so that a search that does not stop fails the test at the
    60 s timeout instead of stalling the suite; returns its JSON output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfembed.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_classify_timeout_reaches_planar_vertex_flaws():
    out = _run_with_oracles(_PLANAR_VERTEX_TIMEOUT_SCRIPT)
    assert out["elapsed"] < 10
    assert out["raised"]
    assert out["witnesses"] == 0 and not out["flaw"] and not out["certified"]
    assert out["notes"] == ["search deadline passed (1.0 s)"]


# this G(16, 0.35) has no planarizing set of size 0.  Three disjoint K3,3
# models do not fit its 16 vertices; three disjoint K5 models fit its 16
# vertices and 39 edges by count, but no packing holds them.  A search that
# also kept the largest partial packing ran for minutes; one that seeks
# only a complete packing gives up in milliseconds
_PLANAR_VERTEX_PACKING_SCRIPT = """
import json, random, time
from oracles import random_graph
from surfembed.dichotomy import planar_vertex_flaws
rng = random.Random(5)
g = [random_graph(rng, 16, 0.35) for _ in range(3)][-1]
start = time.monotonic()
out = planar_vertex_flaws(g, 3, 0)
print(json.dumps({"elapsed": time.monotonic() - start, "tag": out.tag}))
"""


def test_planar_vertex_flaws_settles_a_packing_that_cannot_complete():
    out = _run_with_oracles(_PLANAR_VERTEX_PACKING_SCRIPT)
    assert out["tag"] == "budget-exhausted"
    assert out["elapsed"] < 5


# a shape that passes each kind's arity checks, with one empty path
_EMPTY_PATH_SHAPES = {
    "star": ((), (0,)),
    "two-star": ((), (0,)),
    "comb": (((0, 1),), ()),
    "double-star": ((), (0, 1)),
    "ladder": (((0, 1), (2, 3)), ()),
    "fan": (((1, 2),), (0,)),
}


@pytest.mark.parametrize("kind", sorted(_EMPTY_PATH_SHAPES))
def test_verify_comb_reports_empty_path(kind):
    g = complete_graph(4)
    spines, centers = _EMPTY_PATH_SHAPES[kind]
    s = CombStructure(kind, PathSystem(((),), frozenset()), spines, centers, 1)
    ok, errs = verify_comb(g, g.vertices, s)
    assert not ok
    assert "path 0 is empty" in errs


def test_verify_comb_wants_cycle_spines():
    # _ladder_search and _fan_at take their spines from cycles; the path
    # 0-1-2-3 has none, and K4 less the edge 1-3 closes no cycle 1-2-3
    path = path_graph(4)
    ladder = CombStructure("ladder", PathSystem(((0, 1, 2, 3),), frozenset()),
                           ((0,), (3,)), (), 1)
    fan = CombStructure("fan", PathSystem(((0, 1),), frozenset()), ((1, 2),), (0,), 1)
    assert verify_comb(path, path.vertices, ladder) == (
        False, ["a spine is not a cycle of the graph"])
    assert verify_comb(path, path.vertices, fan) == (False, ["spine is not a cycle of the graph"])
    open_fan = CombStructure("fan", PathSystem(((0, 1),), frozenset()), ((1, 2, 3),), (0,), 1)
    k4 = complete_graph(4)
    assert verify_comb(k4, k4.vertices, open_fan) == (True, [])
    chord = k4.remove_edges([(1, 3)])
    assert verify_comb(chord, chord.vertices, open_fan) == (
        False, ["spine is not a cycle of the graph"])


def test_pair_filter_keeps_the_first_pair():
    # pairs without n neighbours besides each other run no flow; the
    # first pair with n paths, and so every witness and structure, stays
    for k in range(1, 7):
        for g in connected_graphs_on(k):
            for n in (2, 3):
                assert _k2n_witness(g, n) == k2n_by_all_pairs(g, n), sorted(g.edges)
            u = g.vertices
            assert two_connected_structures(g, u, 2) == two_connected_by_all_pairs(g, u, 2), (
                sorted(g.edges))


def test_verify_comb_reports_dominating_vertex_off_the_graph():
    g = _star(3)
    s = CombStructure("dominating-set", PathSystem((), frozenset()), (), (0, 99), 2)
    ok, errs = verify_comb(g, frozenset([1, 2, 3]), s)
    assert not ok
    assert "designated vertex 99 is not in the graph" in errs


# (engine, host, family returned, later families the host also contains)
_WITNESS_ORDER = [
    (forest_edge_dichotomy, lambda: complete_graph(6), "omegaK3", ("veeK3", "K2w")),
    (forest_edge_dichotomy, lambda: complete_graph(5), "veeK3", ("K2w",)),
    (forest_contract_dichotomy, lambda: complete_graph(6), "omegaK3", ("veeK3",)),
    (almost_outerplanar_dichotomy,
     lambda: disjoint_union([complete_graph(4)] * 2 + [complete_bipartite(2, 3)] * 2),
     "omegaK4", ("omegaK23", "K2w")),
    (almost_outerplanar_dichotomy,
     lambda: disjoint_union([aux_pattern("omegaK23", 2), aux_pattern("veeK4", 2)]),
     "omegaK23", ("veeK4", "K2w")),
    (almost_outerplanar_dichotomy,
     lambda: disjoint_union([aux_pattern("veeK4", 2), aux_pattern("G1", 2)]),
     "veeK4", ("G1", "K2w")),
    (almost_outerplanar_dichotomy, lambda: aux_pattern("G1", 2), "G1", ("K2w",)),
    (almost_outerplanar_dichotomy, lambda: aux_pattern("G2", 2), "G2", ("K2w",)),
]


@pytest.mark.parametrize(
    "engine, host, first, later", _WITNESS_ORDER,
    ids=[f"{engine.__name__}-{first}" for engine, _, first, _ in _WITNESS_ORDER],
)
def test_engine_returns_first_witness_family(engine, host, first, later):
    g = host()
    out = engine(g, 2, 0)
    assert out.tag == "witness"
    pid, model = out.witness
    assert pid.kind == first and pid.level == 2
    ok, errs = verify_model(g, aux_pattern(first, 2), model)
    assert ok, errs
    for kind in later:
        assert find_minor(g, aux_pattern(kind, 2), timeout=60).found, kind


def test_planar_vertex_tries_k5_before_k33():
    k5, k33 = complete_graph(5), complete_bipartite(3, 3)
    # both families are present as disjoint components; K5s come first
    out = planar_vertex_flaws(disjoint_union([k5, k5, k33, k33]), 2, 0)
    assert out.witness[0].index == 1
    # one K5 is too few for level 2, so the K33 family answers
    out = planar_vertex_flaws(disjoint_union([k5, k33, k33]), 2, 0)
    assert out.witness[0].index == 2


def test_engine_budget_notes():
    outs = [
        forest_edge_dichotomy(cycle_graph(3), 2, 0),
        forest_contract_dichotomy(complete_bipartite(2, 5), 2, 1),
        almost_outerplanar_dichotomy(complete_graph(4), 3, 0),
        planar_vertex_flaws(complete_graph(6), 2, 0),
    ]
    assert [(o.tag, o.detail) for o in outs] == [
        ("budget-exhausted", "cycle rank exceeds 0, no witness at level 2"),
        ("budget-exhausted", "no contraction set of size <= 1, no witness at level 2"),
        ("budget-exhausted", "no deletion set of size <= 0, no witness at level 3"),
        ("budget-exhausted", "no planarizing set of size <= 0, no witness at level 2"),
    ]
