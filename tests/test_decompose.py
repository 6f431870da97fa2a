"""Planar-piece decompositions, genus bounds, contraction planarization."""

from __future__ import annotations

import time
import types

import networkx as nx
import pytest

import surfembed.decompose as decompose_module
from oracles import core_by_exact_genus, random_graph
from surfembed.core import (
    Graph,
    SearchTimeout,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    identify_vertices,
)
from surfembed.decompose import (
    Decomposition,
    contraction_planarize,
    decompose,
    genus_bound,
    overlap_report,
    verify_decomposition,
)
from surfembed.embeddings import BudgetExceeded, min_genus, planarity
from surfembed.patterns import sigma


def _wedge_of_k5s() -> Graph:
    return identify_vertices(disjoint_union([complete_graph(5), complete_graph(5)]), 4, 5)


def test_planar_host_is_one_piece():
    g = cycle_graph(4)
    d = decompose(g, 1)
    assert len(d.pieces) == 1 and d.pieces[0] == g
    assert d.core.m == 0
    assert d.overlaps == ()
    ok, errs = verify_decomposition(g, d)
    assert ok, errs


def test_decompose_k5():
    g = complete_graph(5)
    d = decompose(g, 1)
    ok, errs = verify_decomposition(g, d)
    assert ok, errs
    assert all(planarity(p).planar for p in d.pieces)
    assert genus_bound(d) >= 1


def test_decompose_k33():
    g = complete_bipartite(3, 3)
    d = decompose(g, 1)
    ok, errs = verify_decomposition(g, d)
    assert ok, errs
    assert genus_bound(d) >= 1


def test_decompose_respects_budget():
    with pytest.raises(BudgetExceeded):
        decompose(complete_graph(5), 0)


def test_decompose_disconnected_host():
    g = disjoint_union([complete_graph(5), complete_bipartite(3, 3), cycle_graph(3)])
    d = decompose(g, 2)
    ok, errs = verify_decomposition(g, d)
    assert ok, errs
    assert genus_bound(d) >= 2


def test_decompose_nonplanar_with_outgrowth():
    # K5 with a planar tail glued at one vertex
    g = complete_graph(5).add_edges([(4, 5), (5, 6), (6, 7), (5, 7)])
    d = decompose(g, 1)
    ok, errs = verify_decomposition(g, d)
    assert ok, errs
    assert genus_bound(d) >= 1


def test_genus_bound_counts_identifications():
    k5a, k5b = complete_graph(5), complete_graph(5, offset=4)
    # two K5 pieces sharing one vertex: 1 + 1 + one identification
    d = Decomposition((k5a, k5b), core=Graph())
    assert genus_bound(d) == 3
    # sharing two vertices costs one more
    k5c = complete_graph(5, offset=3)
    d2 = Decomposition((k5a, k5c), core=Graph())
    assert genus_bound(d2) == 4
    # three planar pieces through a common vertex: two identifications
    tris = (cycle_graph(3), cycle_graph(3).relabel({0: 0, 1: 3, 2: 4}),
            cycle_graph(3).relabel({0: 0, 1: 5, 2: 6}))
    d3 = Decomposition(tris, core=Graph())
    assert genus_bound(d3) == 2


def test_genus_bound_raises_over_budget():
    d = Decomposition((complete_graph(5),), core=Graph())
    with pytest.raises(BudgetExceeded):
        genus_bound(d, budget=0)


def test_verify_decomposition_catches_bad_claims():
    g = complete_graph(5)
    d = decompose(g, 1)
    # missing edges
    broken = Decomposition(d.pieces[1:], core=d.core)
    ok, errs = verify_decomposition(g, broken)
    assert not ok
    # stale overlap report
    lied = Decomposition(d.pieces, core=d.core, overlaps=())
    if overlap_report(list(d.pieces)):
        ok, errs = verify_decomposition(g, lied)
        assert not ok
    # nonplanar piece
    whole = Decomposition((g,), core=d.core, overlaps=())
    ok, errs = verify_decomposition(g, whole)
    assert not ok
    # overlap cap
    k5a, k5c = complete_graph(5), complete_graph(5, offset=3)
    host = Graph(list(range(8)), list(k5a.edges | k5c.edges))
    wide = Decomposition((k5a, k5c), core=Graph())
    ok, errs = verify_decomposition(host, wide, cap=1)
    assert any("cap" in e for e in errs)


def test_decomposition_normalizes_sequences():
    g = cycle_graph(3)
    d = Decomposition([g], core=Graph(), overlaps=[])
    assert isinstance(d.pieces, tuple)
    assert isinstance(d.overlaps, tuple)


def test_contraction_planarize_trivial_and_k5():
    assert contraction_planarize(cycle_graph(6), 2) == frozenset()
    f = contraction_planarize(complete_graph(5), 1)
    assert f is not None and len(f) == 1
    from surfembed.core import contract

    q, _ = contract(complete_graph(5), f)
    assert planarity(q).planar


def test_contraction_planarize_wedge_needs_two():
    g = _wedge_of_k5s()
    assert contraction_planarize(g, 1, timeout=1.0) is None
    f = contraction_planarize(g, 2, timeout=1.0)
    assert f is not None and len(f) <= 2
    from surfembed.core import contract

    q, _ = contract(g, f)
    assert planarity(q).planar


def test_contraction_planarize_bridged_k5s():
    g = disjoint_union([complete_graph(5), complete_graph(5)]).add_edges([(4, 5)])
    assert contraction_planarize(g, 1, timeout=1.0) is None
    f = contraction_planarize(g, 2, timeout=1.0)
    assert f is not None and len(f) <= 2


def test_contraction_planarize_timeout_bounds_the_fallback():
    # three K5s joined in a row by paths of 11 edges (m = 52) need three
    # contractions, so with k = 2 the fallback would try all 1 378 sets of
    # one or two edges, about 0.3 s, long after the deadline
    edges = [(5 * i + a, 5 * i + b) for i in range(3) for a in range(5) for b in range(a + 1, 5)]
    n = 15
    for i in range(2):
        path = [5 * i + 4, *range(n, n + 10), 5 * (i + 1)]
        n += 10
        edges += list(zip(path, path[1:]))
    g = Graph(range(n), edges)
    assert g.m == 52
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        contraction_planarize(g, 2, timeout=0.01)
    assert time.monotonic() - start < 0.5


def test_contraction_planarize_rejects_hopeless_k():
    assert contraction_planarize(complete_graph(5), 0) is None


def test_decompose_random_hosts(rng):
    for trial in range(20):
        g = random_graph(rng, rng.randrange(4, 8), 0.45)
        d = decompose(g, 3)
        ok, errs = verify_decomposition(g, d)
        assert ok, errs
        bound = genus_bound(d, budget=4)
        true = min_genus(g, budget=2)
        if true.status == "ok":
            assert bound >= true.genus


def test_decompose_module_is_not_shadowed():
    # the package must not re-export the function under the module's name
    assert isinstance(decompose_module, types.ModuleType)
    assert decompose_module.decompose is decompose


def test_decompose_timeout_raises_search_timeout():
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        decompose(sigma(5, 3), 2, timeout=1.0)
    assert time.monotonic() - start < 3.0


def _spy_min_genus(monkeypatch) -> list:
    timeouts = []

    def spy(g, budget, timeout=None):
        timeouts.append(timeout)
        return min_genus(g, budget, timeout=timeout)

    monkeypatch.setattr(decompose_module, "min_genus", spy)
    return timeouts


def test_decompose_stages_share_one_deadline(monkeypatch):
    timeouts = _spy_min_genus(monkeypatch)
    # K5 with a triangle tail: one genus call, then one per edge of the core search
    g = complete_graph(5).add_edges([(4, 5), (5, 6), (6, 7), (5, 7)])
    decompose(g, 1, timeout=30)
    assert len(timeouts) == 1 + g.m
    assert timeouts == sorted(timeouts, reverse=True)
    assert all(t < 30 for t in timeouts[1:])


def test_decompose_zero_timeout_starts_no_genus_search(monkeypatch):
    timeouts = _spy_min_genus(monkeypatch)
    with pytest.raises(SearchTimeout):
        decompose(complete_graph(5), 1, timeout=0.0)
    assert timeouts == []


def _decompose_corpus() -> dict[str, tuple[Graph, int]]:
    """The graphs the certify benchmark decomposes, with their genus."""
    pg = nx.petersen_graph()
    return {
        "K5": (complete_graph(5), 1),
        "K3,3": (complete_bipartite(3, 3), 1),
        "sigma5(2)": (sigma(5, 2), 1),
        "K5+tail": (complete_graph(5).add_edges([(4, 100), (100, 101), (101, 102), (100, 102)]), 1),
        "K3,3+tail": (complete_bipartite(3, 3).add_edges([(5, 100), (100, 101)]), 1),
        "K5+C6": (disjoint_union([complete_graph(5), cycle_graph(6)]), 1),
        "K6": (complete_graph(6), 1),
        "petersen": (Graph(pg.nodes, pg.edges), 1),
        "sigma3(2)": (sigma(3, 2), 2),
    }


def test_critical_core_matches_exact_genus_trials(rng):
    # a trial's yes/no question keeps the core the exact-genus loop keeps
    cases = list(_decompose_corpus().values())
    while len(cases) < 9 + 25:
        g = random_graph(rng, rng.randrange(5, 9), rng.choice((0.5, 0.65, 0.8)))
        r = min_genus(g, 2)
        if r.status == "ok" and r.genus > 0:
            cases.append((g, r.genus))
    for g, gamma in cases:
        assert min_genus(g, gamma).genus == gamma
        core = decompose_module._critical_core(g, gamma, None)
        assert core.edges == core_by_exact_genus(g, gamma).edges


def test_core_trials_ask_for_one_genus_less(monkeypatch):
    # one genus search at the budget, then one per edge at gamma - 1
    budgets = []

    def spy(g, budget, timeout=None):
        budgets.append(budget)
        return min_genus(g, budget, timeout=timeout)

    monkeypatch.setattr(decompose_module, "min_genus", spy)
    for g, gamma in _decompose_corpus().values():
        if len(g.components()) > 1:
            continue
        budgets.clear()
        decompose(g, 3)
        assert budgets == [3] + [gamma - 1] * g.m


def test_genus_bound_searches_no_planar_piece(monkeypatch):
    # every piece of a verified decomposition is planar, so it counts 0
    # without a genus search; the bounds are the ones the searches gave
    want = {"K5": 15, "K3,3": 12, "sigma5(2)": 29, "K5+tail": 16, "K3,3+tail": 13,
            "K5+C6": 15, "K6": 24, "petersen": 20, "sigma3(2)": 31}
    decomps = {name: decompose(g, 3) for name, (g, _) in _decompose_corpus().items()}
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return min_genus(*args, **kwargs)

    monkeypatch.setattr(decompose_module, "min_genus", spy)
    assert {name: genus_bound(d, 3) for name, d in decomps.items()} == want
    assert calls == []
