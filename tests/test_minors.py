"""Minor search, model verification, packing, composition."""

from __future__ import annotations

import itertools
import time

import networkx as nx
import pytest

import surfembed.minors as minors
from oracles import (
    connected_graphs_on,
    connected_subsets_by_sets,
    has_k4_minor,
    has_minor_by_partition,
    random_graph,
    seed_plan_by_sets,
)
from surfembed.core import (
    Graph,
    MarkedGraph,
    blocks,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from surfembed.minors import (
    MinorModel,
    find_marked_minor,
    find_minor,
    pack_bouquet,
    pack_disjoint,
    verify_marked_model,
    verify_model,
)
from surfembed.patterns import theta, u_copies, u_pattern

PETERSEN = Graph(
    range(10),
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_identity_minor():
    g = complete_graph(4)
    res = find_minor(g, g)
    assert res.found
    ok, errs = verify_model(g, g, res.model)
    assert ok, errs


def test_k5_minor_of_petersen():
    res = find_minor(PETERSEN, complete_graph(5))
    assert res.found
    ok, errs = verify_model(PETERSEN, complete_graph(5), res.model)
    assert ok, errs


def test_absent_when_host_too_small():
    res = find_minor(complete_graph(5), complete_bipartite(3, 3))
    assert res.status == "absent"


def test_c4_minor_of_c5_but_not_of_tree():
    assert find_minor(cycle_graph(5), cycle_graph(4)).found
    assert find_minor(path_graph(6), cycle_graph(4)).status == "absent"


def test_verify_model_catches_corruption():
    g = cycle_graph(5)
    res = find_minor(g, cycle_graph(4))
    m = res.model
    # split a connected branch set
    bs = dict(m.branch_sets)
    fat = next(pv for pv, b in bs.items() if len(b) == 2)
    lone = next(pv for pv, b in bs.items() if len(b) == 1)
    bs[fat], bs[lone] = frozenset([min(bs[fat]), *bs[lone]]), frozenset([max(bs[fat])])
    ok, errs = verify_model(g, cycle_graph(4), MinorModel(bs, m.connect_edges))
    assert not ok and errs
    # drop a connector
    ce = dict(m.connect_edges)
    ce.popitem()
    ok, errs = verify_model(g, cycle_graph(4), MinorModel(m.branch_sets, ce))
    assert not ok and errs
    # overlapping branch sets
    bs2 = dict(m.branch_sets)
    a, b = sorted(bs2)[:2]
    bs2[a] = bs2[a] | bs2[b]
    ok, errs = verify_model(g, cycle_graph(4), MinorModel(bs2, m.connect_edges))
    assert not ok and errs


def test_roots_pin_branch_sets():
    g = cycle_graph(6)
    res = find_minor(g, cycle_graph(3), roots={0: 4})
    assert res.found
    assert 4 in res.model.branch_sets[0]


def test_marked_minor_respects_marks():
    # host: 4-cycle marked on two opposite vertices
    host = MarkedGraph(cycle_graph(4), frozenset([0, 2]))
    patt = MarkedGraph(path_graph(2), frozenset([0, 1]))
    res = find_marked_minor(host, patt)
    assert res.found
    ok, errs = verify_marked_model(host, patt, res.model)
    assert ok, errs
    # every marked pattern vertex grabbed a marked host vertex
    for pv in patt.marked:
        assert res.model.branch_sets[pv] & host.marked
    # demand three marked endpoints of a path with only two marked hosts
    patt3 = MarkedGraph(path_graph(3), frozenset([0, 1, 2]))
    assert find_marked_minor(host, patt3).status == "absent"


def test_verify_marked_model_checks_marks():
    host = MarkedGraph(cycle_graph(4), frozenset([0, 2]))
    patt = MarkedGraph(path_graph(2), frozenset([0]))
    res = find_marked_minor(host, patt)
    assert res.found
    # swap in a branch set that misses the marks for a marked pattern vertex
    bs = dict(res.model.branch_sets)
    marked_pv = 0
    bs[marked_pv] = bs[marked_pv] - host.marked or frozenset([1])
    from surfembed.minors import MarkedMinorModel

    bad = MarkedMinorModel(bs, res.model.connect_edges, host.marked)
    ok, errs = verify_marked_model(host, patt, bad)
    assert not ok


def test_pack_disjoint_two_triangles():
    g = disjoint_union([cycle_graph(3), cycle_graph(3)])
    res = pack_disjoint(g, cycle_graph(3), 2)
    assert res.complete and res.exhausted
    assert len(res.models) == 2
    supports = [m.support() for m in res.models]
    assert not (supports[0] & supports[1])


def test_pack_disjoint_certifies_shortfall():
    res = pack_disjoint(cycle_graph(3), cycle_graph(3), 2)
    assert not res.complete and res.exhausted
    assert len(res.models) == 1


def test_pack_disjoint_counting_bound():
    # two disjoint K5 models need 10 vertices; K9 has 9
    start = time.monotonic()
    res = pack_disjoint(complete_graph(9), complete_graph(5), 2, timeout=5)
    assert not res.complete and res.exhausted
    assert time.monotonic() - start < 1.0


def test_pack_bouquet_friendship():
    # three triangles through one shared vertex
    g = Graph(range(7), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)])
    res = pack_bouquet(g, cycle_graph(3), hub=0, n=3)
    assert res.complete
    assert res.hub_vertex == 0
    supports = [m.support() for m in res.models]
    for i in range(3):
        for j in range(i + 1, 3):
            assert supports[i] & supports[j] == {0}
    for m in res.models:
        assert 0 in m.branch_sets[0]


def test_pack_bouquet_impossible_on_path():
    res = pack_bouquet(path_graph(5), cycle_graph(3), hub=0, n=1)
    assert not res.complete and res.exhausted


def test_pack_bouquet_counting_bound(monkeypatch):
    # two K4 copies through one hub need 2*3 + 1 = 7 vertices; K6 has 6,
    # so each hub candidate is settled by one greedy chain of streams
    calls = [0]
    stream = minors._model_stream

    def counted(*args, **kwargs):
        calls[0] += 1
        return stream(*args, **kwargs)

    monkeypatch.setattr(minors, "_model_stream", counted)
    res = pack_bouquet(complete_graph(6), complete_graph(4), hub=0, n=2)
    assert not res.complete and res.exhausted
    assert len(res.models) == 1
    assert calls[0] <= 2 * 6


def test_pack_bouquet_hub_independent_bound(monkeypatch):
    # the top-level bound does not depend on the hub vertex, so only the
    # first hub candidate is tried
    calls = [0]
    stream = minors._model_stream

    def counted(*args, **kwargs):
        calls[0] += 1
        return stream(*args, **kwargs)

    monkeypatch.setattr(minors, "_model_stream", counted)
    res = pack_bouquet(complete_graph(6), complete_graph(4), hub=0, n=2)
    assert not res.complete and res.exhausted
    assert calls[0] <= 2


def test_model_stream_one_model_per_twin_orbit():
    k5, k33 = complete_graph(5), complete_bipartite(3, 3)
    assert sum(1 for _ in minors._model_stream(k5, k5)) == 1
    # the swap of the two sides is not a twin swap
    assert sum(1 for _ in minors._model_stream(k33, k33)) == 2


def test_mask_enumerator_keeps_the_set_enumerator_order(rng):
    # ids spread out so that bit positions and vertex ids differ
    for trial in range(40):
        n = rng.randrange(2, 10)
        g = random_graph(rng, n, 0.45).relabel({v: 3 * v + 1 for v in range(n)})
        host = minors._Host(g)

        def ids(mask):
            return {host.ids[i] for i in minors._bits(mask)}

        vs = g.sorted_vertices()
        allowed = {v for v in vs if rng.random() < 0.8}
        mask = host.mask(allowed)
        for cap in (1, 2, 3, n):
            for root in (None, rng.choice(vs)):
                above = rng.choice([-1] + vs)
                expect = list(connected_subsets_by_sets(
                    g, allowed, seed_plan_by_sets(allowed, root, above), cap))
                seeds = minors._seed_plan(
                    mask, None if root is None else host.bit[root],
                    -1 if above < 0 else host.bit[above])
                got = list(minors._connected_subsets(host.nbr, mask, seeds, cap, lambda: None))
                assert [ids(c) for c, _ in got] == expect, (trial, cap, root, above)
                for (c, near), want in zip(got, expect):
                    assert ids(near) == {w for v in want for w in g.neighbors(v)}
                    # built in the order the set enumerator added them, so
                    # the frozensets also iterate alike
                    seed = host.bit[root] if root is not None else (c & -c).bit_length() - 1
                    assert list(host.branch_set(c, seed)) == list(want)


def _count_subset_calls(monkeypatch) -> list[int]:
    calls = [0]
    subsets = minors._connected_subsets

    def counted(*args, **kwargs):
        calls[0] += 1
        return subsets(*args, **kwargs)

    monkeypatch.setattr(minors, "_connected_subsets", counted)
    return calls


def test_connected_pattern_stays_in_one_host_component(monkeypatch):
    # the K5 component holds no K33; once a first branch set lands there,
    # the other branch sets are not sought in the two K33 components
    k33 = complete_bipartite(3, 3)
    host = disjoint_union([complete_graph(5), k33, k33])
    calls = _count_subset_calls(monkeypatch)
    res = find_minor(host, k33)
    assert res.found and res.model.support() == set(range(5, 11))
    assert calls[0] <= 20
    calls[0] = 0
    res = pack_disjoint(host, k33, 2)
    assert res.complete
    _check_packing(host, k33, res)
    assert calls[0] <= 40


def test_pack_skips_supports_that_already_failed(monkeypatch):
    # a 4-cycle with two pendant edges has one cycle, so no two K3 models
    # meet in one vertex; once a model's residue fails, no model whose
    # support contains that model's drop is streamed again (80 without)
    g = Graph(range(6), [(0, 4), (0, 5), (1, 4), (1, 5), (2, 5), (3, 5)])
    received = [0]
    stream = minors._model_stream

    def counted(*args, **kwargs):
        for model in stream(*args, **kwargs):
            received[0] += 1
            yield model

    monkeypatch.setattr(minors, "_model_stream", counted)
    res = pack_bouquet(g, complete_graph(3), hub=0, n=2)
    assert not res.complete and res.exhausted and len(res.models) == 1
    assert received[0] <= 10


def test_pack_skip_keeps_the_best_partial_packing():
    # four disjoint K2 models do not fit.  The unpruned search first
    # reaches three copies under {0}, {4, 5, 6}; a top-level skip of every
    # superset of a failed drop, whatever the best so far, would cut that
    # subtree and return three copies starting {0}, {5} instead
    g = Graph(range(8), [(0, 5), (1, 7), (2, 3), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)])
    res = pack_disjoint(g, path_graph(2), 4)
    assert not res.complete and res.exhausted
    assert [m.branch_sets for m in res.models] == [
        {0: {0}, 1: {4, 5, 6}}, {0: {1}, 1: {7}}, {0: {2}, 1: {3}},
    ]


def test_icosahedron_has_no_k5_minor(monkeypatch):
    # settled by planarity; the whole-host search makes 291 372 subset calls
    calls = _count_subset_calls(monkeypatch)
    ico = nx.icosahedral_graph()
    res = find_minor(Graph(ico.nodes, ico.edges), complete_graph(5), timeout=120)
    assert res.status == "absent" and calls[0] == 0


def test_planar_host_cone_settles_a_marked_search(monkeypatch):
    # the cone over six boundary vertices of a 4x4 grid is planar and the
    # cone over theta1 is K5; the whole-host search makes 182 951 calls
    calls = _count_subset_calls(monkeypatch)
    grid = Graph(range(16), [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
                 + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)])
    res = find_marked_minor(MarkedGraph(grid, frozenset({0, 1, 3, 12, 13, 15})), theta(1))
    assert res.status == "absent" and calls[0] == 0


def test_blocks_settle_the_rooted_theta_searches(monkeypatch):
    # three K2,3 blocks glued at 1, their 3-sides marked: the host that
    # classify/sigma7(3) hands to the bouquet stage.  No theta rooted at
    # 1 by its hub fits in one block; the whole-host searches make
    # 5 312 + 3 079 + 8 695 + 3 319 subset calls
    edges, marks = [], set()
    for b in range(3):
        other, side = 4 * b + 2, range(4 * b + 3, 4 * b + 6)
        edges += [(x, y) for x in (1, other) for y in side]
        marks.update(side)
    host = MarkedGraph(Graph([], edges), frozenset(marks))
    calls = _count_subset_calls(monkeypatch)
    for i in (1, 2, 3, 4):
        hub = u_copies(i, False, 1)[0]
        assert find_marked_minor(host, theta(i), roots={hub: 1}).status == "absent"
    assert calls[0] <= 20


# patterns rich in twins: every vertex of K3 and K4, the leaves of K1,3,
# the opposite corners of C4 and both sides of K2,3
TWIN_PATTERNS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "K13": complete_bipartite(1, 3),
    "C4": cycle_graph(4),
    "K23": complete_bipartite(2, 3),
}
SMALL_HOSTS = [g for n in range(1, 7) for g in connected_graphs_on(n)]


@pytest.mark.parametrize("name", sorted(TWIN_PATTERNS))
def test_find_minor_matches_partition_oracle(name):
    h = TWIN_PATTERNS[name]
    for g in SMALL_HOSTS:
        res = find_minor(g, h)
        assert res.found == has_minor_by_partition(g, h), (name, sorted(g.edges))
        if res.found:
            ok, errs = verify_model(g, h, res.model)
            assert ok, errs


# twins that differ only in their mark fall into different classes
MARKED_TWIN_PATTERNS = [
    ("K3", frozenset({0, 1})),
    ("K4", frozenset({0, 1})),
    ("K13", frozenset({1})),
    ("C4", frozenset({0})),
    ("K23", frozenset({2})),
]


@pytest.mark.parametrize("name, h_marked", MARKED_TWIN_PATTERNS)
def test_find_marked_minor_matches_partition_oracle(name, h_marked):
    h = MarkedGraph(TWIN_PATTERNS[name], h_marked)
    for g in SMALL_HOSTS:
        vs = g.sorted_vertices()
        for g_marked in ({vs[0]}, set(vs[::2]), set(vs[1::2])):
            host = MarkedGraph(g, frozenset(g_marked))
            res = find_marked_minor(host, h)
            expect = has_minor_by_partition(g, h.graph, host.marked, h_marked)
            assert res.found == expect, (name, sorted(g.edges), sorted(g_marked))
            if res.found:
                ok, errs = verify_marked_model(host, h, res.model)
                assert ok, errs


# a rooted pattern vertex leaves its twin class; the rest stay twins
ROOTED_TWIN_PATTERNS = [("K3", 0), ("K4", 0), ("K13", 1), ("C4", 0), ("K23", 0), ("K23", 2)]


@pytest.mark.parametrize("name, pinned", ROOTED_TWIN_PATTERNS)
def test_rooted_find_minor_matches_partition_oracle(name, pinned):
    h = TWIN_PATTERNS[name]
    for g in SMALL_HOSTS:
        for v in g.sorted_vertices():
            res = find_minor(g, h, roots={pinned: v})
            expect = has_minor_by_partition(g, h, roots={pinned: v})
            assert res.found == expect, (name, sorted(g.edges), v)
            if res.found:
                ok, errs = verify_model(g, h, res.model)
                assert ok, errs
                assert v in res.model.branch_sets[pinned]


def _subsets(vs, lo, hi):
    return [frozenset(c) for r in range(lo, hi + 1) for c in itertools.combinations(vs, r)]


def _check_packing(g, h, res, hub=None):
    supports = [m.support() for m in res.models]
    for m in res.models:
        ok, errs = verify_model(g, h, m)
        assert ok, errs
    for a, b in itertools.combinations(supports, 2):
        assert a & b == (set() if hub is None else {res.hub_vertex})
    if hub is not None and res.models:
        assert all(res.hub_vertex in m.branch_sets[hub] for m in res.models)


@pytest.mark.parametrize("name", ["K3", "K13"])
def test_packing_matches_partition_oracle(name):
    h = TWIN_PATTERNS[name]
    for g in SMALL_HOSTS:
        # each of two copies needs |V(h)| vertices, sharing at most one
        sets = _subsets(g.sorted_vertices(), h.n, g.n - h.n)
        holds = {s: has_minor_by_partition(g.subgraph(s), h) for s in sets}
        expect = any(holds[a] and holds[b] for a in sets for b in sets if not a & b)
        res = pack_disjoint(g, h, 2)
        assert res.exhausted and res.complete == expect, (name, sorted(g.edges))
        _check_packing(g, h, res)
        sets = _subsets(g.sorted_vertices(), h.n, g.n - h.n + 1)
        for hub in h.sorted_vertices():
            rooted = {
                (s, z): has_minor_by_partition(g.subgraph(s), h, roots={hub: z})
                for s in sets
                for z in s
            }
            expect = any(
                rooted[a, z] and rooted[b, z]
                for a in sets
                for b in sets
                if len(a & b) == 1
                for z in a & b
            )
            res = pack_bouquet(g, h, hub, 2)
            assert res.exhausted and res.complete == expect, (name, hub, sorted(g.edges))
            _check_packing(g, h, res, hub)


def test_minor_search_matches_subdivision_oracle(rng):
    # for max-degree-3 patterns, minor and subdivision containment agree
    k4 = complete_graph(4)
    for trial in range(80):
        g = random_graph(rng, rng.randrange(4, 9), 0.4)
        res = find_minor(g, k4)
        assert res.status in ("found", "absent")
        assert res.found == has_k4_minor(g)
        if res.found:
            ok, errs = verify_model(g, k4, res.model)
            assert ok, errs


def test_pack_rejects_bad_count():
    with pytest.raises(ValueError):
        pack_disjoint(cycle_graph(3), cycle_graph(3), 0)
    with pytest.raises(ValueError):
        pack_bouquet(cycle_graph(3), cycle_graph(3), hub=0, n=0)


def _glued_blocks(rng) -> Graph:
    """Two to four small random graphs, each glued to the union so far
    at one or two vertices (or at none, as another component), with the
    ids shuffled."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 5)
        shared = rng.sample(range(n), min(n, rng.choice((0, 1, 1, 2, 2))))
        ids = shared + list(range(n, n + size - len(shared)))
        n += size - len(shared)
        local = random_graph(rng, size, 0.75)
        edges += [(ids[u], ids[v]) for u, v in local.edges if ids[u] != ids[v]]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(perm, [(perm[u], perm[v]) for u, v in edges])


def test_block_refutation_matches_exhaustive(rng, monkeypatch):
    # the verdict is the exhaustive whole-host stream's, and a found
    # model is that stream's first model.  A 2-connected pattern absent
    # from a host with several blocks is settled before the whole host
    # is searched: by the projection, no block holds a model.  The last
    # pattern is not 2-connected, so no block search may answer for it
    patterns = [theta(i) for i in (1, 2, 3, 4)] + [
        MarkedGraph(complete_graph(4), frozenset()),
        MarkedGraph(complete_bipartite(2, 3), frozenset()),
        MarkedGraph(complete_graph(5), frozenset()),
        MarkedGraph(complete_graph(3), frozenset({0, 1})),
        u_pattern(5, False, 2),
        u_pattern(5, False, 3),
        # a cut vertex: two triangles at one vertex span two blocks
        MarkedGraph(Graph(range(5), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
                    frozenset({1, 3})),
    ]
    stream = minors._model_stream
    whole = [0]

    def counted(*args, **kwargs):
        whole[0] += kwargs.get("free") is None
        return stream(*args, **kwargs)

    monkeypatch.setattr(minors, "_model_stream", counted)
    settled = 0
    for _ in range(45):
        g = _glued_blocks(rng)
        host = MarkedGraph(g, frozenset(v for v in g.vertices if rng.random() < 0.4))
        several = len(blocks(g).blocks) > 1
        for h in patterns:
            pinned = rng.sample(sorted(h.graph.vertices), rng.randint(0, 2))
            roots = {p: rng.choice(sorted(g.vertices)) for p in pinned} or None
            first = next(stream(
                g, h.graph, g_marked=host.marked, h_marked=h.marked, roots=roots
            ), None)
            whole[0] = 0
            if h.marked:
                res = find_marked_minor(host, h, roots=roots)
            else:
                res = find_minor(g, h.graph, roots=roots)
            assert res.status == ("absent" if first is None else "found")
            if first is not None:
                assert (res.model.branch_sets, res.model.connect_edges) == first
            elif several and h is not patterns[-1]:
                assert whole[0] == 0, (sorted(g.edges), h, roots)
                settled += 1
    assert settled > 150
