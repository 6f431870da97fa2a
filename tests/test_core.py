"""Graph container, constructors, flow machinery, blocks, forests, deadlines."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from oracles import max_flow_by_dicts, random_graph, separator_cuts_everything
from surfembed import core
from surfembed.core import (
    Graph,
    MarkedGraph,
    SearchTimeout,
    blocks,
    complete_bipartite,
    complete_graph,
    cone,
    contract,
    cycle_graph,
    deadline_after,
    disjoint_union,
    identify_vertices,
    max_disjoint_paths,
    minimal_connecting_forest,
    norm_edge,
    path_graph,
    settled,
    time_left,
)


def test_edges_normalize_and_dedupe():
    g = Graph([0, 1, 2], [(2, 0), (0, 2), (1, 2)])
    assert g.sorted_edges() == [(0, 2), (1, 2)]
    assert norm_edge(5, 3) == (3, 5)
    assert g.neighbors(2) == (0, 1)
    assert g.degree(2) == 2 and g.degree(1) == 1


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])


def test_edge_endpoints_become_vertices():
    g = Graph([0, 1], [(0, 2)])
    assert g.vertices == frozenset([0, 1, 2])


def test_graph_equality_and_hash():
    a = Graph([0, 1, 2], [(0, 1)])
    b = Graph([2, 1, 0], [(1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph([0, 1, 2], [(0, 2)])


def test_constructors_sizes():
    assert complete_graph(5).m == 10
    assert complete_bipartite(3, 3).m == 9
    assert cycle_graph(6).m == 6
    assert path_graph(4).m == 3
    # offset shifts labels without changing shape
    shifted = complete_graph(4, offset=10)
    assert min(shifted.vertices) == 10 and shifted.m == 6


def test_disjoint_union_shifts_labels():
    g = disjoint_union([complete_graph(3), complete_graph(3)])
    assert g.n == 6 and g.m == 6
    assert len(g.components()) == 2
    assert g.vertices == frozenset(range(6))


def test_subgraph_and_removals():
    g = complete_graph(5)
    h = g.subgraph([0, 1, 2])
    assert h == complete_graph(3)
    assert g.remove_vertices([4]) == complete_graph(4)
    assert g.remove_edges([(0, 1)]).m == 9
    assert g.add_edges([(0, 1)]) == g


def test_components_and_cycle_rank():
    g = disjoint_union([cycle_graph(3), path_graph(3, offset=3)])
    assert sorted(len(c) for c in g.components()) == [3, 3]
    # rank = m - n + components
    assert g.cycle_rank() == 1
    assert complete_graph(5).cycle_rank() == 6
    assert path_graph(6).cycle_rank() == 0


def test_contract_triangle_to_edge():
    h, repmap = contract(cycle_graph(3), [(0, 1)])
    assert h.n == 2 and h.m == 1
    assert repmap[0] == repmap[1] != repmap[2]


def test_contract_chain_merges_transitively():
    g = path_graph(5)
    h, repmap = contract(g, [(1, 2), (2, 3)])
    assert h == Graph([0, 1, 4], [(0, 1), (1, 4)])
    assert repmap[3] == 1 and repmap[2] == 1


def test_identify_vertices_merges():
    g = path_graph(4)
    h = identify_vertices(g, 0, 3)
    assert h.n == 3 and h.cycle_rank() == 1


def test_cone_adds_apex_over_marked():
    g = cycle_graph(4)
    coned, apex = cone(g, [0, 2])
    assert apex not in g.vertices
    assert coned.degree(apex) == 2
    assert coned.m == g.m + 2


def test_marked_graph_validates():
    g = cycle_graph(3)
    mg = MarkedGraph(g, frozenset([0, 1]))
    assert mg.marked == frozenset([0, 1])
    with pytest.raises(ValueError):
        MarkedGraph(g, frozenset([7]))


def test_menger_on_k33():
    g = complete_bipartite(3, 3)
    ps = max_disjoint_paths(g, [0, 1, 2], [3, 4, 5])
    assert len(ps.paths) == 3
    assert len(ps.separator) == 3


def test_menger_trivial_path_on_overlap():
    g = path_graph(3)
    ps = max_disjoint_paths(g, [0, 1], [1, 2])
    assert any(len(p) == 1 for p in ps.paths)


def test_menger_duality_random(rng):
    # paths disjoint, endpoints right, and the separator meets every
    # source-sink path of the host (checked by exhaustive enumeration)
    for trial in range(120):
        n = rng.randrange(4, 11)
        g = random_graph(rng, n, 0.35)
        vs = sorted(g.vertices)
        a = frozenset(rng.sample(vs, rng.randrange(1, 4)))
        b = frozenset(rng.sample(vs, rng.randrange(1, 4)))
        ps = max_disjoint_paths(g, a, b)
        assert len(ps.paths) == len(ps.separator)
        seen: set[int] = set()
        for p in ps.paths:
            assert p[0] in a and p[-1] in b
            assert not (set(p) & seen)
            seen.update(p)
            for u, v in zip(p, p[1:]):
                assert g.has_edge(u, v)
        assert separator_cuts_everything(g, a, b, ps.separator)


def _flow_instance(rng):
    """A random graph on scattered ids, maybe with isolated vertices, and
    two endpoint sets that may overlap or hold a single vertex."""
    n = rng.randrange(1, 13)
    ids = rng.sample(range(3 * n + 40), n + 3)
    g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5))).relabel(dict(enumerate(ids)))
    if rng.random() < 0.5:
        g = Graph(g.vertices | set(ids[n:]), g.edges)
    vs = sorted(g.vertices)
    a = frozenset(rng.sample(vs, rng.randrange(1, min(4, len(vs)) + 1)))
    if rng.random() < 0.3:
        b = frozenset(rng.sample(sorted(a), 1)) | frozenset(rng.sample(vs, min(2, len(vs) - 1)))
    else:
        b = frozenset(rng.sample(vs, rng.randrange(1, min(4, len(vs)) + 1)))
    return g, a, b


def test_flow_matches_the_dict_oracle(rng):
    # the array flow returns the very paths, in decomposition order, and
    # the separator of the tuple-keyed flow it replaced
    seen = {"scattered": 0, "isolated": 0, "overlap": 0, "single": 0}
    for trial in range(2400):
        g, a, b = _flow_instance(rng)
        assert core._max_flow_paths(g, a, b) == max_flow_by_dicts(g, a, b)
        seen["scattered"] += max(g.vertices) >= g.n
        seen["isolated"] += any(g.degree(v) == 0 for v in g.vertices)
        seen["overlap"] += bool(a & b)
        seen["single"] += len(a) == 1 or len(b) == 1
    assert min(seen.values()) >= 300, seen


def _same_graph(h: Graph, ref: Graph) -> None:
    assert h == ref and hash(h) == hash(ref)
    assert h.vertices == ref.vertices and h.edges == ref.edges
    assert all(h.neighbors(v) == ref.neighbors(v) for v in ref.vertices)
    # the LR test numbers vertices in edge order: derived graphs keep it
    assert list(h.edges) == list(ref.edges)
    assert list(h.vertices) == list(ref.vertices)


def _subgraph_by_constructor(g: Graph, keep) -> Graph:
    keep = set(keep)
    return Graph(
        vertices=keep & g.vertices,
        edges=[e for e in g.edges if e[0] in keep and e[1] in keep],
    )


def test_derived_graphs_match_the_constructor(rng):
    # each derived graph equals the one Graph(...) builds from the same
    # parts, down to the iteration order of its vertex and edge sets; a
    # surgery that changes nothing returns the graph itself
    for trial in range(300):
        n = rng.randrange(2, 16)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
        g = g.relabel(dict(enumerate(rng.sample(range(4 * n + 60), n))))
        vs, es = sorted(g.vertices), sorted(g.edges)
        stray = max(vs) + 1
        assert g.remove_vertices(()) is g and g.remove_vertices([stray]) is g
        assert g.remove_edges(()) is g and g.remove_edges([(vs[0], stray)]) is g
        assert g.subgraph(vs + [stray]) is g
        h, rep = contract(g, ())
        assert h is g and rep == {v: v for v in vs}

        keep = set(rng.sample(vs, rng.randrange(0, n))) | {stray}
        _same_graph(g.subgraph(keep), _subgraph_by_constructor(g, keep))

        drop = rng.sample(vs, rng.randrange(1, n + 1))
        _same_graph(g.remove_vertices(drop),
                    _subgraph_by_constructor(g, g.vertices - set(drop)))

        if not es:
            continue
        gone = [e[::-1] for e in rng.sample(es, rng.randrange(1, len(es) + 1))]
        gone.append((vs[0], stray))
        _same_graph(g.remove_edges(gone), Graph(
            g.vertices, g.edges - {norm_edge(u, v) for u, v in gone}
        ))

        kept = [e[::-1] for e in rng.sample(es, rng.randrange(0, len(es) + 1))]
        norm = {norm_edge(u, v) for u, v in kept}
        _same_graph(g.edge_subgraph(kept), Graph({v for e in norm for v in e}, norm))


def test_blocks_two_triangles_at_cut():
    g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bs = blocks(g)
    assert len(bs.blocks) == 2
    assert bs.cut_vertices == frozenset([2])
    parts = [g.edge_subgraph(b) for b in bs.blocks]
    assert all(p.m == 3 for p in parts)


def test_blocks_partition_edges(rng):
    for trial in range(60):
        g = random_graph(rng, rng.randrange(3, 10), 0.3)
        bs = blocks(g)
        union: set = set()
        for b in bs.blocks:
            assert not (b & union)
            union |= b
        assert union == g.edges


def test_minimal_forest_leaves_are_terminals(rng):
    for trial in range(60):
        g = random_graph(rng, rng.randrange(3, 10), 0.4)
        vs = sorted(g.vertices)
        terms = set(rng.sample(vs, rng.randrange(1, len(vs) + 1)))
        f = minimal_connecting_forest(g, terms)
        assert f.cycle_rank() == 0
        fcomps = f.components()
        for comp in g.components():
            t = terms & comp
            if t:
                assert any(t <= fc for fc in fcomps)
        for v in f.vertices:
            if f.degree(v) <= 1:
                assert v in terms


def test_deadline_helpers():
    assert deadline_after(None) is None
    assert time_left(None) is None
    left = time_left(deadline_after(60.0))
    assert 0 < left <= 60.0
    with pytest.raises(SearchTimeout):
        time_left(deadline_after(0.0))
    with pytest.raises(SearchTimeout):
        time_left(deadline_after(-1.0))


def test_settled_raises_only_on_timeout():
    for status in ("ok", "absent", "exceeds-budget", "exhausted"):
        r = SimpleNamespace(status=status)
        assert settled(r) is r
    with pytest.raises(SearchTimeout):
        settled(SimpleNamespace(status="timeout"))
