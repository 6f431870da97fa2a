"""Canonical forms and isomorphism checks."""

from __future__ import annotations

from oracles import canonical_form, graphs_on, random_graph
from surfembed.core import Graph, complete_bipartite, cycle_graph, disjoint_union, path_graph
from surfembed.iso import are_isomorphic


def test_relabeling_preserves_canonical_form(rng):
    for trial in range(80):
        g = random_graph(rng, rng.randrange(2, 9), 0.4)
        vs = sorted(g.vertices)
        img = rng.sample(range(100), len(vs))
        h = g.relabel(dict(zip(vs, img)))
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)


def test_non_isomorphic_pairs():
    assert not are_isomorphic(cycle_graph(6), path_graph(6))
    # same degree sequence, different graphs
    assert not are_isomorphic(cycle_graph(6), Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    prism = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert not are_isomorphic(complete_bipartite(3, 3), prism)


def test_class_counts_match_known_sequence():
    # numbers of unlabeled graphs on 1..6 vertices
    assert [len(graphs_on(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


PETERSEN = Graph(
    range(10),
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_canonical_form_with_large_colour_classes():
    # colour refinement leaves every vertex of these regular graphs in one class
    c8 = cycle_graph(8)
    shuffled = c8.relabel({v: (3 * v + 5) % 8 + 20 for v in c8.vertices})
    assert canonical_form(c8) == canonical_form(shuffled)
    assert canonical_form(c8) != canonical_form(disjoint_union([cycle_graph(4), cycle_graph(4)]))
    relabeled = PETERSEN.relabel({v: 9 - v for v in PETERSEN.vertices})
    assert canonical_form(PETERSEN) == canonical_form(relabeled)
    assert canonical_form(PETERSEN) != canonical_form(complete_bipartite(5, 5).remove_edges(
        [(i, i + 5) for i in range(5)]))
