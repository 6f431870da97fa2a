"""The checkers accept good certificates and reject broken ones.

Run with: python3 -m pytest bench/test_checkers.py
"""

import networkx as nx
import pytest

import facts
from checkers import (
    CheckFailure,
    check_decomposition,
    check_kuratowski,
    check_minor_model,
    check_rotation,
    rotation_genus,
)


def planar_rotation(g: nx.Graph) -> dict:
    ok, emb = nx.check_planarity(g)
    assert ok
    return {v: list(emb.neighbors_cw_order(v)) for v in g}


def test_rotation_planar_grid_traces_to_genus_zero():
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
    check_rotation(g.edges, planar_rotation(g), 0)


def test_rotation_with_two_neighbours_swapped_is_rejected():
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
    rot = planar_rotation(g)
    centre = next(v for v in g if g.degree(v) == 4)
    rot[centre][0], rot[centre][1] = rot[centre][1], rot[centre][0]
    assert rotation_genus(g.edges, rot) == 1
    with pytest.raises(CheckFailure):
        check_rotation(g.edges, rot, 0)


def test_rotation_that_is_not_a_neighbour_order_is_rejected():
    g = nx.complete_graph(4)
    rot = planar_rotation(g)
    rot[0] = rot[0][:-1]
    with pytest.raises(CheckFailure):
        rotation_genus(g.edges, rot)


def test_rotation_genus_sums_over_components():
    # K5 with the rotation "neighbours in increasing order" has some genus;
    # two disjoint copies have twice that genus
    k5 = nx.complete_graph(5)
    rot = {v: sorted(k5[v]) for v in k5}
    one = rotation_genus(k5.edges, rot)
    both = nx.disjoint_union(k5, k5)
    rot2 = {v: sorted(both[v]) for v in both}
    assert one >= 1 and rotation_genus(both.edges, rot2) == 2 * one


def subdivided_k5():
    g = nx.complete_graph(5)
    g.remove_edge(0, 1)
    g.add_edges_from([(0, 9), (9, 1)])
    paths = {(i, j): [i, j] for i in range(5) for j in range(i + 1, 5)}
    paths[(0, 1)] = [0, 9, 1]
    return g, paths


def test_kuratowski_subdivision_is_accepted():
    g, paths = subdivided_k5()
    check_kuratowski(g.edges, "K5", range(5), paths)


def test_kuratowski_path_over_a_non_edge_is_rejected():
    g, paths = subdivided_k5()
    paths[(0, 1)] = [0, 1]
    with pytest.raises(CheckFailure):
        check_kuratowski(g.edges, "K5", range(5), paths)


def test_kuratowski_paths_that_share_an_interior_vertex_are_rejected():
    g, paths = subdivided_k5()
    g.add_edges_from([(2, 9), (9, 3)])
    paths[(2, 3)] = [2, 9, 3]
    with pytest.raises(CheckFailure):
        check_kuratowski(g.edges, "K5", range(5), paths)


def wheel_k4_model():
    # the wheel on a 6-cycle 1..6 with hub 0 contracts to K4
    host = nx.wheel_graph(7)
    bsets = {0: [0], 1: [1, 2], 2: [3, 4], 3: [5, 6]}
    conn = {(0, 1): (0, 1), (0, 2): (0, 3), (0, 3): (0, 5),
            (1, 2): (2, 3), (2, 3): (4, 5), (1, 3): (1, 6)}
    return host, bsets, conn


def test_minor_model_is_accepted():
    host, bsets, conn = wheel_k4_model()
    check_minor_model(host.edges, bsets, conn, nx.complete_graph(4))


def test_overlapping_branch_sets_are_rejected():
    host, bsets, conn = wheel_k4_model()
    bsets[2] = [2, 3, 4]
    with pytest.raises(CheckFailure):
        check_minor_model(host.edges, bsets, conn, nx.complete_graph(4))


def test_disconnected_branch_set_is_rejected():
    host, bsets, conn = wheel_k4_model()
    bsets[1] = [1, 3]
    bsets[2] = [2, 4]
    with pytest.raises(CheckFailure):
        check_minor_model(host.edges, bsets, conn, nx.complete_graph(4))


def test_model_of_the_wrong_pattern_is_rejected():
    host, bsets, conn = wheel_k4_model()
    del conn[(1, 3)]
    with pytest.raises(CheckFailure):
        check_minor_model(host.edges, bsets, conn, nx.complete_graph(4))


def test_marked_rule():
    host, bsets, conn = wheel_k4_model()
    theta1 = facts.theta(1)  # K4, every vertex marked
    check_minor_model(host.edges, bsets, conn, theta1, host_marked=[0, 2, 4, 6])
    with pytest.raises(CheckFailure):
        check_minor_model(host.edges, bsets, conn, theta1, host_marked=[0, 2, 4])


def test_decomposition_is_accepted():
    k5 = nx.complete_graph(5)
    rest = [e for e in k5.edges if e != (0, 1)]
    check_decomposition(k5.edges, [(range(5), rest), ([0, 1], [(0, 1)])])


def test_decomposition_with_a_non_planar_piece_is_rejected():
    k5 = nx.complete_graph(5)
    with pytest.raises(CheckFailure):
        check_decomposition(k5.edges, [(range(5), list(k5.edges))])


def test_decomposition_that_misses_an_edge_is_rejected():
    k5 = nx.complete_graph(5)
    rest = [e for e in k5.edges if e != (0, 1)]
    with pytest.raises(CheckFailure):
        check_decomposition(k5.edges, [(range(5), rest)])


def test_genus_formulas():
    assert [facts.genus_complete(n) for n in range(3, 10)] == [0, 0, 1, 1, 1, 2, 3]
    assert facts.genus_complete_bipartite(3, 3) == 1
    assert facts.genus_complete_bipartite(4, 5) == 2


def test_patterns_match_their_definitions():
    assert nx.is_isomorphic(facts.sigma(8, 2), nx.complete_bipartite_graph(3, 2))
    assert [nx.number_connected_components(facts.sigma(i, 3)) for i in (1, 2)] == [3, 3]
    # each theta is a minimal marked graph whose cone over the marks is not planar
    for i in range(1, 5):
        t = facts.theta(i)
        coned = nx.Graph(t)
        coned.add_edges_from(("apex", v) for v in t if t.nodes[v]["marked"])
        assert not nx.is_planar(coned)
    assert not facts.is_outerplanar(nx.complete_graph(4))
    assert facts.is_outerplanar(nx.cycle_graph(6))
