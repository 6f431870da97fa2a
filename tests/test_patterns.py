"""The obstruction-pattern catalog: builders, copies, conversions."""

from __future__ import annotations

import random

import pytest

from oracles import glued_by_family, layout_by_family
from surfembed.core import Graph, MarkedGraph, complete_bipartite, complete_graph, cone, norm_edge
from surfembed.iso import are_isomorphic
from surfembed.minors import MarkedMinorModel, MinorModel, verify_marked_model, verify_model
from surfembed.patterns import (
    PatternId,
    aux_pattern,
    build_pattern,
    convert_to_sigma,
    copies,
    glue_models,
    omega_theta,
    sigma,
    theta,
    u_pattern,
    verify_catalog,
)

# every pattern glued from copies of one block, with the number of block
# vertices its copies share
COPY_GLUED = (
    [(("sigma", i, None), k) for i, k in {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2}.items()]
    + [(("u", i, None), 1) for i in range(1, 5)]
    + [(("uprime", i, None), 1) for i in range(2, 5)]
    + [(("omega-theta", i, None), 0) for i in range(1, 5)]
    + [(("aux", 0, k), 1 if k in ("veeK3", "veeK4", "G1", "G2") else 0)
       for k in PatternId._AUX_KINDS if k != "K2w"]
)


def _copy_glued(n: int) -> list[tuple[PatternId, int]]:
    return [(PatternId(f, i, n, k), hubs) for (f, i, k), hubs in COPY_GLUED]


def test_pattern_id_validation():
    PatternId("theta", 4)
    PatternId("sigma", 8, 3)
    PatternId("aux", kind="G1", level=2)
    with pytest.raises(ValueError):
        PatternId("theta", 5)
    with pytest.raises(ValueError):
        PatternId("uprime", 1, 2)
    with pytest.raises(ValueError):
        PatternId("sigma", 9, 2)
    with pytest.raises(ValueError):
        PatternId("theta", 1, level=2)
    with pytest.raises(ValueError):
        PatternId("u", 1)
    with pytest.raises(ValueError):
        PatternId("aux", kind="K99", level=1)
    with pytest.raises(ValueError):
        PatternId("nope", 1, 1)


def test_pattern_id_labels():
    assert PatternId("theta", 2).label() == "theta2"
    assert PatternId("sigma", 5, 3).label() == "sigma5(3)"
    assert PatternId("aux", kind="K2w", level=4).label() == "aux:K2w(4)"


def test_theta_sizes():
    sizes = {i: (theta(i).graph.n, theta(i).graph.m, len(theta(i).marked)) for i in range(1, 5)}
    assert sizes == {1: (4, 6, 4), 2: (5, 9, 2), 3: (5, 6, 3), 4: (6, 8, 2)}


def test_theta1_is_marked_k4():
    t = theta(1)
    assert are_isomorphic(t.graph, complete_graph(4))
    assert t.marked == t.graph.vertices


def test_sigma_level_one_collapses():
    # at level 1 the eight families give just K5 and K33
    assert are_isomorphic(sigma(1, 1), complete_graph(5))
    for i in (3, 5):
        assert are_isomorphic(sigma(i, 1), complete_graph(5))
    for i in (2, 4, 6, 7):
        assert are_isomorphic(sigma(i, 1), complete_bipartite(3, 3))
    assert are_isomorphic(sigma(8, 1), complete_bipartite(3, 1))


def test_sigma_sizes_level_two_and_three():
    sizes = {(i, n): (sigma(i, n).n, sigma(i, n).m) for i in range(1, 9) for n in (2, 3)}
    assert sizes == {
        (1, 2): (10, 20), (1, 3): (15, 30),
        (2, 2): (12, 18), (2, 3): (18, 27),
        (3, 2): (9, 20), (3, 3): (13, 30),
        (4, 2): (11, 18), (4, 3): (16, 27),
        (5, 2): (8, 19), (5, 3): (11, 28),
        (6, 2): (10, 17), (6, 3): (14, 25),
        (7, 2): (10, 18), (7, 3): (14, 27),
        (8, 2): (5, 6), (8, 3): (6, 9),
    }


def test_sigma8_is_complete_bipartite():
    assert are_isomorphic(sigma(8, 4), complete_bipartite(3, 4))


def _assert_copies_overlap_only_on_shared(pid: PatternId, n_shared: int) -> None:
    block, shared, maps = copies(pid)
    assert len(maps) == pid.level and len(shared) == n_shared, pid.label()
    g = build_pattern(pid)
    g = g.graph if isinstance(g, MarkedGraph) else g
    base = block.graph if isinstance(block, MarkedGraph) else block
    images = [frozenset(m.values()) for m in maps]
    assert all(m[s] == s for m in maps for s in shared)
    for a in range(len(maps)):
        assert images[a] <= g.vertices
        for b in range(a + 1, len(maps)):
            assert images[a] & images[b] == frozenset(shared), pid.label()
    # copy maps embed the block edge-faithfully
    for m in maps:
        assert sorted(m) == sorted(base.vertices)
        for u, v in base.edges:
            assert g.has_edge(m[u], m[v])


def test_sigma_copies_overlap_only_on_shared():
    for pid in (PatternId("sigma", 8, 2), PatternId("u", 5, 2), PatternId("theta", 1),
                PatternId("aux", kind="K2w", level=2)):
        with pytest.raises(ValueError):
            copies(pid)
    for pid, n_shared in _copy_glued(3):
        if pid.family != "aux":
            _assert_copies_overlap_only_on_shared(pid, n_shared)


def test_aux_copies_glue_discipline():
    hub_kinds = {"veeK3", "veeK4", "G1", "G2"}
    for pid, n_shared in _copy_glued(3):
        if pid.family != "aux":
            continue
        _assert_copies_overlap_only_on_shared(pid, n_shared)
        images = [frozenset(m.values()) for m in copies(pid)[2]]
        for a in range(3):
            for b in range(a + 1, 3):
                overlap = images[a] & images[b]
                if pid.kind in hub_kinds:
                    assert len(overlap) == 1
                else:
                    assert not overlap


def test_copies_match_the_per_family_layouts():
    # the per-family layout formulas fix every vertex id, and the edge
    # order, on which LR answers depend
    for n in range(1, 5):
        for pid, _ in _copy_glued(n):
            block, shared, maps = copies(pid)
            want_block, want_shared, want_maps = layout_by_family(pid)
            assert block == want_block and shared == want_shared, pid.label()
            assert maps == want_maps, pid.label()
            got, want = build_pattern(pid), glued_by_family(pid)
            assert type(got) is type(want), pid.label()
            if isinstance(want, MarkedGraph):
                assert got.marked == want.marked, pid.label()
                got, want = got.graph, want.graph
            assert got.vertices == want.vertices and got.edges == want.edges, pid.label()
            assert list(got.vertices) == list(want.vertices), pid.label()
            assert list(got.edges) == list(want.edges), pid.label()


def test_glued_copies_model_the_pattern():
    # copy j's placement in the pattern is a model of the block; gluing
    # one per copy gives the pattern's identity model
    for n in range(1, 5):
        for pid, _ in _copy_glued(n):
            block, _, maps = copies(pid)
            base = block.graph if isinstance(block, MarkedGraph) else block
            models = [
                MinorModel({b: frozenset({m[b]}) for b in base.vertices},
                           {e: norm_edge(m[e[0]], m[e[1]]) for e in base.edges})
                for m in maps
            ]
            pattern = build_pattern(pid)
            if isinstance(pattern, MarkedGraph):
                glued = glue_models(pid, models, pattern.marked)
                assert isinstance(glued, MarkedMinorModel)
                ok, errs = verify_marked_model(pattern, pattern, glued)
                g = pattern.graph
            else:
                glued = glue_models(pid, models)
                ok, errs = verify_model(pattern, pattern, glued)
                g = pattern
            assert ok, (pid.label(), errs)
            assert glued.branch_sets == {p: frozenset({p}) for p in g.vertices}, pid.label()
            assert glued.connect_edges == {e: e for e in g.edges}, pid.label()


def test_u_pattern_sizes():
    sizes = {(i, n): (u_pattern(i, False, n).graph.n, u_pattern(i, False, n).graph.m,
                      len(u_pattern(i, False, n).marked))
             for i in range(1, 6) for n in (1, 2)}
    assert sizes == {
        (1, 1): (4, 6, 4), (1, 2): (7, 12, 7),
        (2, 1): (5, 9, 2), (2, 2): (9, 18, 3),
        (3, 1): (5, 6, 3), (3, 2): (9, 12, 5),
        (4, 1): (6, 8, 2), (4, 2): (11, 16, 3),
        (5, 1): (3, 2, 1), (5, 2): (4, 4, 2),
    }


def test_u_level_one_is_theta():
    for i in range(1, 5):
        u = u_pattern(i, False, 1)
        t = theta(i)
        assert are_isomorphic(u.graph, t.graph)


def test_u5_is_marked_k2n():
    u = u_pattern(5, False, 4)
    assert are_isomorphic(u.graph, complete_bipartite(2, 4))
    assert len(u.marked) == 4


def test_uprime_sizes():
    sizes = {i: (u_pattern(i, True, 2).graph.n, u_pattern(i, True, 2).graph.m,
                 len(u_pattern(i, True, 2).marked)) for i in range(2, 5)}
    assert sizes == {2: (9, 18, 4), 3: (9, 12, 6), 4: (11, 16, 4)}


def test_omega_theta_sizes():
    sizes = {i: (omega_theta(i, 2).graph.n, omega_theta(i, 2).graph.m,
                 len(omega_theta(i, 2).marked)) for i in range(1, 5)}
    assert sizes == {1: (8, 12, 8), 2: (10, 18, 4), 3: (10, 12, 6), 4: (12, 16, 4)}


def test_aux_pattern_sizes():
    sizes = {k: (aux_pattern(k, 2).n, aux_pattern(k, 2).m) for k in PatternId._AUX_KINDS}
    assert sizes == {
        "G1": (9, 12), "G2": (9, 12), "K2w": (4, 4),
        "omegaK3": (6, 6), "veeK3": (5, 6),
        "omegaK4": (8, 12), "veeK4": (7, 12), "omegaK23": (10, 12),
    }


def test_build_pattern_dispatch():
    assert build_pattern(PatternId("sigma", 3, 2)) == sigma(3, 2)
    assert build_pattern(PatternId("u", 2, 3)) == u_pattern(2, False, 3)
    assert build_pattern(PatternId("uprime", 4, 2)) == u_pattern(4, True, 2)
    assert build_pattern(PatternId("aux", kind="omegaK3", level=2)) == aux_pattern("omegaK3", 2)
    # only an aux id carries a kind, and an aux id carries no index, so
    # no pattern has two ids
    with pytest.raises(ValueError):
        PatternId("sigma", 1, 2, kind="K2w")
    with pytest.raises(ValueError):
        PatternId("aux", 3, 2, kind="omegaK3")
    t = build_pattern(PatternId("theta", 3))
    assert isinstance(t, MarkedGraph)


def test_cone_of_u1_carries_sigma5():
    patt = u_pattern(1, False, 2)
    coned, apex = cone(patt.graph, patt.marked)
    from surfembed.patterns import _identity_model

    res = convert_to_sigma(coned, apex, PatternId("u", 1, 2), _identity_model(patt))
    assert res.sigma_index == 5 and res.level == 2
    ok, errs = verify_marked_model(
        MarkedGraph(coned, frozenset(coned.vertices)),
        MarkedGraph(sigma(5, 2), frozenset(sigma(5, 2).vertices)),
        res.model,
    )
    assert ok, errs
    assert are_isomorphic(coned, sigma(5, 2))


def test_primed_conversion_drops_a_level():
    patt = u_pattern(2, True, 3)
    coned, apex = cone(patt.graph, patt.marked)
    from surfembed.patterns import _identity_model

    res = convert_to_sigma(coned, apex, PatternId("uprime", 2, 3), _identity_model(patt))
    assert res.sigma_index == 6 and res.level == 2


# (family, index) -> (sigma index, level drop), as in criterion 4
_CONVERSION_TABLE = {
    ("u", 1): (5, 0), ("u", 2): (3, 0), ("uprime", 2): (6, 1), ("u", 3): (6, 0),
    ("uprime", 3): (7, 0), ("u", 4): (4, 0), ("uprime", 4): (6, 1), ("u", 5): (8, 0),
    ("omega-theta", 1): (3, 0), ("omega-theta", 2): (3, 0),
    ("omega-theta", 3): (4, 0), ("omega-theta", 4): (4, 0),
}


def _subdivided_model(patt: MarkedGraph, rng: random.Random):
    """Subdivide each pattern edge 0..2 times; a prefix of the new path
    vertices joins one endpoint's branch set and the rest the other's."""
    nxt = max(patt.graph.vertices) + 1
    bsets = {p: {p} for p in patt.graph.vertices}
    edges, conn = [], {}
    for u, v in sorted(patt.graph.edges):
        k = rng.randint(0, 2)
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        cut = rng.randint(0, k)
        for i, x in enumerate(path[1:-1], start=1):
            bsets[u if i <= cut else v].add(x)
        edges += zip(path, path[1:])
        conn[norm_edge(u, v)] = norm_edge(path[cut], path[cut + 1])
    frozen = {p: frozenset(b) for p, b in bsets.items()}
    return Graph([], edges), MarkedMinorModel(frozen, conn, patt.marked)


def test_conversions_of_subdivided_models():
    rng = random.Random(7)
    for (family, index), (target, drop) in _CONVERSION_TABLE.items():
        for n in range(2 if family == "uprime" else 1, 5):
            pid = PatternId(family, index, n)
            patt = build_pattern(pid)
            for _ in range(3):
                host, model = _subdivided_model(patt, rng)
                coned, apex = cone(host, patt.marked)
                res = convert_to_sigma(coned, apex, pid, model)
                assert (res.sigma_index, res.level) == (target, n - drop), pid.label()
                ok, errs = verify_model(coned, sigma(target, n - drop), res.model)
                assert ok, (pid.label(), errs)


def test_conversion_needs_cone_neighbor_in_marked_branch_sets():
    # the marked vertex 3 of the first theta3 copy misses the cone, so the
    # sigma6 edge from the cone's branch set to its branch set has no host edge
    pid = PatternId("u", 3, 2)
    patt = build_pattern(pid)
    host, model = _subdivided_model(patt, random.Random(1))
    coned, apex = cone(host, patt.marked - {3})
    with pytest.raises(ValueError, match="no host edge"):
        convert_to_sigma(coned, apex, pid, model)


def test_conversion_needs_a_marked_model():
    pid = PatternId("u", 1, 2)
    patt = build_pattern(pid)
    coned, apex = cone(patt.graph, patt.marked)
    from surfembed.patterns import _identity_model

    ident = _identity_model(patt)
    with pytest.raises(ValueError, match="marked model"):
        convert_to_sigma(coned, apex, pid, MinorModel(ident.branch_sets, ident.connect_edges))


def test_verify_catalog_conversions_level_two():
    rep = verify_catalog(2, incomparability=False)
    assert rep.conversions_ok, [r.name for r in rep.failures()]
    assert len(rep.conversions) == 12
    assert all(r.ok for r in rep.invariants), [r.name for r in rep.failures()]
    assert rep.incomparability == []


def test_verify_catalog_rejects_level_one():
    with pytest.raises(ValueError):
        verify_catalog(1)


def test_sigma_level_two_genus():
    # families built from disjoint or single-vertex-glued blocks double
    # their genus at level 2; sharing an edge or a vertex pair lets both
    # blocks ride one handle, so those stay at genus 1 (verified rotations)
    from surfembed.embeddings import genus_of_rotation, min_genus

    for i in (1, 2):
        assert min_genus(sigma(i, 2), 2).genus == 2
    for i in (3, 4):
        assert min_genus(sigma(i, 2), 2).genus == 2
    for i in (5, 6, 7):
        r = min_genus(sigma(i, 2), 1)
        assert r.status == "ok" and r.genus == 1
        assert genus_of_rotation(sigma(i, 2), r.rotation) == 1


def test_k3n_genus_grows():
    from surfembed.embeddings import min_genus

    assert min_genus(sigma(8, 1), 1).genus == 0
    assert min_genus(sigma(8, 3), 1).genus == 1
