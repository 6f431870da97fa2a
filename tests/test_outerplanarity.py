"""Face-sharing embeddings, theta extraction, star searches, obstructions."""

from __future__ import annotations

import time

import pytest

import surfembed.outerplanarity as outerplanarity
from oracles import has_k4_minor, has_k23_minor, random_graph
from surfembed.core import (
    Graph,
    MarkedGraph,
    SearchTimeout,
    complete_bipartite,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from surfembed.embeddings import (
    RotationSystem,
    genus_of_rotation,
    planarity,
    validate_rotation,
    verify_kuratowski,
)
from surfembed.minors import verify_marked_model
from surfembed.outerplanarity import (
    NonPlanarInput,
    ThetaWitness,
    double_star_search,
    extract_theta,
    is_u_outerplanar,
    relative_genus,
    su_obstruction,
    u_star_search,
)
from surfembed.patterns import PatternId, build_pattern, omega_theta, sigma, theta, u_pattern


def test_cycle_fully_marked_is_outerplanar():
    g = cycle_graph(5)
    out = is_u_outerplanar(g, g.vertices)
    assert isinstance(out, RotationSystem)
    coned, apex = cone(g, g.vertices)
    validate_rotation(coned, out)
    assert genus_of_rotation(coned, out) == 0


def test_partial_marks_relax_the_constraint():
    # K4 is not outerplanar, but two marked vertices always share a face
    g = complete_graph(4)
    w = is_u_outerplanar(g, g.vertices)
    assert isinstance(w, ThetaWitness) and w.index == 1
    out = is_u_outerplanar(g, [0, 1])
    assert isinstance(out, RotationSystem)


def test_theta_patterns_are_their_own_witnesses():
    for i in range(1, 5):
        t = theta(i)
        w = is_u_outerplanar(t.graph, t.marked)
        assert isinstance(w, ThetaWitness)
        assert w.index == i
        ok, errs = verify_marked_model(MarkedGraph(t.graph, t.marked), theta(w.index), w.model)
        assert ok, errs


def test_k23_marked_on_large_side():
    g = complete_bipartite(2, 3)
    w = is_u_outerplanar(g, [2, 3, 4])
    assert isinstance(w, ThetaWitness) and w.index == 3


def test_nonplanar_input_raises_with_witness():
    with pytest.raises(NonPlanarInput):
        is_u_outerplanar(complete_graph(5), [0])
    with pytest.raises(ValueError):
        is_u_outerplanar(cycle_graph(3), [7])


def test_nonplanar_input_witness_verifies():
    for g, kind in ((complete_graph(5), "K5"), (complete_bipartite(3, 3), "K33")):
        with pytest.raises(NonPlanarInput) as err:
            is_u_outerplanar(g, [0])
        assert err.value.witness.kind == kind
        assert verify_kuratowski(g, err.value.witness) == []


def test_witness_xor_rotation_random(rng):
    # on planar hosts exactly one of the two certificates comes back,
    # and either one re-verifies from scratch
    trials = 0
    while trials < 120:
        g = random_graph(rng, rng.randrange(3, 8), 0.4)
        if not planarity(g).planar:
            continue
        trials += 1
        vs = sorted(g.vertices)
        u = frozenset(rng.sample(vs, rng.randrange(1, len(vs) + 1)))
        out = is_u_outerplanar(g, u)
        coned, apex = cone(g, u)
        if isinstance(out, RotationSystem):
            validate_rotation(coned, out)
            assert genus_of_rotation(coned, out) == 0
        else:
            assert not planarity(coned).planar
            ok, errs = verify_marked_model(MarkedGraph(g, u), theta(out.index), out.model)
            assert ok, errs


def test_outerplanarity_matches_minor_exclusion(rng):
    # fully marked: cone planarity fails exactly on a K4 or K23 minor
    for trial in range(100):
        g = random_graph(rng, rng.randrange(3, 8), 0.35)
        if not planarity(g).planar:
            continue
        out = is_u_outerplanar(g, g.vertices)
        clean = not has_k4_minor(g) and not has_k23_minor(g)
        assert isinstance(out, RotationSystem) == clean


def test_extract_theta_needs_cone_vertex_on_witness():
    g = complete_graph(4)
    coned, apex = cone(g, g.vertices)
    w = planarity(coned).witness
    assert extract_theta(MarkedGraph(g, g.vertices), w, apex).index == 1
    with pytest.raises(ValueError, match="cone vertex does not lie on the witness"):
        extract_theta(MarkedGraph(g, g.vertices), w, apex + 1)


def test_relative_genus_k4_fully_marked():
    g = complete_graph(4)
    res = relative_genus(g, g.vertices, budget=2)
    assert res.gamma_base == 0
    assert res.gamma_cone == 1
    # dropping any one vertex makes the cone free again
    assert set(res.critical) == set(g.vertices)


def test_relative_genus_free_cone():
    g = cycle_graph(4)
    res = relative_genus(g, g.vertices, budget=1)
    assert res.gamma_cone == res.gamma_base == 0
    assert res.critical == ()


def test_u_star_search_counts_leaves():
    star = Graph(range(7), [(0, i) for i in range(1, 7)])
    mg = MarkedGraph(star, frozenset(range(1, 7)))
    ps = u_star_search(mg, 0, 3)
    assert len(ps.paths) == 6
    assert all(len(p) == 1 for p in ps.paths)
    with pytest.raises(ValueError):
        u_star_search(mg, 99, 1)
    with pytest.raises(ValueError):
        u_star_search(mg, 0, 0)


def test_u_star_separator_certificate():
    # marks reachable from x's neighborhood only through a bottleneck
    g = path_graph(5)
    mg = MarkedGraph(g, frozenset([4]))
    ps = u_star_search(mg, 0, 2)
    assert len(ps.paths) == 1 == len(ps.separator)


def test_double_star_on_k25():
    g = complete_bipartite(2, 5)
    mg = MarkedGraph(g, frozenset(range(2, 7)))
    res = double_star_search(mg, 0, 1, 4)
    assert res.found
    ok, errs = verify_marked_model(mg, u_pattern(5, False, 4), res.model)
    assert ok, errs
    assert 0 in res.model.branch_sets[0] and 1 in res.model.branch_sets[1]


def test_double_star_separated_on_path():
    g = path_graph(6)
    mg = MarkedGraph(g, frozenset([2, 3]))
    res = double_star_search(mg, 0, 5, 2)
    assert res.status == "separated"
    assert res.links <= 1
    assert len(res.separator) < 2


def test_double_star_needs_distinct_centers():
    mg = MarkedGraph(cycle_graph(4), frozenset([2]))
    with pytest.raises(ValueError):
        double_star_search(mg, 1, 1, 2)


def _marked_slice(i: int, n: int) -> MarkedGraph:
    """sigma(i, n) minus a max-degree vertex whose removal leaves a planar
    rest, marked on that vertex's neighborhood."""
    s = sigma(i, n)
    for v in sorted(s.vertices, key=lambda v: -s.degree(v)):
        h = s.remove_vertices([v])
        if planarity(h).planar:
            return MarkedGraph(h, frozenset(s.neighbors(v)) & h.vertices)
    raise AssertionError("no planar slice")


def test_su_obstruction_recognizes_catalog_slices():
    expected = {
        (3, 2): "omega-theta1(2)",
        (4, 2): "omega-theta3(2)",
        (5, 2): "u1(2)",
        (6, 2): "u3(2)",
        (7, 2): "uprime3(2)",
        (8, 3): "u5(3)",
    }
    for (i, n), label in expected.items():
        mg = _marked_slice(i, n)
        res = su_obstruction(mg, 0, n)
        assert res.found, (i, n, res.status, res.detail)
        assert res.kind.label() == label
        ok, errs = verify_marked_model(mg, build_pattern(res.kind), res.model)
        assert ok, errs


def _theta_union(indices: tuple[int, ...]) -> MarkedGraph:
    """Disjoint union of theta(i) for i in indices, marks shifted along."""
    parts = [theta(i) for i in indices]
    marks: set[int] = set()
    offset = 0
    for p in parts:
        shift = offset - min(p.graph.vertices)
        marks |= {v + shift for v in p.marked}
        offset = max(p.graph.vertices) + shift + 1
    return MarkedGraph(disjoint_union([p.graph for p in parts]), frozenset(marks))


@pytest.mark.parametrize(
    "indices, n, status, label, removals",
    [
        # no index reaches 3: every theta is peeled before the cone is free
        ((1, 2, 3, 4, 1), 3, "certificate", None, 5),
        # after three removals only theta2 is left: a double star over its marks
        ((1, 2, 3, 4), 2, "witness", "u5(2)", 3),
    ],
)
def test_su_obstruction_walks_the_theta_stream(monkeypatch, indices, n, status, label, removals):
    calls = []

    def counted(*args, _fn=outerplanarity._free_theta, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(outerplanarity, "_free_theta", counted)
    mg = _theta_union(indices)
    res = su_obstruction(mg, 0, n)
    assert res.status == status, res.detail
    assert len(res.removed) == removals
    assert all(s <= mg.graph.vertices for s in res.removed)
    if label is None:
        assert res.detail.endswith("banked theta counts {1: 2, 2: 1, 3: 1, 4: 1}")
    else:
        assert res.kind.label() == label
        ok, errs = verify_marked_model(mg, build_pattern(res.kind), res.model)
        assert ok, errs
    # the stream is peeled once: one extraction per theta, plus the last try
    assert len(calls) <= len(indices) + 1


def test_su_obstruction_at_budget_zero_runs_no_genus_search(monkeypatch):
    # genus 0 means planar, so every cone is settled by a planarity test
    calls = []

    def counted(*args, _fn=outerplanarity.min_genus, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(outerplanarity, "min_genus", counted)
    res = su_obstruction(_theta_union((1, 2, 3, 4, 1)), 0, 3)
    assert res.status == "certificate" and len(res.removed) == 5
    res = su_obstruction(_marked_slice(5, 2), 0, 2)
    assert res.found and res.kind.label() == "u1(2)"
    assert calls == []


def test_su_obstruction_certificate_when_cone_is_free():
    g = cycle_graph(4)
    res = su_obstruction(MarkedGraph(g, g.vertices), 0, 2)
    assert res.status == "certificate"
    assert res.residue == g.vertices
    assert res.removed == ()


def test_su_obstruction_budget_absorbs_k5_slice():
    # with one handle allowed, the sigma5 slice stops being an obstruction
    mg = _marked_slice(5, 2)
    res = su_obstruction(mg, 1, 2)
    assert res.status == "certificate"


def test_su_obstruction_validates_arguments():
    mg = MarkedGraph(cycle_graph(3), frozenset([0]))
    with pytest.raises(ValueError):
        su_obstruction(mg, -1, 2)
    with pytest.raises(ValueError):
        su_obstruction(mg, 0, 0)


def test_su_obstruction_reports_timeout():
    # the whole search takes seconds; a 0.2 s deadline cuts it short
    res = su_obstruction(u_pattern(3, False, 3), 1, 3, timeout=0.2)
    assert res.status == "timeout"
    assert not res.found


def test_su_obstruction_starts_no_stage_after_deadline(monkeypatch):
    calls = []
    for name in ("min_genus", "find_marked_minor"):
        def counted(*args, _name=name, _fn=getattr(outerplanarity, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(outerplanarity, name, counted)
    res = su_obstruction(omega_theta(3, 2), 0, 2, timeout=0.0)
    assert res.status == "timeout"
    assert calls == []


def test_relative_genus_timeout_raises_search_timeout():
    start = time.monotonic()
    with pytest.raises(SearchTimeout):
        relative_genus(sigma(5, 3), [2, 3], 2, timeout=1.0)
    assert time.monotonic() - start < 3.0
