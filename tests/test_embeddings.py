"""Rotation systems, faces, genus search, planarity, Kuratowski witnesses."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from oracles import (
    planar_by_subdivision,
    random_graph,
    search_block_by_lists,
)
from surfembed import embeddings, lr
from surfembed.core import (
    Graph,
    SearchTimeout,
    blocks,
    complete_bipartite,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    identify_vertices,
    path_graph,
)
from surfembed.embeddings import (
    KuratowskiWitness,
    RotationSystem,
    genus_of_rotation,
    is_planar,
    min_genus,
    planarity,
    trace_faces,
    validate_rotation,
    verify_kuratowski,
)
from surfembed.patterns import u_pattern


def _planar_rotation(g: Graph) -> RotationSystem:
    res = planarity(g)
    assert res.planar
    return res.rotation


def test_rotation_round_trip():
    rot = RotationSystem.from_dict({0: [1, 2], 1: [0, 2], 2: [0, 1]})
    assert rot.as_dict() == {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def test_validate_rotation_rejects_wrong_neighbors():
    g = cycle_graph(3)
    good = RotationSystem.from_dict({0: [1, 2], 1: [0, 2], 2: [0, 1]})
    validate_rotation(g, good)
    with pytest.raises(ValueError):
        validate_rotation(g, RotationSystem.from_dict({0: [1], 1: [0, 2], 2: [0, 1]}))
    with pytest.raises(ValueError):
        validate_rotation(g, RotationSystem.from_dict({0: [1, 2], 1: [0, 2]}))


def test_trace_faces_tetrahedron():
    g = complete_graph(4)
    rot = _planar_rotation(g)
    faces = trace_faces(g, rot)
    # V - E + F = 2 on the sphere
    assert len(faces) == 4
    darts = [d for f in faces for d in f]
    assert len(darts) == 2 * g.m
    assert len(set(darts)) == len(darts)


def test_genus_of_rotation_extremes():
    g = complete_graph(4)
    assert genus_of_rotation(g, _planar_rotation(g)) == 0
    # all-identical cyclic orders on K4 give a positive-genus embedding
    twisted = RotationSystem.from_dict(
        {v: [u for u in range(4) if u != v] for v in range(4)}
    )
    assert genus_of_rotation(g, twisted) == 1


def test_min_genus_small_complete_graphs():
    r5 = min_genus(complete_graph(5), budget=2)
    assert r5.status == "ok" and r5.genus == 1
    assert genus_of_rotation(complete_graph(5), r5.rotation) == 1
    r33 = min_genus(complete_bipartite(3, 3), budget=2)
    assert r33.status == "ok" and r33.genus == 1
    r4 = min_genus(complete_graph(4), budget=1)
    assert r4.genus == 0


def test_min_genus_budget_certificate():
    res = min_genus(complete_graph(5), budget=0)
    assert res.status == "exceeds-budget"
    assert res.lower_bound >= 1
    assert res.genus is None


def test_min_genus_additive_over_components():
    g = disjoint_union([complete_graph(5), complete_graph(5)])
    res = min_genus(g, budget=2)
    assert res.status == "ok" and res.genus == 2


def test_min_genus_searches_a_2_connected_graph_in_place(monkeypatch):
    # one block holding every edge and vertex is g itself, so no copy of
    # it is built, planar or not
    calls = []
    original = Graph.edge_subgraph

    def counted(self, keep_edges):
        calls.append(1)
        return original(self, keep_edges)

    monkeypatch.setattr(Graph, "edge_subgraph", counted)
    for g, genus in [(complete_graph(5), 1), (complete_bipartite(3, 3), 1),
                     (complete_graph(4), 0), (cycle_graph(7), 0)]:
        res = min_genus(g, budget=1)
        assert res.status == "ok" and res.genus == genus
        assert genus_of_rotation(g, res.rotation) == genus
    assert calls == []


def test_genus_additivity_over_blocks():
    # two K5 blocks sharing one cut vertex
    g = disjoint_union([complete_graph(5), complete_graph(5)])
    g = identify_vertices(g, 4, 5)
    res = min_genus(g, budget=2)
    assert res.status == "ok" and res.genus == 2
    validate_rotation_target = res.rotation
    validate_rotation(g, validate_rotation_target)
    assert genus_of_rotation(g, res.rotation) == 2


def _lcf(n: int, shifts: list[int]) -> Graph:
    """Hamiltonian cycle 0..n-1 plus the chords of an LCF notation."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + shifts[i % len(shifts)]) % n) for i in range(n)]
    return Graph(range(n), edges)


def _subdivide(g: Graph, k: int) -> Graph:
    """Replace every edge by a path with k interior vertices."""
    nxt = max(g.vertices) + 1
    edges = []
    for u, v in sorted(g.edges):
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        edges += zip(path, path[1:])
    return Graph(g.vertices, edges)


PETERSEN = Graph(
    range(10),
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


def _ringel_youngs(n: int) -> int:
    return -(-(n - 3) * (n - 4) // 12)


def _ringel_bipartite(a: int, b: int) -> int:
    return -(-(a - 2) * (b - 2) // 4)


def test_min_genus_known_values():
    # genus from the Ringel-Youngs formulas and the literature, not from
    # this code; the bipartite and girth >= 5 graphs exercise the girth prune
    cases = [(complete_graph(n), _ringel_youngs(n)) for n in range(5, 9)]
    cases += [
        (complete_bipartite(a, b), _ringel_bipartite(a, b))
        for a, b in ((3, 3), (3, 6), (4, 4), (4, 5))
    ]
    cases += [(PETERSEN, 1), (_lcf(14, [5, -5]), 1), (_lcf(16, [5, -5]), 1)]
    # K5 and K3,3 wedged at a cut vertex: genus adds over blocks
    both = disjoint_union([complete_graph(5), complete_bipartite(3, 3)])
    wedge = identify_vertices(both, 0, 5)
    cases.append((wedge, 2))
    for g, genus in cases:
        res = min_genus(g, budget=genus)
        assert res.status == "ok" and res.genus == genus, (sorted(g.edges), res.status)
        validate_rotation(g, res.rotation)
        assert genus_of_rotation(g, res.rotation) == genus
        if genus:
            assert min_genus(g, budget=genus - 1).status == "exceeds-budget"


def _above_its_bound() -> Graph:
    """A block on 8 vertices and 23 edges of genus 2, above its certified
    lower bound 1: every dart order has to exhaust its search tree, which
    takes about 0.1 s in the base order."""
    return _hard_blocks(random.Random(15), 264)[263]


def test_timed_out_genus_is_not_replayed():
    g = _above_its_bound()  # genus 2
    timed = min_genus(g, 2, timeout=0.01)
    assert timed.status == "timeout" and timed.genus is None
    assert timed.lower_bound <= 2  # a timeout's lower bound is still sound
    res = min_genus(g, 2)
    assert res.status == "ok" and res.genus == 2
    assert genus_of_rotation(g, res.rotation) == 2
    assert min_genus(g, 2, timeout=0.01).status == "timeout"
    assert min_genus(g, 2).genus == 2


def _hard_blocks(rng: random.Random, count: int) -> list[Graph]:
    """Non-planar blocks of seeded random graphs on 8 vertices."""
    out: list[Graph] = []
    while len(out) < count:
        g = random_graph(rng, 8, rng.choice((0.55, 0.85)))
        for be in blocks(g).blocks:
            bg = g.edge_subgraph(be)
            if not is_planar(bg):
                out.append(bg)
    return out


def _girth_and_lower(g: Graph) -> tuple[int, int]:
    """A block's girth and its certified genus lower bound, as min_genus
    computes them."""
    girth = embeddings._girth(g)
    return girth, max(1, (3 - g.n + g.m - 2 * g.m // girth) // 2)


def _kernel_cases() -> list[tuple[Graph, int, int, int]]:
    """(block, girth, lower bound, budget) for budgets lower .. lower + 2."""
    graphs = [complete_graph(n) for n in range(5, 9)]
    graphs += [complete_bipartite(a, b) for a, b in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5))]
    graphs += [PETERSEN]
    # this seed draws blocks of genus 2 above their lower bound 1, whose
    # searches replace an incumbent or prove that none fits the budget
    graphs += _hard_blocks(random.Random(15), 24)
    cases = []
    for g in graphs:
        girth, lower = _girth_and_lower(g)
        cases += [(g, girth, lower, budget) for budget in range(lower, lower + 3)]
    return cases


def test_search_kernel_matches_the_list_kernel():
    # the open-face bound and the scan index change how many nodes the
    # search visits, never which incumbents it records
    for g, girth, lower, budget in _kernel_cases():
        got = embeddings._search_block(g, girth, lower, budget, None)
        want = search_block_by_lists(g, girth, lower, budget)
        assert got == want, (sorted(g.edges), budget)


def test_portfolio_answers_like_the_base_order():
    # any kernel of the portfolio may decide, in any dart order, so only
    # the answer is compared; the rotation must witness it and repeat
    for g, girth, lower, budget in _kernel_cases():
        got = embeddings._portfolio(g, girth, lower, budget, None)
        want = embeddings._search_block(g, girth, lower, budget, None)
        assert (got is None) == (want is None), (sorted(g.edges), budget)
        if got is None:
            continue
        assert got[0] == want[0], (sorted(g.edges), budget)
        assert genus_of_rotation(g, RotationSystem.from_dict(got[1])) == got[0]
        assert embeddings._portfolio(g, girth, lower, budget, None) == got


class _CountingClock:
    def __init__(self):
        self.calls = 0

    def monotonic(self) -> float:
        self.calls += 1
        return 0.0


def test_open_face_bound_cuts_the_k9_search(monkeypatch):
    # the base order reads the clock once per 4096 nodes: 750 times for K9
    # under the girth bound alone, about 181 times with the open-face bound
    clock = _CountingClock()
    monkeypatch.setattr(embeddings, "time", clock)
    found = embeddings._search_block(complete_graph(9), 3, 3, 3, math.inf)
    assert found is not None and found[0] == 3
    assert 0 < clock.calls <= 300


def _u12_cone() -> Graph:
    mg = u_pattern(1, False, 2)
    return cone(mg.graph, mg.marked)[0]  # 8 vertices, 19 edges, genus 1


def test_portfolio_ends_first_hit_searches_early(monkeypatch):
    # the portfolio reads the clock after every slice of 4096 nodes; in the
    # base order alone K9 takes 181 slices and the u(1, 2) cone 30.  Both
    # have the genus of their lower bound, so each search stops at a hit.
    for g, genus in ((complete_graph(9), 3), (_u12_cone(), 1)):
        clock = _CountingClock()
        monkeypatch.setattr(embeddings, "time", clock)
        girth, lower = _girth_and_lower(g)
        assert lower == genus
        found = embeddings._portfolio(g, girth, lower, genus, math.inf)
        assert found is not None and found[0] == genus
        assert clock.calls < 10  # the last slice ends without a read


class _TickingClock:
    """Each read is one time unit after the one before."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


def test_portfolio_times_out_after_the_slice_that_passes_the_deadline(monkeypatch):
    # refuting genus 1 and finding genus 2 both exhaust every dart order,
    # so no kernel ends within the 8 slices before the deadline is seen
    kernel = embeddings._block_kernel
    slices = [0]

    def counted(*args):
        run = kernel(*args)
        while True:
            try:
                next(run)
            except StopIteration as stop:
                return stop.value
            slices[0] += 1
            yield

    monkeypatch.setattr(embeddings, "_block_kernel", counted)
    g = _above_its_bound()
    girth, lower = _girth_and_lower(g)
    for budget in (1, 2):
        slices[0] = 0
        clock = _TickingClock()
        monkeypatch.setattr(embeddings, "time", clock)
        with pytest.raises(SearchTimeout):
            embeddings._portfolio(g, girth, lower, budget, 7.5)
        # one read after every slice: the deadline is seen by the slice that
        # passes it, well within one round of six
        assert clock.now == 8.0 and slices[0] == 8


def test_genus_of_rotation_over_many_components():
    k5s = 3
    g = disjoint_union([cycle_graph(3)] * 400 + [complete_graph(5)] * k5s)
    res = min_genus(g, budget=k5s)
    assert res.status == "ok" and res.genus == k5s
    assert genus_of_rotation(g, res.rotation) == k5s
    assert min_genus(g, budget=k5s - 1).status == "exceeds-budget"


def test_min_genus_long_subdivided_block():
    # one non-planar block with 510 edges: the search must not recurse per dart
    g = _subdivide(complete_graph(5), 50)
    res = min_genus(g, budget=1)
    assert res.status == "ok" and res.genus == 1
    assert genus_of_rotation(g, res.rotation) == 1


def test_planarity_positive_certificates():
    for g in (complete_graph(4), cycle_graph(7), complete_bipartite(2, 5), path_graph(1)):
        res = planarity(g)
        assert res.planar
        validate_rotation(g, res.rotation)
        assert genus_of_rotation(g, res.rotation) == 0


def test_planarity_negative_certificates():
    for g, kind in ((complete_graph(5), "K5"), (complete_bipartite(3, 3), "K33")):
        res = planarity(g)
        assert not res.planar
        assert res.witness.kind == kind
        assert verify_kuratowski(g, res.witness) == []


def test_kuratowski_in_subdivided_host():
    # K33 with every edge subdivided once, plus a pendant path
    base = complete_bipartite(3, 3)
    edges = []
    nxt = 6
    for u, v in sorted(base.edges):
        edges += [(u, nxt), (nxt, v)]
        nxt += 1
    edges += [(0, nxt), (nxt, nxt + 1)]
    g = Graph(range(nxt + 2), edges)
    res = planarity(g)
    assert not res.planar and res.witness.kind == "K33"
    assert verify_kuratowski(g, res.witness) == []


def test_verify_kuratowski_flags_corruption():
    res = planarity(complete_graph(5))
    w = res.witness
    # break one path: claim a route that skips the middle vertex
    (e0, p0), *rest = w.paths
    bad = KuratowskiWitness(w.kind, w.branch_vertices, ((e0, p0[:1] + p0[-1:]), *rest))
    host = complete_graph(5).remove_edges([tuple(sorted((p0[0], p0[-1])))])
    assert verify_kuratowski(host, bad) != []
    # wrong branch count
    bad2 = KuratowskiWitness("K5", w.branch_vertices[:4], w.paths)
    assert verify_kuratowski(complete_graph(5), bad2) != []


def test_planarity_matches_oracle_random(rng):
    for trial in range(150):
        g = random_graph(rng, rng.randrange(1, 8), 0.45)
        res = planarity(g)
        assert res.planar == planar_by_subdivision(g)
        if res.planar:
            assert genus_of_rotation(g, res.rotation) == 0
        else:
            assert verify_kuratowski(g, res.witness) == []


def _grid(a: int, b: int) -> Graph:
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return Graph(range(a * b), edges)


@pytest.fixture()
def lr_runs(monkeypatch):
    """Counts the left-right planarity runs made while the test runs."""
    runs = [0]
    original = lr.lr_planarity

    def counted(edges, embed=False):
        runs[0] += 1
        return original(edges, embed)

    monkeypatch.setattr(lr, "lr_planarity", counted)
    return runs


def test_planar_input_costs_one_lr_run(lr_runs):
    for g in (complete_graph(4), _grid(25, 25)):
        lr_runs[0] = 0
        res = planarity(g)
        assert res.planar and genus_of_rotation(g, res.rotation) == 0
        assert lr_runs[0] == 1


def test_witness_in_large_host_costs_few_lr_runs(lr_runs):
    g = disjoint_union([_grid(16, 16), complete_graph(5)])
    assert g.m == 490
    res = planarity(g)
    assert not res.planar
    assert verify_kuratowski(g, res.witness) == []
    assert lr_runs[0] <= 20


def test_witness_skips_needed_degree_two_paths(lr_runs):
    # the crossing corner diagonals leave a K33 subdivision with long paths
    # through degree-2 vertices; each path needs one LR run, not one per edge
    g = Graph(edges=_grid(20, 20).edges | {(0, 399), (19, 380)})
    assert g.m == 762
    res = planarity(g)
    assert not res.planar
    assert verify_kuratowski(g, res.witness) == []
    assert lr_runs[0] <= 300


def test_is_planar_makes_at_most_one_lr_run(lr_runs):
    for g, want in ((complete_graph(4), True), (complete_graph(5), False),
                    (complete_bipartite(3, 3), False), (_grid(10, 10), True),
                    (disjoint_union([_grid(6, 6), complete_bipartite(3, 3)]), False)):
        lr_runs[0] = 0
        assert is_planar(g) is want
        assert lr_runs[0] <= 1


def _branch_count(g: Graph) -> int:
    return sum(g.degree(v) >= 3 for v in g.vertices)


def _nx_planar(g: Graph) -> bool:
    ng = nx.Graph(list(g.edges))
    ng.add_nodes_from(g.vertices)
    return nx.is_planar(ng)


def test_settle_matches_networkx(graphs_le7):
    # every graph of the atlas, and 3 000 seeded G(n, p) graphs on 3 to 11
    # vertices with labels spread over 0..999: every verdict the settle
    # gives must be networkx's, and it must give one whenever at most six
    # vertices have degree >= 3
    rng = random.Random(18018)
    corpus = list(graphs_le7)
    for _ in range(3000):
        n = rng.randint(3, 11)
        p = rng.uniform(0.2, 0.9)
        labels = rng.sample(range(1000), n)
        corpus.append(Graph(labels, [(labels[i], labels[j]) for i in range(n)
                                     for j in range(i + 1, n) if rng.random() < p]))
    decided = 0
    for g in corpus:
        known = embeddings._settled_graph(g)
        if _branch_count(g) <= 6:
            assert known is not None, sorted(g.edges)
        if known is not None:
            decided += 1
            assert known == _nx_planar(g), sorted(g.edges)
    assert decided >= 2500


def test_small_nonplanar_graphs_need_no_lr_run(graphs_le7, lr_runs):
    # the 133 non-planar atlas graphs with at most six vertices of degree
    # >= 3: every block choice and ddmin trial is settled by the reduction
    # (counting alone left 415 LR runs here)
    small = [g for g in graphs_le7 if _branch_count(g) <= 6]
    nonplanar = [g for g in small if not _nx_planar(g)]
    assert (len(small), len(nonplanar)) == (1102, 133)
    for g in nonplanar:
        res = planarity(g)
        assert not res.planar and verify_kuratowski(g, res.witness) == []
    assert lr_runs[0] == 0


def test_is_planar_on_small_graphs_needs_no_lr_run(graphs_le7, lr_runs):
    # the 1 102 atlas graphs with at most six vertices of degree >= 3
    # (counting alone left 254 LR runs here)
    small = [g for g in graphs_le7 if _branch_count(g) <= 6]
    assert len(small) == 1102
    for g in small:
        assert is_planar(g) == _nx_planar(g)
    assert lr_runs[0] == 0


def test_atlas_witnesses_cost_few_lr_runs(graphs_le7, lr_runs):
    # all 237 non-planar atlas graphs: 920 LR runs with counting alone,
    # 165 with the reduction, 87 with shrinking stopped at six branch
    # vertices
    nonplanar = [g for g in graphs_le7 if not _nx_planar(g)]
    assert len(nonplanar) == 237
    for g in nonplanar:
        assert not planarity(g).planar
    assert lr_runs[0] <= 250


def test_full_cone_planarity_costs_few_lr_runs(graphs_le7, lr_runs):
    # the 996 full cones of test_full_cone_witnesses_verify: 4 702 LR runs
    # with counting alone, 1 493 with the reduction, 1 112 with shrinking
    # stopped at six branch vertices
    cones = [cone(g, g.vertices)[0] for g in graphs_le7 if len(g.components()) == 1]
    assert len(cones) == 996
    for cg in cones:
        planarity(cg)
    assert lr_runs[0] <= 2000


def test_witnesses_verify_within_few_trials(graphs_le7, monkeypatch):
    # every witness on the atlas and its full cones verifies, and shrinking
    # stops at the first non-planar trial with at most six branch
    # vertices: 5 416 _peeled calls over these planarity() calls, where
    # shrinking to a minimal subdivision took 15 508
    trials = [0]
    original = embeddings._peeled

    def counted(adj, labels):
        trials[0] += 1
        return original(adj, labels)

    monkeypatch.setattr(embeddings, "_peeled", counted)
    hosts = list(graphs_le7)
    hosts += [cone(g, g.vertices)[0] for g in graphs_le7 if len(g.components()) == 1]
    verified = 0
    for g in hosts:
        res = planarity(g)
        if not res.planar:
            assert verify_kuratowski(g, res.witness) == [], sorted(g.edges)
            verified += 1
    assert verified == 237 + 756
    assert trials[0] <= 6000


def _subdivided(g: Graph) -> tuple[Graph, list[int]]:
    """g with every edge subdivided by a new vertex, and the new vertices."""
    edges, mids = [], []
    for mid, (u, v) in enumerate(sorted(g.edges), start=max(g.vertices) + 1):
        edges += [(u, mid), (mid, v)]
        mids.append(mid)
    return Graph(edges=edges), mids


def _with_trees(g: Graph, at: list[int]) -> Graph:
    """g with a claw hung on each vertex of at by one of its leaves: a new
    vertex of degree 3 that carries two leaves."""
    edges = set(g.edges)
    for k, v in enumerate(at):
        hub = max(g.vertices) + 1 + 3 * k
        edges |= {(v, hub), (hub, hub + 1), (hub, hub + 2)}
    return Graph(edges=edges)


@pytest.mark.parametrize("kind", ["K5", "K33"])
def test_witness_follows_subdivided_edges_past_pendant_trees(kind):
    # every edge subdivided, and a claw hung on every branch and every
    # subdivision vertex: 30 vertices of degree >= 3 before the peel, the
    # five or six branch vertices after it; each path is one subdivided
    # edge
    base = complete_graph(5) if kind == "K5" else complete_bipartite(3, 3)
    sub, mids = _subdivided(base)
    g = _with_trees(sub, sorted(base.vertices) + mids)
    assert _branch_count(g) > 6
    res = planarity(g)
    assert not res.planar and verify_kuratowski(g, res.witness) == []
    w = res.witness
    assert w.kind == kind and sorted(w.branch_vertices) == sorted(base.vertices)
    assert sorted(p[1] for _, p in w.paths) == mids


def test_dropped_copy_stays_out_of_the_witness():
    # x = 5 subdivides a second copy of the K5 edge 0-1: suppressing x
    # would double 0-1, so that copy is dropped, and 5 with it
    g = Graph(edges=complete_graph(5).edges | {(0, 5), (5, 1)})
    w = planarity(g).witness
    assert verify_kuratowski(g, w) == []
    assert w.kind == "K5" and all(len(p) == 2 for _, p in w.paths)
    # 0-1 replaced by two subdivided copies, 0-5-6-1 and 0-7-1: the first
    # suppression makes the edge 0-1, the other copy is dropped
    g = Graph(edges=(complete_graph(5).edges - {(0, 1)}) | {(0, 5), (5, 6), (6, 1), (0, 7), (7, 1)})
    w = planarity(g).witness
    assert verify_kuratowski(g, w) == []
    used = {v for _, p in w.paths for v in p}
    assert w.path_dict()[0, 1] in ((0, 5, 6, 1), (0, 7, 1))
    assert used & {5, 6, 7} in ({5, 6}, {7})


def test_k5_with_a_sixth_vertex_gives_a_k33():
    # six vertices of minimum degree 3 that hold a K5 or a K5 subdivision:
    # nothing is reduced, and the split into 3 + 3 gives a K33
    k5 = complete_graph(5).edges
    for g in (Graph(edges=k5 | {(0, 5), (1, 5), (2, 5)}),
              Graph(edges=(k5 - {(0, 1)}) | {(0, 5), (1, 5), (2, 5)})):
        res = planarity(g)
        assert not res.planar and verify_kuratowski(g, res.witness) == []
        assert res.witness.kind == "K33" and sorted(res.witness.branch_vertices) == list(range(6))


def test_witness_with_cut_vertices():
    # a K5 and a K33 that share vertex 0, a 4-cycle on a bridge at 3 and
    # leaves: the witness lies in one of the two non-planar blocks
    k33 = {(a, b) for a in (0, 10, 11) for b in (12, 13, 14)}
    g = Graph(edges=complete_graph(5).edges | k33 | {(3, 20), (20, 21), (21, 22), (22, 23),
                                                     (20, 23), (22, 24), (12, 25)})
    w = planarity(g).witness
    assert verify_kuratowski(g, w) == []
    used = {v for _, p in w.paths for v in p}
    assert used <= set(range(5)) or used <= {0, 10, 11, 12, 13, 14}
    # a K34 (seven branch vertices, so shrinking runs) glued at a cut
    # vertex to a planar grid, with a claw on another vertex
    g = Graph(edges=complete_bipartite(3, 4, offset=100).edges | _grid(4, 4).edges | {(100, 0)})
    g = _with_trees(g, [101, 5])
    res = planarity(g)
    assert not res.planar and verify_kuratowski(g, res.witness) == []
    assert {v for _, p in res.witness.paths for v in p} <= set(range(100, 107))


def test_small_nonplanar_input_is_reduced_once(lr_runs, monkeypatch):
    # at most six branch vertices once pendant edges are peeled: the one
    # reduction in planarity() decides g and gives the witness, with no LR
    # run, no block split and no shrinking
    reductions = [0]
    original = embeddings._reduced_planar

    def counted(adj, deg, labels=None):
        reductions[0] += 1
        return original(adj, deg, labels)

    monkeypatch.setattr(embeddings, "_reduced_planar", counted)
    sub, _ = _subdivided(complete_bipartite(3, 3))
    for g in (complete_graph(5), complete_bipartite(3, 3), _with_trees(sub, sorted(sub.vertices)),
              Graph(edges=complete_graph(5).edges | {(0, 5), (1, 5), (2, 5)})):
        reductions[0] = lr_runs[0] = 0
        res = planarity(g)
        assert not res.planar and verify_kuratowski(g, res.witness) == []
        assert (reductions[0], lr_runs[0]) == (1, 0), sorted(g.edges)


def test_planarity_modes_agree_on_small_graphs(graphs_le7):
    for g in graphs_le7:
        ng = nx.Graph(list(g.edges))
        ng.add_nodes_from(g.vertices)
        res = planarity(g)
        assert is_planar(g) == nx.is_planar(ng) == res.planar, sorted(g.edges)
        if res.planar:
            assert genus_of_rotation(g, res.rotation) == 0
        else:
            assert verify_kuratowski(g, res.witness) == []


def test_full_cone_witnesses_verify(graphs_le7):
    for g in graphs_le7:
        if len(g.components()) != 1:
            continue
        cg, _ = cone(g, g.vertices)
        res = planarity(cg)
        assert res.planar == is_planar(cg)
        if res.planar:
            assert genus_of_rotation(cg, res.rotation) == 0
        else:
            assert verify_kuratowski(cg, res.witness) == [], sorted(g.edges)


def _lr_oracle_corpus() -> list[list[tuple[int, int]]]:
    """Edge lists: the graph atlas, the full cones of its connected graphs,
    and 700 seeded random graphs on 5 to 200 vertices (G(n, m), random
    geometric, grids with extra edges), with edges in shuffled order and
    orientation."""
    rng = random.Random(2024)
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes()]
    assert len(graphs) == 1252
    cones = []
    for g in graphs:
        if nx.is_connected(g):
            c = nx.Graph(g)
            c.add_edges_from((-1, v) for v in g)
            cones.append(nx.convert_node_labels_to_integers(c))
    graphs += cones
    for k in range(700):
        n = rng.randint(5, 200)
        seed = rng.randrange(2**32)
        if k % 3 == 0:
            g = nx.gnm_random_graph(n, rng.randint(n, 3 * n), seed=seed)
        elif k % 3 == 1:
            g = nx.random_geometric_graph(n, rng.uniform(0.1, 0.3), seed=seed)
        else:
            a = rng.randint(2, 14)
            g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(a, max(2, n // a)))
            for _ in range(rng.randint(0, 3)):
                g.add_edge(*rng.sample(sorted(g), 2))
        graphs.append(g)
    corpus = []
    for g in graphs:
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
        rng.shuffle(edges)
        corpus.append(edges)
    return corpus


def test_lr_agrees_with_networkx():
    corpus = _lr_oracle_corpus()
    assert len(corpus) == 1252 + 996 + 700
    for edges in corpus:
        planar = nx.is_planar(nx.Graph(edges))
        assert (lr.lr_planarity(edges) is not None) == planar, edges
        rot = lr.lr_planarity(edges, embed=True)
        assert (rot is not None) == planar, edges
        if planar and edges:
            g = Graph(edges=edges)
            assert genus_of_rotation(g, RotationSystem.from_dict(rot)) == 0, edges


def test_deep_dfs_needs_no_recursion(lr_runs):
    # a DFS of depth about 5000 and 4000, far past the default recursion
    # limit; each graph has a vertex of degree 3, so an LR run is needed
    chorded = Graph(edges=cycle_graph(5000).edges | {(0, 2500)})
    ladder = _grid(2, 2000)
    for g in (chorded, ladder):
        lr_runs[0] = 0
        res = planarity(g)
        assert res.planar and genus_of_rotation(g, res.rotation) == 0
        assert lr_runs[0] == 1
        assert lr.lr_planarity(g.edges) == {}  # the boolean mode
