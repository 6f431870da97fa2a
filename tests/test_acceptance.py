"""Acceptance gate: one test per headline guarantee, each a single
pass/fail line under pytest -v.

Every check recomputes its claim from scratch and verifies the returned
certificates independently; nothing is trusted from the search code
being exercised.
"""

from __future__ import annotations

import itertools
import random
import time

from oracles import (
    graphs_on,
    has_k4_minor,
    has_k23_minor,
    planar_by_subdivision,
    random_graph,
    random_tree,
    separator_cuts_everything,
)
from surfembed.core import (
    Graph,
    MarkedGraph,
    complete_bipartite,
    complete_graph,
    cone,
    cycle_graph,
    disjoint_union,
    identify_vertices,
    max_disjoint_paths,
)
from surfembed.decompose import decompose, genus_bound, verify_decomposition
from surfembed.dichotomy import (
    almost_outerplanar_dichotomy,
    classify,
    forest_contract_dichotomy,
    forest_edge_dichotomy,
    planar_vertex_flaws,
    star_comb,
    two_connected_structures,
    verify_comb,
)
from surfembed.embeddings import (
    genus_of_rotation,
    min_genus,
    planarity,
    validate_rotation,
    verify_kuratowski,
)
from surfembed.minors import find_minor, verify_marked_model, verify_model
from surfembed.outerplanarity import extract_theta, u_star_search
from surfembed.patterns import aux_pattern, build_pattern, sigma, theta, verify_catalog


def _all_graphs_le7():
    classes = [g for n in range(1, 8) for g in graphs_on(n)]
    assert len(graphs_on(7)) == 1044
    return classes


def test_criterion_1_genus_engine():
    # exact genus one for the two minimal non-planar graphs, exhaustively
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        t0 = time.monotonic()
        r = min_genus(g, 2)
        assert time.monotonic() - t0 < 30
        assert r.status == "ok" and r.genus == 1
        validate_rotation(g, r.rotation)
        assert genus_of_rotation(g, r.rotation) == 1

    # two disjoint K5s: component additivity
    t0 = time.monotonic()
    both = disjoint_union([complete_graph(5), complete_graph(5)])
    r = min_genus(both, 2)
    assert time.monotonic() - t0 < 30
    assert r.status == "ok" and r.genus == 2
    assert genus_of_rotation(both, r.rotation) == 2

    # two K5 blocks on a cut vertex: block additivity with certified blocks
    t0 = time.monotonic()
    wedge = identify_vertices(both, 4, 5)
    r = min_genus(wedge, 2)
    assert time.monotonic() - t0 < 30
    assert r.status == "ok" and r.genus == 2
    validate_rotation(wedge, r.rotation)
    assert genus_of_rotation(wedge, r.rotation) == 2


def test_criterion_2_planarity_totality():
    t0 = time.monotonic()
    mismatches = []
    for g in _all_graphs_le7():
        res = planarity(g)
        if res.planar != planar_by_subdivision(g):
            mismatches.append(g)
            continue
        if res.planar:
            validate_rotation(g, res.rotation)
            assert genus_of_rotation(g, res.rotation) == 0
            assert res.witness is None
        else:
            assert res.rotation is None
            assert verify_kuratowski(g, res.witness) == []
    elapsed = time.monotonic() - t0
    assert mismatches == []
    assert elapsed < 60, f"{elapsed:.1f}s"


def test_criterion_3_outerplanarity_equivalence():
    hosts = [g for g in _all_graphs_le7()
             if len(g.components()) == 1 and planarity(g).planar]

    # fully marked: cone planarity == exclusion of K4 and K23 minors
    for g in hosts:
        coned, _ = cone(g, g.vertices)
        clean = not has_k4_minor(g) and not has_k23_minor(g)
        assert planarity(coned).planar == clean, sorted(g.edges)

    # every marked host with a non-planar cone decodes to a theta
    # witness whose index matches the branch/subdivision case table
    checked = 0
    for g in hosts:
        vs = sorted(g.vertices)
        for r in range(1, len(vs) + 1):
            for u in itertools.combinations(vs, r):
                coned, apex = cone(g, u)
                res = planarity(coned)
                if res.planar:
                    continue
                w = res.witness
                expect = (1 if apex in w.branch_vertices else 2) if w.kind == "K5" \
                    else (3 if apex in w.branch_vertices else 4)
                mg = MarkedGraph(g, frozenset(u))
                t = extract_theta(mg, w, apex)
                assert t.index == expect, (sorted(g.edges), u)
                ok, errs = verify_marked_model(mg, theta(t.index), t.model)
                assert ok, (sorted(g.edges), u, errs)
                checked += 1
    assert checked > 25000


def test_criterion_4_catalog_conversions():
    # (family, index) -> (target sigma index, level drop under the cone)
    table = {
        ("u", 1): (5, 0), ("u", 2): (3, 0),
        ("uprime", 2): (6, 1), ("u", 3): (6, 0),
        ("uprime", 3): (7, 0), ("u", 4): (4, 0),
        ("uprime", 4): (6, 1), ("u", 5): (8, 0),
        ("omega-theta", 1): (3, 0), ("omega-theta", 2): (3, 0),
        ("omega-theta", 3): (4, 0), ("omega-theta", 4): (4, 0),
    }
    t0 = time.monotonic()
    for n in (2, 3):
        rep = verify_catalog(n, incomparability=False)
        assert len(rep.conversions) == 12
        bad = [(r.name, r.detail) for r in rep.conversions if not r.ok]
        assert bad == []
        assert all(r.ok for r in rep.invariants), rep.failures()
        for (family, index), (target, drop) in table.items():
            row = next(r for r in rep.conversions
                       if r.name == f"cone({family}{index}({n}))")
            assert row.detail == f"sigma{target}({n - drop})", (row.name, row.detail)
    assert time.monotonic() - t0 < 120


def test_criterion_5_sigma_incomparability():
    violations = []
    for i in range(1, 9):
        for j in range(1, 9):
            if i == j:
                continue
            r = find_minor(sigma(j, 2), sigma(i, 2), timeout=120)
            if r.status != "absent":
                violations.append(f"sigma{i}(2) < sigma{j}(2): {r.status}")
    assert violations == [], (
        "pairwise incomparability fails at truncation level 2: "
        + "; ".join(violations)
    )


def test_criterion_6_decomposition_round_trip():
    tail = [(4, 100), (100, 101), (101, 102), (100, 102)]
    corpus = [
        complete_graph(5),
        complete_bipartite(3, 3),
        sigma(5, 2),
        complete_graph(5).add_edges(tail),
        complete_bipartite(3, 3).add_edges([(5, 100), (100, 101)]),
        sigma(5, 2).add_edges(tail),
        disjoint_union([complete_graph(5), cycle_graph(6)]),
    ]
    for g in corpus:
        cert = min_genus(g, 3)
        assert cert.status == "ok"
        d = decompose(g, 3)
        ok, errs = verify_decomposition(g, d)
        assert ok, (sorted(g.edges), errs)
        assert genus_bound(d, budget=4) >= cert.genus


def test_criterion_7_dichotomy_soundness_and_classify():
    failures = []

    # (a) the deletion engine's flaw branch is exact on every small graph
    for g in _all_graphs_le7():
        rank = g.cycle_rank()
        for k in {max(0, rank - 1), rank}:
            out = forest_edge_dichotomy(g, 1, k)
            fired = out.tag == "flaw-set"
            if fired != (rank <= k):
                failures.append(f"flaw branch at rank {rank}, k {k}")
                continue
            if fired:
                if len(out.flaw) != rank or g.remove_edges(out.flaw).cycle_rank() != 0:
                    failures.append(f"non-optimal flaw at rank {rank}, k {k}")

    # (b) witnesses from all four engines re-verify from scratch
    structured = [
        disjoint_union([cycle_graph(3)] * 3),
        Graph(range(7), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                         (0, 5), (0, 6), (5, 6)]),
        complete_bipartite(2, 5),
        disjoint_union([complete_graph(4)] * 2),
        aux_pattern("G1", 2),
        aux_pattern("G2", 2),
        disjoint_union([complete_graph(5)] * 2),
        disjoint_union([complete_bipartite(3, 3)] * 2),
    ]
    hosts = structured + [g for g in graphs_on(6) if len(g.components()) == 1]
    engines = (forest_edge_dichotomy, forest_contract_dichotomy,
               almost_outerplanar_dichotomy, planar_vertex_flaws)
    seen = {e.__name__: 0 for e in engines}
    for g in hosts:
        for engine in engines:
            out = engine(g, 2, 0)
            if out.tag != "witness":
                continue
            pid, model = out.witness
            ok, errs = verify_model(g, build_pattern(pid), model)
            if not ok:
                failures.append(f"{engine.__name__} witness fails re-verification: {errs}")
            seen[engine.__name__] += 1
    for name, count in seen.items():
        if count == 0:
            failures.append(f"no witness exercised for {name}")

    # (c) the classifier recognizes every catalog member up to level 3
    for i in range(1, 9):
        for n in (1, 2, 3):
            g = sigma(i, n)
            rep = classify(g, n, 1, 0)
            if not rep.obstructed:
                failures.append(f"classify misses sigma({i},{n})")
                continue
            pid, model = rep.witnesses[0]
            if pid.level < n:
                failures.append(f"classify sigma({i},{n}): level {pid.level} witness")
                continue
            ok, errs = verify_model(g, sigma(pid.index, pid.level), model)
            if not ok:
                failures.append(f"classify sigma({i},{n}) witness invalid: {errs}")

    assert failures == [], "; ".join(failures)


def test_criterion_8_menger_duality():
    rng = random.Random(0xACCE57)
    t0 = time.monotonic()
    for trial in range(1000):
        n = rng.randrange(4, 13)
        g = random_graph(rng, n, rng.uniform(0.15, 0.35))
        vs = sorted(g.vertices)
        a = frozenset(rng.sample(vs, rng.randrange(1, 4)))
        b = frozenset(rng.sample(vs, rng.randrange(1, 4)))
        ps = max_disjoint_paths(g, a, b)
        assert len(ps.paths) == len(ps.separator)
        assert separator_cuts_everything(g, a, b, ps.separator)
        seen: set[int] = set()
        for p in ps.paths:
            assert p[0] in a and p[-1] in b and not (set(p) & seen)
            seen.update(p)

        x = rng.choice(vs)
        marks = frozenset(rng.sample(vs, rng.randrange(1, n + 1)))
        st = u_star_search(MarkedGraph(g, marks), x, 1)
        assert len(st.paths) == len(st.separator)
        h = g.remove_vertices([x])
        assert separator_cuts_everything(
            h, set(g.neighbors(x)) - {x}, marks - {x}, st.separator
        )
    assert time.monotonic() - t0 < 120


def test_criterion_9_structure_searches():
    rng = random.Random(0x57A6)
    # trees with n*n marks always yield a star or a comb
    for n in range(1, 6):
        for trial in range(12):
            size = n * n + rng.randrange(0, 2 * n + 1)
            t = random_tree(rng, size)
            u = frozenset(rng.sample(sorted(t.vertices), n * n))
            s = star_comb(t, u, n)
            assert s is not None, (n, sorted(t.edges), sorted(u))
            assert s.kind in ("star", "comb") and s.level >= n
            ok, errs = verify_comb(t, u, s)
            assert ok, errs

    # the three two-connected families carry their designated structures
    for m in (5, 6, 7):
        g = complete_bipartite(2, m)
        u = frozenset(range(2, m + 2))
        for n in range(2, m):
            s = two_connected_structures(g, u, n)
            assert s is not None and s.kind == "double-star" and s.level >= n
            ok, errs = verify_comb(g, u, s)
            assert ok, errs

        rim1 = [(i, (i + 1) % m) for i in range(m)]
        rim2 = [(m + i, m + (i + 1) % m) for i in range(m)]
        ladder = Graph(range(2 * m), rim1 + rim2 + [(i, m + i) for i in range(m)])
        lu = frozenset(ladder.vertices)
        for n in range(2, m):
            s = two_connected_structures(ladder, lu, n)
            assert s is not None and s.level >= n
            assert s.kind in ("double-star", "ladder")
            ok, errs = verify_comb(ladder, lu, s)
            assert ok, errs
        s = two_connected_structures(ladder, lu, m - 1)
        assert s.kind == "ladder"

        wheel = Graph(range(m + 1),
                      [(i, (i + 1) % m) for i in range(m)] + [(m, i) for i in range(m)])
        wu = frozenset(range(m))
        for n in range(2, m):
            s = two_connected_structures(wheel, wu, n)
            assert s is not None and s.level >= n
            assert s.kind in ("double-star", "fan")
            ok, errs = verify_comb(wheel, wu, s)
            assert ok, errs
        s = two_connected_structures(wheel, wu, m - 1)
        assert s.kind == "fan"
