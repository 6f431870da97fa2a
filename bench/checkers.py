"""Certificate checkers that share no code with surfembed.

Every checker takes plain data (edge lists, dicts, lists) and raises
CheckFailure with the reason when a certificate does not hold.  Graph
facts come from networkx or from the definitions written out here, never
from the library under test.
"""

from __future__ import annotations

import networkx as nx
from networkx.algorithms import isomorphism


class CheckFailure(Exception):
    """A certificate or an answer is wrong."""


def _graph(edges, vertices=()) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from((int(u), int(v)) for u, v in edges)
    return g


# -- rotation systems -----------------------------------------------------


def rotation_genus(edges, rotation: dict, vertices=()) -> int:
    """Orientable genus of the embedding a rotation system describes.

    rotation maps each vertex to the cyclic order of its neighbours.  The
    faces are the orbits of the dart map (u, v) -> (v, w), w the successor
    of u around v; Euler's formula V - E + F = 2 - 2g is applied to each
    component and the genera summed.
    """
    g = _graph(edges, vertices)
    rot = {int(v): [int(w) for w in ns] for v, ns in rotation.items()}
    if set(rot) != set(g.nodes):
        raise CheckFailure("rotation vertices differ from the graph's")
    succ = {}
    for v, ns in rot.items():
        if sorted(ns) != sorted(g.neighbors(v)) or len(set(ns)) != len(ns):
            raise CheckFailure(f"rotation at {v} is not a cyclic order of its neighbours")
        for i, u in enumerate(ns):
            succ[(v, u)] = ns[(i + 1) % len(ns)]
    comps = list(nx.connected_components(g))
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    faces_at: dict[int, int] = {}
    unused = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    while unused:
        start = unused.pop()
        u, v = start
        while True:
            nxt = (v, succ[(v, u)])
            if nxt == start:
                break
            unused.discard(nxt)
            u, v = nxt
        ci = comp_of[start[0]]
        faces_at[ci] = faces_at.get(ci, 0) + 1
    genus = 0
    for ci, comp in enumerate(comps):
        sub = g.subgraph(comp)
        faces = faces_at.get(ci, 1)
        defect = 2 - (sub.number_of_nodes() - sub.number_of_edges() + faces)
        if defect < 0 or defect % 2:
            raise CheckFailure("face count is inconsistent with Euler's formula")
        genus += defect // 2
    return genus


def check_rotation(edges, rotation: dict, genus: int, vertices=()) -> None:
    """The rotation is a valid embedding scheme of the graph with this genus."""
    got = rotation_genus(edges, rotation, vertices)
    if got != genus:
        raise CheckFailure(f"rotation traces to genus {got}, expected {genus}")


# -- Kuratowski subdivisions ----------------------------------------------


def check_kuratowski(edges, kind: str, branch, paths: dict) -> None:
    """A K5 or K3,3 subdivision: branch vertices plus internally disjoint
    host paths, one per pattern edge (paths keyed by (i, j), i < j)."""
    g = _graph(edges)
    if kind == "K5":
        want = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    elif kind == "K33":
        want = {(i, j) for i in range(3) for j in range(3, 6)}
    else:
        raise CheckFailure(f"unknown Kuratowski kind {kind!r}")
    branch = [int(b) for b in branch]
    if len(set(branch)) != (5 if kind == "K5" else 6) or not all(b in g for b in branch):
        raise CheckFailure("branch vertices are not distinct host vertices")
    if set(paths) != want:
        raise CheckFailure("paths do not match the pattern edges")
    inner_seen: set[int] = set()
    for (i, j), p in paths.items():
        p = [int(x) for x in p]
        if len(p) < 2 or p[0] != branch[i] or p[-1] != branch[j]:
            raise CheckFailure(f"path {i}-{j} does not join its branch vertices")
        if len(set(p)) != len(p):
            raise CheckFailure(f"path {i}-{j} repeats a vertex")
        if any(not g.has_edge(a, b) for a, b in zip(p, p[1:])):
            raise CheckFailure(f"path {i}-{j} uses a non-edge")
        inner = set(p[1:-1])
        if inner & set(branch) or inner & inner_seen:
            raise CheckFailure(f"path {i}-{j} meets another path or a branch vertex")
        inner_seen |= inner


# -- minor models ------------------------------------------------------------


def check_minor_model(
    host_edges,
    branch_sets: dict,
    connectors: dict,
    pattern: nx.Graph,
    host_marked=(),
    host_vertices=(),
) -> None:
    """A minor model of pattern in the host, up to relabelling the pattern.

    branch_sets maps model vertices to host vertex sets and connectors maps
    model edges (a, b) to host edges.  The model's own vertices and edges
    form a graph that must be isomorphic to pattern.  Pattern vertices
    with node attribute marked=True must land on branch sets that hold a
    marked host vertex (the marked rule).
    """
    g = _graph(host_edges, host_vertices)
    marked = {int(v) for v in host_marked}
    bsets = {int(k): {int(v) for v in bs} for k, bs in branch_sets.items()}
    seen: set[int] = set()
    for pv, bs in bsets.items():
        if not bs:
            raise CheckFailure(f"branch set {pv} is empty")
        if not all(v in g for v in bs):
            raise CheckFailure(f"branch set {pv} leaves the host")
        if bs & seen:
            raise CheckFailure(f"branch set {pv} overlaps another branch set")
        seen |= bs
        if not nx.is_connected(g.subgraph(bs)):
            raise CheckFailure(f"branch set {pv} is disconnected")
    model = nx.Graph()
    model.add_nodes_from(bsets)
    for (a, b), (x, y) in connectors.items():
        a, b, x, y = int(a), int(b), int(x), int(y)
        if a not in bsets or b not in bsets or a == b:
            raise CheckFailure(f"connector for unknown model edge {a}-{b}")
        if not g.has_edge(x, y):
            raise CheckFailure(f"connector {x}-{y} is not a host edge")
        if not ((x in bsets[a] and y in bsets[b]) or (x in bsets[b] and y in bsets[a])):
            raise CheckFailure(f"connector {x}-{y} does not join branch sets {a} and {b}")
        model.add_edge(a, b)
    for pv in model:
        model.nodes[pv]["can_mark"] = bool(bsets[pv] & marked)

    def node_ok(model_attrs, pattern_attrs):
        return model_attrs["can_mark"] or not pattern_attrs.get("marked", False)

    matcher = isomorphism.GraphMatcher(model, pattern, node_match=node_ok)
    if not matcher.is_isomorphic():
        raise CheckFailure("model does not realise the pattern (or breaks the marked rule)")


# -- decompositions ----------------------------------------------------------


def check_decomposition(host_edges, pieces, host_vertices=()) -> None:
    """Pieces are subgraphs of the host that cover it exactly, and each
    piece is planar by networkx's test.  A piece is (vertices, edges)."""
    g = _graph(host_edges, host_vertices)
    host_e = {frozenset(e) for e in g.edges}
    vs: set[int] = set()
    es: set[frozenset[int]] = set()
    for i, (p_vertices, p_edges) in enumerate(pieces):
        piece = _graph(p_edges, p_vertices)
        pe = {frozenset(e) for e in piece.edges}
        if not set(piece.nodes) <= set(g.nodes) or not pe <= host_e:
            raise CheckFailure(f"piece {i} is not a subgraph of the host")
        if not nx.is_planar(piece):
            raise CheckFailure(f"piece {i} is not planar")
        vs |= set(piece.nodes)
        es |= pe
    if vs != set(g.nodes) or es != host_e:
        raise CheckFailure("pieces do not cover the host exactly")
