"""Canonical forms and isomorphism for small graphs.

Canonical labeling by individualisation and refinement, with automorphism
pruning.  Fine for the desk-scale graphs this package works with (tens of
vertices); not meant for more.
"""

from __future__ import annotations

from .core import Graph


def _refine(g: Graph, colors: dict[int, int]) -> dict[int, int]:
    """Iterated neighbor-color refinement until stable."""
    while True:
        sig = {
            v: (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in g.vertices
        }
        order = sorted(set(sig.values()))
        rank = {s: i for i, s in enumerate(order)}
        nxt = {v: rank[sig[v]] for v in g.vertices}
        if nxt == colors:
            return colors
        colors = nxt


def canonical_form(g: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """A label-independent fingerprint: (n, canonically relabeled edge set).

    Individualise and refine: from the stable colouring, the first colour
    class with more than one vertex is split by giving each of its
    vertices in turn a colour of its own, and the colouring is refined
    again; each discrete colouring orders the vertices, and the least
    relabeled edge list over all of them is the form.  Two leaves with the
    same edge list give an automorphism, and a vertex is not tried where
    an automorphism fixing the vertices individualised so far maps it to
    one already tried, since its subtree gives the same forms.
    """
    if not g.vertices:
        return (0, frozenset())
    best: tuple[tuple[int, int], ...] | None = None
    best_order: list[int] = []
    autos: list[dict[int, int]] = []

    def same_orbit(v: int, tried: list[int], fixed: list[int]) -> bool:
        root = {u: u for u in g.vertices}

        def find(u: int) -> int:
            while root[u] != u:
                u = root[u]
            return u

        for a in autos:
            if all(a[f] == f for f in fixed):
                for u, w in a.items():
                    root[find(u)] = find(w)
        return any(find(v) == find(t) for t in tried)

    def search(colors: dict[int, int], fixed: list[int]) -> None:
        nonlocal best, best_order
        cells: dict[int, list[int]] = {}
        for v in sorted(g.vertices):
            cells.setdefault(colors[v], []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            key = tuple(sorted(
                (min(colors[u], colors[v]), max(colors[u], colors[v])) for u, v in g.edges
            ))
            order = sorted(g.vertices, key=colors.__getitem__)
            if best is None or key < best:
                best, best_order = key, order
            elif key == best:
                autos.append(dict(zip(best_order, order)))
            return
        tried: list[int] = []
        for v in target:
            if tried and same_orbit(v, tried, fixed):
                continue
            tried.append(v)
            split = {u: 2 * c + (u != v) for u, c in colors.items()}
            search(_refine(g, split), fixed + [v])

    search(_refine(g, {v: 0 for v in g.vertices}), [])
    assert best is not None
    return (g.n, frozenset(best))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """Explicit vertex bijection g -> h, or None.  Backtracking with degree pruning."""
    if g.n != h.n or g.m != h.m:
        return None
    gs = g.sorted_vertices()
    hs = h.sorted_vertices()
    gdeg = {v: g.degree(v) for v in gs}
    hdeg = {v: h.degree(v) for v in hs}
    if sorted(gdeg.values()) != sorted(hdeg.values()):
        return None
    # most-constrained-first: descending degree
    order = sorted(gs, key=lambda v: (-gdeg[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def ok(v: int, w: int) -> bool:
        if gdeg[v] != hdeg[w]:
            return False
        for u in mapping:
            if g.has_edge(u, v) != h.has_edge(mapping[u], w):
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in hs:
            if w in used or not ok(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if rec(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if rec(0) else None
