"""Isomorphism for small graphs.

An explicit vertex bijection by backtracking, most-constrained vertex
first, with degree pruning.  Fine for the desk-scale graphs this package
works with (tens of vertices); not meant for more.
"""

from __future__ import annotations

from .core import Graph


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
