"""Isomorphism for small graphs.

A search for a vertex bijection by backtracking, most-constrained vertex
first, with degree pruning.  Fine for the desk-scale graphs this package
works with (tens of vertices); not meant for more.
"""

from __future__ import annotations

from .core import Graph


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some vertex bijection g -> h maps edges exactly onto edges."""
    if g.n != h.n or g.m != h.m:
        return False
    gs = g.sorted_vertices()
    hs = h.sorted_vertices()
    gdeg = {v: g.degree(v) for v in gs}
    hdeg = {v: h.degree(v) for v in hs}
    if sorted(gdeg.values()) != sorted(hdeg.values()):
        return False
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

    return rec(0)
