"""Expected answers from facts that do not depend on surfembed.

Genus formulas are Ringel and Youngs'.  Pattern graphs are written out
from their definitions in the paper, as networkx graphs with a node
attribute marked; they are compared with library output only up to
isomorphism, so the library's vertex numbering never enters a check.
"""

from __future__ import annotations

import networkx as nx


def genus_complete(n: int) -> int:
    """Ringel-Youngs: genus(K_n) = ceil((n-3)(n-4)/12) for n >= 3."""
    return -(-(n - 3) * (n - 4) // 12)


def genus_complete_bipartite(m: int, n: int) -> int:
    """Ringel: genus(K_{m,n}) = ceil((m-2)(n-2)/4) for m, n >= 2."""
    return -(-(m - 2) * (n - 2) // 4)


def _marked(g: nx.Graph, marked=()) -> nx.Graph:
    marked = set(marked)
    for v in g:
        g.nodes[v]["marked"] = v in marked
    return g


def glue(base: nx.Graph, n: int, shared=()) -> nx.Graph:
    """n copies of base, identified along the base vertices in shared;
    node attribute marked is carried over from base."""
    g = nx.Graph()
    for j in range(n):
        name = {v: (v if v in shared else (j, v)) for v in base}
        for v in base:
            g.add_node(name[v], marked=base.nodes[v].get("marked", False))
        g.add_edges_from((name[u], name[v]) for u, v in base.edges)
    return nx.convert_node_labels_to_integers(g)


K5 = _marked(nx.complete_graph(5))
K33 = _marked(nx.complete_bipartite_graph(3, 3))  # sides {0,1,2} and {3,4,5}


def sigma(i: int, n: int) -> nx.Graph:
    """The i-th excluded-minor family at level n: 1/2 disjoint K5/K3,3;
    3/4 K5/K3,3 sharing a vertex; 5/6 sharing an edge; 7 K3,3 sharing two
    vertices of one side; 8 K_{3,n}."""
    if i == 8:
        return _marked(nx.complete_bipartite_graph(3, n))
    base = K5 if i in (1, 3, 5) else K33
    shared = {1: (), 2: (), 3: (0,), 4: (0,), 5: (0, 1), 6: (0, 3), 7: (0, 1)}[i]
    return glue(base, n, shared)


def theta(i: int) -> nx.Graph:
    """The four minimal marked graphs whose cone over the marks is not
    planar: K4 all marked; K5 - e with the ends of e marked; K2,3 with the
    3-side marked; K3,3 - e with the ends of e marked."""
    if i == 1:
        return _marked(nx.complete_graph(4), marked=range(4))
    if i == 2:
        g = nx.complete_graph(5)
        g.remove_edge(0, 1)
        return _marked(g, marked=(0, 1))
    if i == 3:
        return _marked(nx.complete_bipartite_graph(2, 3), marked=(2, 3, 4))
    g = nx.complete_bipartite_graph(3, 3)
    g.remove_edge(0, 3)
    return _marked(g, marked=(0, 3))


def marked_pattern(family: str, index: int, n: int) -> nx.Graph:
    """omega-theta (n disjoint thetas), u (n thetas sharing one marked
    vertex; index 5 is K_{2,n} with the n-side marked) and uprime (sharing
    one unmarked vertex)."""
    if family == "u" and index == 5:
        return _marked(nx.complete_bipartite_graph(2, n), marked=range(2, n + 2))
    t = theta(index)
    if family == "omega-theta":
        return glue(t, n)
    want = family == "u"
    hub = min(v for v in t if t.nodes[v]["marked"] == want)
    return glue(t, n, (hub,))


def aux(kind: str, n: int) -> nx.Graph:
    """Witness shapes of the dichotomy engines: omega = disjoint copies,
    vee = copies sharing a vertex, G1/G2 = K2,3's sharing a vertex of
    degree 3 / degree 2, K2w = K_{2,n}."""
    if kind == "K2w":
        return _marked(nx.complete_bipartite_graph(2, n))
    k23 = _marked(nx.complete_bipartite_graph(2, 3))
    base = {"omegaK3": (_marked(nx.complete_graph(3)), ()),
            "veeK3": (_marked(nx.complete_graph(3)), (0,)),
            "omegaK4": (_marked(nx.complete_graph(4)), ()),
            "veeK4": (_marked(nx.complete_graph(4)), (0,)),
            "omegaK23": (k23, ()),
            "G1": (k23, (0,)),
            "G2": (k23, (2,))}
    g, shared = base[kind]
    return glue(g, n, shared)


def is_outerplanar(g: nx.Graph) -> bool:
    """A graph is outerplanar exactly when adding an apex joined to every
    vertex keeps it planar."""
    h = nx.Graph(g)
    apex = ("apex",)
    h.add_edges_from((apex, v) for v in g)
    h.add_node(apex)
    return nx.is_planar(h)
