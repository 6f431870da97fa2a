"""Finite simple graphs and the handful of surgical operations everything else builds on.

Vertices are non-negative integers.  Edges are unordered pairs, stored normalized
as (min, max) tuples.  All value types are immutable after construction; every
operation returns a new object and uses deterministic tie-breaking (smallest id
first) so that repeated runs produce identical output.  The one deadline
mechanism every search shares lives here too.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph.

    Endpoints of supplied edges are added to the vertex set automatically, so
    ``Graph(edges=[(0, 1)])`` is the single edge.  Isolated vertices are kept.

    ``Graph(...)`` checks and normalises what it is given.  Graphs derived
    from another graph (``subgraph``, ``remove_vertices``, ``remove_edges``,
    ``edge_subgraph``) skip that pass: their parts come from a graph that was
    already checked, and their adjacency rows are filtered from its sorted
    rows.  They equal what ``Graph(...)`` would build, down to the iteration
    order of ``vertices`` and ``edges``.  A surgery that changes nothing
    returns the graph itself, which is safe because graphs are immutable.
    """

    __slots__ = ("vertices", "edges", "_adj", "_hash")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Sequence[int]] = ()):
        vs = set()
        for v in vertices:
            v = int(v)
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
            vs.add(v)
        es = set()
        for e in edges:
            u, v = e
            es.add(norm_edge(int(u), int(v)))
        for u, v in es:
            if u < 0:
                raise ValueError(f"negative vertex id {u}")
            vs.add(u)
            vs.add(v)
        self.vertices: frozenset[int] = frozenset(vs)
        self.edges: frozenset[Edge] = frozenset(es)
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for u, v in es:
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }
        self._hash = hash((self.vertices, self.edges))

    @classmethod
    def _derived(
        cls, vs: Iterable[int], es: Iterable[Edge], adj: dict[int, tuple[int, ...]]
    ) -> "Graph":
        """A graph from parts another graph has already normalised: vertex
        ids, normalised edges and sorted adjacency rows.  vs and es are
        stored the way __init__ stores them, one add at a time into a set
        that is then frozen, so the frozensets iterate in the same order."""
        g = object.__new__(cls)
        g.vertices = frozenset({v for v in vs})
        g.edges = frozenset({e for e in es})
        g._adj = adj
        g._hash = hash((g.vertices, g.edges))
        return g

    # -- basic queries -------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    # -- derived subgraphs ---------------------------------------------

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep = set(keep)
        vs = keep & self.vertices
        if len(vs) == len(self.vertices):
            return self
        adj = self._adj
        return Graph._derived(
            vs,
            [e for e in self.edges if e[0] in keep and e[1] in keep],
            {v: tuple(w for w in adj[v] if w in keep) for v in vs},
        )

    def remove_vertices(self, drop: Iterable[int]) -> "Graph":
        drop = set(drop)
        return self.subgraph(self.vertices - drop)

    def remove_edges(self, drop: Iterable[Sequence[int]]) -> "Graph":
        gone = {norm_edge(u, v) for u, v in drop}
        es = self.edges - gone
        if len(es) == len(self.edges):
            return self
        adj = dict(self._adj)
        for u, v in gone & self.edges:
            adj[u] = tuple(w for w in adj[u] if w != v)
            adj[v] = tuple(w for w in adj[v] if w != u)
        return Graph._derived(self.vertices, es, adj)

    def add_edges(self, extra: Iterable[Sequence[int]]) -> "Graph":
        return Graph(self.vertices, list(self.edges) + [tuple(e) for e in extra])

    def edge_subgraph(self, keep_edges: Iterable[Sequence[int]]) -> "Graph":
        es = {norm_edge(u, v) for u, v in keep_edges}
        missing = es - self.edges
        if missing:
            raise ValueError(f"edges not in graph: {sorted(missing)}")
        vs = set()
        for u, v in es:
            vs.add(u)
            vs.add(v)
        adj = self._adj
        rows = {
            v: tuple(w for w in adj[v] if ((v, w) if v < w else (w, v)) in es)
            for v in vs
        }
        return Graph._derived(vs, es, rows)

    # -- connectivity ---------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        """Connected components, each a frozenset, ordered by smallest member."""
        seen: set[int] = set()
        comps = []
        for start in self.sorted_vertices():
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def cycle_rank(self) -> int:
        return self.m - self.n + len(self.components())

    # -- relabeling ------------------------------------------------------

    def relabel(self, mapping: dict[int, int]) -> "Graph":
        """Apply an injective vertex relabeling; ids not in the map are kept."""
        img = {v: mapping.get(v, v) for v in self.vertices}
        if len(set(img.values())) != len(img):
            raise ValueError("relabeling is not injective")
        return Graph(
            img.values(),
            [(img[u], img[v]) for u, v in self.edges],
        )

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class MarkedGraph:
    """A graph together with a distinguished set of marked vertices."""

    graph: Graph
    marked: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        marked = frozenset(self.marked)
        object.__setattr__(self, "marked", marked)
        stray = marked - self.graph.vertices
        if stray:
            raise ValueError(f"marked vertices not in graph: {sorted(stray)}")

    def __repr__(self) -> str:
        return f"MarkedGraph(n={self.graph.n}, m={self.graph.m}, marked={len(self.marked)})"


@dataclass(frozen=True)
class PathSystem:
    """A family of pairwise disjoint paths plus the dual separator certificate.

    ``paths`` are vertex sequences (a single vertex is a trivial path).  The
    separator is a vertex set meeting every a-b path of the host graph; Menger
    duality makes len(paths) == len(separator) at the maximum.
    """

    paths: tuple[tuple[int, ...], ...]
    separator: frozenset[int]


# -- constructors --------------------------------------------------------


def complete_graph(k: int, offset: int = 0) -> Graph:
    vs = range(offset, offset + k)
    return Graph(vs, [(u, v) for u in vs for v in vs if u < v])


def complete_bipartite(a: int, b: int, offset: int = 0) -> Graph:
    left = range(offset, offset + a)
    right = range(offset + a, offset + a + b)
    return Graph(list(left) + list(right), [(u, v) for u in left for v in right])


def cycle_graph(k: int, offset: int = 0) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    vs = list(range(offset, offset + k))
    return Graph(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def path_graph(k: int, offset: int = 0) -> Graph:
    vs = list(range(offset, offset + k))
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(k - 1)])


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; copy j is shifted so its ids start above copy j-1's maximum."""
    vs: list[int] = []
    es: list[Edge] = []
    offset = 0
    for g in graphs:
        shift = offset - (min(g.vertices) if g.vertices else 0)
        vs.extend(v + shift for v in g.vertices)
        es.extend((u + shift, v + shift) for u, v in g.edges)
        if g.vertices:
            offset = max(v + shift for v in g.vertices) + 1
    return Graph(vs, es)


# -- surgery ---------------------------------------------------------------


def identify_vertices(g: Graph, v: int, w: int) -> Graph:
    """Merge w into v: w's edges are re-attached to v, loops and parallels dropped."""
    if v not in g.vertices or w not in g.vertices:
        raise ValueError("identify_vertices: endpoint not in graph")
    if v == w:
        raise ValueError("identify_vertices: the two vertices must differ")
    es = []
    for a, b in g.edges:
        a2 = v if a == w else a
        b2 = v if b == w else b
        if a2 != b2:
            es.append((a2, b2))
    return Graph(g.vertices - {w}, es)


def cone(g: Graph, over: Iterable[int]) -> tuple[Graph, int]:
    """Add a fresh apex joined to every vertex of ``over``; returns (graph, apex id)."""
    over = set(over)
    stray = over - g.vertices
    if stray:
        raise ValueError(f"cone: vertices not in graph: {sorted(stray)}")
    apex = max(g.vertices, default=-1) + 1
    return (
        Graph(set(g.vertices) | {apex}, list(g.edges) + [(apex, u) for u in over]),
        apex,
    )


def contract(g: Graph, contracted: Iterable[Sequence[int]]) -> tuple[Graph, dict[int, int]]:
    """Contract an edge set: quotient by components of (V, contracted edges).

    Each component is relabeled to its smallest vertex id.  Returns the quotient
    graph and the vertex -> representative map.  Loops vanish, parallels collapse.
    """
    ces = {norm_edge(u, v) for u, v in contracted}
    missing = ces - g.edges
    if missing:
        raise ValueError(f"contract: edges not in graph: {sorted(missing)}")
    if not ces:
        return g, {v: v for v in g.vertices}
    parent = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in ces:
        ru, rv = find(u), find(v)
        if ru != rv:
            # keep the smaller id as the class representative
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    rep = {v: find(v) for v in g.vertices}
    es = []
    for u, v in g.edges:
        a, b = rep[u], rep[v]
        if a != b:
            es.append((a, b))
    return Graph(set(rep.values()), es), rep


# -- disjoint paths / Menger ------------------------------------------------


def _max_flow_paths(
    g: Graph, a: frozenset[int], b: frozenset[int]
) -> tuple[list[list[int]], set[int]]:
    """Unit-capacity vertex-split max flow between vertex sets.

    Every vertex has capacity one, so the paths are fully disjoint and the
    min cut is a vertex separator of equal size.

    Vertex i (in sorted order) splits into node 2i (in) and 2i + 1 (out);
    2n is the source and 2n + 1 the sink.  Arcs are integers: arc e runs to
    head[e] with residual capacity res[e], and e ^ 1 is its reverse, so
    even arcs carry the capacities and an even arc's flow is res[e ^ 1].
    The in-out arc of vertex i is arc 2i.  Arcs are inserted in a fixed
    order (vertex arcs, both arcs of each edge in sorted edge order, source
    arcs, sink arcs) and each node keeps its arcs in that order, so the
    breadth-first augmentations find the same paths as a search over
    tuple-keyed arc dicts built in that order.  The flow decomposes into
    paths by always leaving a node along the smallest head with flow left,
    and the separator is read off the residual reachability of the last,
    failed augmentation; both depend only on the flow, so the paths and
    the separator are those of the dict-based search too.
    """
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    src, snk = 2 * n, 2 * n + 1
    big = n + 1 + len(g.edges)
    # vertex arcs: arc 2i runs in -> out, arc 2i + 1 back
    head = [e ^ 1 for e in range(2 * n)]
    arcs = [[e] for e in range(2 * n)] + [[], []]
    # edge arcs carry capacity 1: a simple-graph edge is used by one path
    for u, v in g.sorted_edges():
        in_u, in_v = 2 * idx[u], 2 * idx[v]
        e = len(head)
        # out(u) -> in(v) and back, then out(v) -> in(u) and back
        head += (in_v, in_u + 1, in_u, in_v + 1)
        arcs[in_u + 1].append(e)
        arcs[in_v].append(e + 1)
        arcs[in_v + 1].append(e + 2)
        arcs[in_u].append(e + 3)
    res = [1, 0] * (len(head) // 2)
    for v in sorted(a):
        arcs[src].append(len(head))
        arcs[2 * idx[v]].append(len(head) + 1)
        head += (2 * idx[v], src)
        res += (big, 0)
    for v in sorted(b):
        arcs[2 * idx[v] + 1].append(len(head))
        arcs[snk].append(len(head) + 1)
        head += (snk, 2 * idx[v] + 1)
        res += (big, 0)

    while True:
        # breadth-first search of the residual graph; via[y] is the arc
        # that reached y (-1: not reached; the source holds a dummy arc),
        # stopping once the sink is taken
        via = [-1] * (2 * n + 2)
        via[src] = len(head)
        order = [src]
        for x in order:
            if x == snk:
                break
            for e in arcs[x]:
                if res[e]:
                    y = head[e]
                    if via[y] < 0:
                        via[y] = e
                        order.append(y)
        if via[snk] < 0:
            break
        y = snk
        while y != src:
            e = via[y]
            res[e] -= 1
            res[e ^ 1] += 1
            y = head[e ^ 1]

    # decompose the integral flow into source-sink paths, leaving each node
    # along the smallest head with flow left
    leaving: list[list[int]] = [[] for _ in range(2 * n + 2)]
    for e in range(0, len(head), 2):
        f = res[e ^ 1]
        if f:
            leaving[head[e ^ 1]].extend([head[e]] * f)
    for lst in leaving:
        lst.sort(reverse=True)
    raw_paths: list[list[int]] = []
    while leaving[src]:
        walk = [src]
        x = src
        while x != snk:
            x = leaving[x].pop()
            walk.append(x)
        raw_paths.append(walk)

    # each walk enters and leaves every vertex once: in-node, then out-node
    paths = [[verts[node // 2] for node in walk[1:-1:2]] for walk in raw_paths]

    # min cut: the nodes the failed search reached.  An arc from a reached
    # to an unreached node is saturated; it charges its head: a cut vertex
    # arc its own vertex, a cut edge arc the vertex it enters, whose unit
    # capacity it saturates
    separator: set[int] = set()
    for e in range(0, len(head), 2):
        x, y = head[e ^ 1], head[e]
        if x < src and y < src and via[x] >= 0 and via[y] < 0:
            separator.add(verts[y // 2])
    return paths, separator


def max_disjoint_paths(g: Graph, a: Iterable[int], b: Iterable[int]) -> PathSystem:
    """Maximum family of disjoint a-b paths plus an equal-size separator.

    Paths are pairwise vertex-disjoint, endpoints too, and the separator may
    use a/b vertices.  Vertices in both a and b yield trivial zero-length
    paths.  For internally disjoint x-y paths, take disjoint paths in
    g - {x, y} from N(x) - {y} to N(y) - {x} and add x and y at the ends.
    """
    a = frozenset(a)
    b = frozenset(b)
    stray = (a | b) - g.vertices
    if stray:
        raise ValueError(f"path endpoints not in graph: {sorted(stray)}")
    if not a or not b:
        return PathSystem(paths=(), separator=frozenset())
    paths, separator = _max_flow_paths(g, a, b)
    paths_t = tuple(tuple(p) for p in sorted(paths))
    return PathSystem(paths=paths_t, separator=frozenset(separator))


# -- blocks -----------------------------------------------------------------


@dataclass(frozen=True)
class BlockStructure:
    """Biconnected components: blocks partition the edges; bridges are 2-vertex blocks."""

    blocks: tuple[frozenset[Edge], ...]
    cut_vertices: frozenset[int]


def blocks(g: Graph) -> BlockStructure:
    """Hopcroft-Tarjan biconnected components by iterative DFS."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    stack_edges: list[Edge] = []
    out_blocks: list[frozenset[Edge]] = []
    cuts: set[int] = set()
    timer = 0

    for root in g.sorted_vertices():
        if root in disc:
            continue
        parent[root] = None
        work: list[tuple[int, Iterator[int]]] = [(root, iter(g.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    parent[w] = v
                    stack_edges.append(norm_edge(v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    work.append((w, iter(g.neighbors(w))))
                    advanced = True
                    break
                elif w != parent[v] and disc[w] < disc[v]:
                    stack_edges.append(norm_edge(v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # u separates: pop the finished block
                    blk: set[Edge] = set()
                    e = norm_edge(u, v)
                    while stack_edges:
                        top = stack_edges.pop()
                        blk.add(top)
                        if top == e:
                            break
                    out_blocks.append(frozenset(blk))
                    if u != root or root_children > 1:
                        cuts.add(u)
        if root_children > 1:
            cuts.add(root)
    out_blocks.sort(key=lambda b: sorted(b))
    return BlockStructure(blocks=tuple(out_blocks), cut_vertices=frozenset(cuts))


# -- minimal connecting forest ----------------------------------------------


def minimal_connecting_forest(g: Graph, terminals: Iterable[int]) -> Graph:
    """Inclusion-minimal forest joining the terminals within each component of g.

    Built per component as a BFS tree pruned of every non-terminal leaf, so the
    result's leaves all lie in the terminal set.
    """
    terminals = set(terminals)
    stray = terminals - g.vertices
    if stray:
        raise ValueError(f"terminals not in graph: {sorted(stray)}")
    forest_edges: list[Edge] = []
    forest_vertices: set[int] = set()
    for comp in g.components():
        terms = terminals & comp
        if len(terms) < 1:
            continue
        root = min(terms)
        prev: dict[int, int] = {root: root}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y in comp and y not in prev:
                    prev[y] = x
                    queue.append(y)
        adj: dict[int, set[int]] = {v: set() for v in prev}
        for v, p in prev.items():
            if v != p:
                adj[v].add(p)
                adj[p].add(v)
        # prune non-terminal leaves from a queue, as the result does not
        # depend on the order; the root is a terminal, so a queued leaf still
        # has its one neighbour when it is taken
        leaves = [v for v, ns in adj.items() if len(ns) == 1 and v not in terms]
        while leaves:
            v = leaves.pop()
            (w,) = adj.pop(v)
            adj[w].discard(v)
            if len(adj[w]) == 1 and w not in terms:
                leaves.append(w)
        forest_edges.extend(
            sorted(norm_edge(v, p) for v, p in prev.items() if v != p and v in adj)
        )
        forest_vertices |= adj.keys()
    return Graph(forest_vertices, forest_edges)


# -- deadlines ----------------------------------------------------------------


class SearchTimeout(Exception):
    """A search deadline passed."""


def deadline_after(timeout: float | None) -> float | None:
    """The monotonic time `timeout` seconds from now; None means no limit."""
    return None if timeout is None else time.monotonic() + timeout


def time_left(deadline: float | None) -> float | None:
    """Seconds left before the deadline (None: no limit); raises
    SearchTimeout once none are.  A compound call passes this as the
    timeout of each stage, so one deadline bounds the whole call."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise SearchTimeout
    return left


def settled(result):
    """The result of a stage, unless its status is "timeout": that raises
    SearchTimeout."""
    if result.status == "timeout":
        raise SearchTimeout
    return result
