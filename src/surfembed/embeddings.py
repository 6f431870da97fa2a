"""Rotation systems, face tracing, and orientable genus.

A rotation system fixes a cyclic order of neighbors at each vertex and thereby
a cellular embedding in an orientable surface; tracing the face orbits and
applying Euler's formula per component gives the genus.

min_genus is the one genus engine.  Genus is additive over biconnected blocks,
so it splits the graph into blocks and settles every planar block with one
left-right planarity run, whose embedding it keeps.  Only non-planar blocks
are searched: a depth-first search on an explicit stack over incremental face
tracings.  Every face of a 2-connected block holds a cycle, so it takes at
least girth darts; that gives each block a certified lower bound,
max(1, Euler bound), at which the search stops as soon as an embedding
reaches it.  At each node the open face also still needs girth minus its
length in darts, and one or two more when its last dart cannot close it;
what is left bounds the faces still achievable.  That bound cuts only
subtrees without an embedding good enough to be recorded, so the answers
are the ones the plain girth bound gives.

The time such a search takes to its first hit varies by orders of magnitude
with the order of the darts (K9 at genus 3: 743 627 nodes in the base
order, a median of 5 196 over neighbour orders seeded 1 to 30), so each
non-planar block is searched by a small portfolio of the same kernel.  The
kernel is a generator that yields every 4096 nodes.  The base order runs one
slice alone, and most searches end there with the base order's rotation.
Otherwise three orders, each vertex's neighbours shuffled by a fixed seed,
join it in rounds that give the base order as many slices as the three
together, and the first kernel to end decides.  Every kernel is exact, so
the answer is the same whichever ends first; the rotation is that kernel's,
and the same on every call.  The base order gets half of every round, so no
search costs more than about twice its base-order nodes; a search that has
to exhaust its tree under every order, because its genus lies above the
lower bound or above the budget, costs about that much.  The block rotations
are joined at the cut vertices and the whole rotation is re-traced before
it is returned.

Planarity has two modes, and every left-right (LR) run is a call of
lr.lr_planarity on an edge list.  Before any run, _settled decides what it
can without one: it counts edges and degrees, and it decides every graph with
at most six vertices of degree >= 3 by topological reduction to at most six
vertices, where a K5 or a K33 subgraph is the only obstruction.  is_planar()
makes at most one LR run in the test's boolean mode, which stops after the
testing search, and only for a graph with seven or more such vertices; it
returns a bool and nothing else.  planarity() gives evidence either way: a
planar graph gets the rotation system from one LR run in embedding mode,
re-traced to genus 0, and a non-planar graph is cut down to one non-planar
block and then by chunked edge deletion (ddmin) on integer bit masks to a
K5/K33 subdivision witness, re-verified edge by edge.  min_genus settles its
planar blocks with the same embedding-mode run.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Literal, Sequence

from . import lr
from .core import Edge, Graph, SearchTimeout, blocks, deadline_after, norm_edge

# ---------------------------------------------------------------------------
# rotation systems and faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic neighbor order at every vertex (orientable embedding scheme)."""

    order: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def from_dict(cls, rot: dict[int, Sequence[int]]) -> "RotationSystem":
        return cls(tuple((v, tuple(ns)) for v, ns in sorted(rot.items())))

    def as_dict(self) -> dict[int, tuple[int, ...]]:
        return {v: ns for v, ns in self.order}


def validate_rotation(g: Graph, rot: RotationSystem) -> None:
    d = rot.as_dict()
    if set(d) != set(g.vertices):
        raise ValueError("rotation vertices do not match the graph")
    for v, ns in d.items():
        if sorted(ns) != list(g.neighbors(v)):
            raise ValueError(f"rotation at {v} is not a permutation of its neighbors")


def trace_faces(g: Graph, rot: RotationSystem) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The faces of a rotation system, each a tuple of darts (u, v): the
    orbits of the dart map, after (u, v) comes (v, w) where w follows u in
    the rotation at v.  Every dart lies on exactly one face."""
    validate_rotation(g, rot)
    order = rot.as_dict()
    succ: dict[tuple[int, int], int] = {}
    for v, ns in order.items():
        k = len(ns)
        for i, u in enumerate(ns):
            succ[(v, u)] = ns[(i + 1) % k]
    darts = sorted((u, v) for u, v in list(g.edges) + [(b, a) for a, b in g.edges])
    unused = set(darts)
    faces = []
    for start in darts:
        if start not in unused:
            continue
        walk = []
        d = start
        while True:
            walk.append(d)
            unused.discard(d)
            u, v = d
            d = (v, succ[(v, u)])
            if d == start:
                break
        faces.append(tuple(walk))
    return tuple(faces)


def genus_of_rotation(g: Graph, rot: RotationSystem) -> int:
    """Euler genus count: sum over components of (2 - V + E - F) / 2."""
    faces = trace_faces(g, rot)
    comps = g.components()
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    e_count = [0] * len(comps)
    for u, _ in g.edges:
        e_count[comp_of[u]] += 1
    f_count = [0] * len(comps)
    for f in faces:
        f_count[comp_of[f[0][0]]] += 1
    total = 0
    for i, c in enumerate(comps):
        vs = len(c)
        es = e_count[i]
        fc = f_count[i] if es else 1
        euler = vs - es + fc
        if (2 - euler) % 2:
            raise AssertionError("odd Euler defect: face trace is inconsistent")
        total += (2 - euler) // 2
    return total


# ---------------------------------------------------------------------------
# minimum genus
# ---------------------------------------------------------------------------


class BudgetExceeded(RuntimeError):
    """A genus value needed by a computation could not be certified within
    the given budget."""


@dataclass(frozen=True)
class GenusResult:
    """Outcome of a genus computation.

    status 'ok': genus is exact and rotation witnesses it.
    status 'exceeds-budget': genus > budget; lower_bound is certified.
    status 'timeout': the deadline ended the search.  lower_bound is still
    certified (the genera of the blocks settled so far plus the Euler bounds
    of the rest); genus, rotation and upper_bound are unset.
    """

    status: Literal["ok", "exceeds-budget", "timeout"]
    genus: int | None
    rotation: RotationSystem | None
    lower_bound: int
    upper_bound: int | None = None

    @property
    def certified(self) -> bool:
        return self.status in ("ok", "exceeds-budget")


def _girth(g: Graph) -> int:
    """Length of a shortest cycle of g, which must have one: breadth-first
    search from every vertex, stopping once no shorter cycle can close."""
    best = g.n + 1
    for s in g.vertices:
        if best == 3:  # no cycle is shorter
            break
        dist = {s: 0}
        parent = {s: s}
        queue = [s]
        for u in queue:
            du = dist[u]
            if 2 * du >= best:
                break
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, du + dist[w] + 1)
    return best


_SLICE = 4096  # search nodes between a kernel's yields
_SEEDS = (1, 2, 3)  # the seeded dart orders of the genus portfolio
_BlockGenus = tuple[int, dict[int, tuple[int, ...]]]  # genus, block rotation


def _block_kernel(
    g: Graph, girth: int, lower: int, budget: int, rng: random.Random | None = None
) -> Generator[None, None, _BlockGenus | None]:
    """The exhaustive search of one non-planar 2-connected block, as a
    generator that yields after every _SLICE search nodes and returns, via
    StopIteration, the minimum genus if it is <= budget with the first
    rotation found attaining it, or None if the genus exceeds the budget.

    Depth-first search over incremental face tracings, on an explicit stack.
    Rotations are built as successor pairs over the out-darts at each vertex
    while faces are traced, so each full leaf is exactly one rotation system.
    The search stops at the first embedding of genus `lower`, a certified
    lower bound.  Given rng, each vertex's neighbour list is shuffled before
    the darts are numbered; that changes only the order in which the same
    tree of rotation systems is searched, so the genus, or None, is the same.

    Open-face bound.  Every face of a block with minimum degree 2 is a
    closed walk that holds a cycle, so it takes at least girth darts.  After
    a step the open face holds L darts, and it can close only at the tail of
    its first dart.  It therefore still needs r >= girth - L darts, at least
    1 if its last dart does not end there, and at least 2 if moreover the
    dart back there is missing or used.  The darts left after those r can
    close at most (left - r) // girth more faces, so a node is pruned when
    the closed faces, plus 1 for the open face, plus that count stay below
    the faces needed.  The bound prunes only subtrees that hold no leaf with
    enough faces, and `need` only grows, so the nodes that survive are
    visited in the same order as without it and record the same incumbents:
    the same genus and rotation, from fewer nodes.

    The candidates that may follow x at its vertex v are not listed: a scan
    index on the stack tries f0 first, then the out-darts of v in dart
    order.  Every change made below a node is undone before the search
    returns to it, so testing a candidate when it is tried gives the same
    answer as testing it when the node was entered.
    """
    verts = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    vn, en, nd = len(verts), g.m, 2 * g.m
    vidx = {v: i for i, v in enumerate(verts)}
    # darts are numbered vertex by vertex, so the out-darts of vertex i are
    # lo[i] .. lo[i + 1] - 1 and the lowest unused dart starts the next face
    tail: list[int] = []
    head: list[int] = []
    lo = [0]
    for i, v in enumerate(verts):
        ns = list(g.neighbors(v))
        if rng is not None:
            rng.shuffle(ns)
        for w in ns:
            tail.append(i)
            head.append(vidx[w])
        lo.append(len(tail))
    dart_of = {(t, h): d for d, (t, h) in enumerate(zip(tail, head))}
    rev = [dart_of[h, t] for t, h in zip(tail, head)]
    deg = [lo[i + 1] - lo[i] for i in range(vn)]

    succ = [-1] * nd  # successor among out-darts at the same vertex
    pred = [-1] * nd
    used = [False] * (nd + 1)  # used[nd] stays False: "no dart left"
    chain_start = list(range(nd))  # valid when indexed by a chain end
    chain_end = list(range(nd))  # valid when indexed by a chain start
    chain_size = [1] * nd  # valid when indexed by a chain start

    # faces needed for genus == budget, then for each better embedding; like
    # every face count it has the parity of en - vn, so the bound below
    # needs no parity rounding
    need = en - vn + 2 - 2 * budget
    f_stop = en - vn + 2 - 2 * lower
    best_f = -1
    best_succ: list[int] | None = None
    nodes = 0

    # the current node: x is the out-dart at vertex v that the open face
    # just reached, sx the start of x's chain, f0 the dart that opened the
    # face, fd the darts on closed faces; i is the next out-dart of v to try
    # after f0, and -1 while f0 itself is still to be tried
    used[0] = True
    x, f0, closed, fd, used_cnt = rev[0], 0, 0, 0, 1
    v = tail[x]
    sx, end, i = chain_start[x], lo[v + 1], -1
    stack: list[tuple] = []
    while True:
        if i < 0:
            i = lo[v]
            y = f0
            if tail[y] != v:
                continue
        elif i < end:
            y = i
            i += 1
            if used[y]:  # f0 is used too, so it is not tried twice
                continue
        else:
            if not stack:
                break
            x, f0, closed, fd, used_cnt, sx, i, y, mark = stack.pop()
            v = tail[x]
            end = lo[v + 1]
            used[mark] = False
            succ[x] = -1
            pred[y] = -1
            if y != sx:
                ey = chain_end[sx]
                chain_size[sx] -= chain_size[y]
                chain_end[sx] = x
                chain_start[ey] = y
            continue
        if pred[y] != -1 or (y == sx and chain_size[y] != deg[v]):
            continue
        if y == f0:  # y closes the open face
            c_closed = closed + 1
            mark = used.index(False, f0)  # every dart below f0 is used
            if mark == nd:  # every dart lies on a face
                if c_closed >= need:
                    best_f = c_closed
                    best_succ = succ.copy()
                    best_succ[x] = y
                    if best_f >= f_stop:
                        break
                    need = best_f + 2
                continue
            c_f0, c_fd = mark, used_cnt
        else:
            c_closed = closed
            mark = y
            c_f0, c_fd = f0, fd
        nodes += 1
        if nodes % _SLICE == 0:
            yield
        # darts the open face, now ending with mark, still needs to close
        r = girth - (used_cnt + 1 - c_fd)
        if r < 2:
            h, s = head[mark], tail[c_f0]
            if h != s:
                back = dart_of.get((h, s))
                r = 1 if back is not None and not used[back] else 2
            elif r < 0:
                r = 0
        if c_closed + 1 + (nd - used_cnt - 1 - r) // girth < need:
            continue
        # descend: x -> y becomes a rotation pair, mark joins the open face
        stack.append((x, f0, closed, fd, used_cnt, sx, i, y, mark))
        succ[x] = y
        pred[y] = x
        if y != sx:  # join the chains of x and y unless y closes x's cycle
            ey = chain_end[y]
            chain_end[sx] = ey
            chain_start[ey] = sx
            chain_size[sx] += chain_size[y]
        used[mark] = True
        x, f0, closed, fd, used_cnt = rev[mark], c_f0, c_closed, c_fd, used_cnt + 1
        v = tail[x]
        sx, end, i = chain_start[x], lo[v + 1], -1

    if best_succ is None:
        return None
    rot: dict[int, tuple[int, ...]] = {}
    for v in range(vn):
        cyc = [lo[v]]
        d = best_succ[lo[v]]
        while d != lo[v]:
            cyc.append(d)
            d = best_succ[d]
        rot[verts[v]] = tuple(verts[head[d]] for d in cyc)
    return (2 - vn + en - best_f) // 2, rot


def _search_block(
    g: Graph, girth: int, lower: int, budget: int, deadline: float | None
) -> _BlockGenus | None:
    """Minimum genus of a non-planar 2-connected block if it is <= budget,
    with a rotation attaining it; None if it exceeds the budget.

    The kernel in its base dart order alone, with the deadline checked
    after every slice of _SLICE nodes.  min_genus searches by _portfolio,
    which starts with this order and gives the same genus or None.  Raises
    SearchTimeout on deadline.
    """
    run = _block_kernel(g, girth, lower, budget)
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return stop.value
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout


def _portfolio(
    g: Graph, girth: int, lower: int, budget: int, deadline: float | None
) -> _BlockGenus | None:
    """What _search_block answers, from a portfolio of dart orders.

    A first-hit search's node count varies by orders of magnitude with the
    dart order, so one unlucky order can cost a hundred times the typical
    one.  The base order runs one slice alone; a search that ends there
    returns exactly what _search_block returns, at the same cost.  Else
    the kernels seeded with _SEEDS join it, and each round gives the base
    order one slice before each seeded order's slice, as many as they get
    together.  The deadline is checked after every slice, and the first
    kernel to end decides.  Each answer is exact: a kernel that reaches the
    certified lower bound has found an optimal embedding, and one that
    exhausts its tree has proved its best embedding optimal, or that none
    fits the budget.  The schedule is fixed, so the same call returns the
    same rotation, and no search costs more than about twice its nodes in
    the base order.  Raises SearchTimeout on deadline.
    """
    base = _block_kernel(g, girth, lower, budget)
    schedule = [base]
    while True:
        for run in schedule:
            try:
                next(run)
            except StopIteration as stop:
                return stop.value
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout
        if len(schedule) == 1:
            schedule = []
            for seed in _SEEDS:
                schedule += (base, _block_kernel(g, girth, lower, budget, random.Random(seed)))


def min_genus(
    g: Graph, budget: int, timeout: float | None = None
) -> GenusResult:
    """Exact minimum orientable genus, if it is at most budget.

    Genus is additive over blocks (Battle, Harary, Kodama & Youngs, 1962).
    Each planar block is settled by one LR run, which gives its embedding.
    Each non-planar block gets the certified lower bound max(1, Euler bound
    with faces of at least girth darts), and the exhaustive search runs on
    it with the budget left after the other blocks' lower bounds, as the
    portfolio of dart orders in _portfolio.  Every order's search is exact,
    so status, genus and bounds do not depend on which order ends first;
    the block rotation is that order's, the same on every call.  The block
    rotations are concatenated at the cut vertices and the whole rotation
    is re-traced.  The timeout bounds the whole call; the deadline is
    checked after every 4096 search nodes.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    deadline = deadline_after(timeout)
    rot: dict[int, list[int]] = {v: [] for v in g.vertices}
    hard: list[tuple[Graph, int, int]] = []  # (block, girth, lower bound)
    for be in blocks(g).blocks:
        # a block holding every edge of g, with no isolated vertex, is g
        whole = len(be) == g.m and all(g.degree(v) for v in g.vertices)
        bg = g if whole else g.edge_subgraph(be)
        brot = _planar_rotation(bg)
        if brot is None:
            girth = _girth(bg)
            lower = max(1, (3 - bg.n + bg.m - 2 * bg.m // girth) // 2)
            hard.append((bg, girth, lower))
        else:
            for v, ns in brot.items():
                rot[v].extend(ns)
    reserve = sum(lower for _, _, lower in hard)  # lower bounds of unsearched blocks
    if reserve > budget:
        return GenusResult(
            status="exceeds-budget", genus=None, rotation=None, lower_bound=reserve
        )
    total = 0
    for bg, girth, lower in hard:
        reserve -= lower
        try:
            found = _portfolio(bg, girth, lower, budget - total - reserve, deadline)
        except SearchTimeout:
            return GenusResult(
                status="timeout", genus=None, rotation=None,
                lower_bound=total + lower + reserve,
            )
        if found is None:
            return GenusResult(
                status="exceeds-budget", genus=None, rotation=None,
                lower_bound=budget + 1,
            )
        total += found[0]
        for v, ns in found[1].items():
            rot[v].extend(ns)
    rs = RotationSystem.from_dict(rot)
    traced = genus_of_rotation(g, rs)
    if traced != total:
        raise AssertionError(f"assembled rotation traced to {traced}, expected {total}")
    return GenusResult(
        status="ok", genus=total, rotation=rs, lower_bound=total, upper_bound=total
    )


genus_additivity = min_genus  # the block split is part of min_genus


# ---------------------------------------------------------------------------
# planarity with verified witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KuratowskiWitness:
    """A K5 or K33 subdivision: branch vertices plus internally disjoint paths.

    For kind 'K5' the pattern vertices are 0..4, all pairs joined; for 'K33'
    they are 0..5 with parts {0,1,2} and {3,4,5}.  paths maps each pattern edge
    to the host path between the corresponding branch vertices.
    """

    kind: Literal["K5", "K33"]
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def path_dict(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(self.paths)

    def all_vertices(self) -> frozenset[int]:
        out = set(self.branch_vertices)
        for _, p in self.paths:
            out |= set(p)
        return frozenset(out)


def pattern_edges_of(kind: str) -> list[tuple[int, int]]:
    if kind == "K5":
        return [(i, j) for i in range(5) for j in range(i + 1, 5)]
    if kind == "K33":
        return [(i, j) for i in range(3) for j in range(3, 6)]
    raise ValueError(kind)


def verify_kuratowski(g: Graph, w: KuratowskiWitness) -> list[str]:
    """Re-check a subdivision witness; returns a list of violations (empty = good)."""
    bad: list[str] = []
    k = 5 if w.kind == "K5" else 6
    bv = w.branch_vertices
    if len(bv) != k or len(set(bv)) != k:
        bad.append(f"need {k} distinct branch vertices")
        return bad
    if set(bv) - g.vertices:
        bad.append("branch vertices outside graph")
        return bad
    want = set(pattern_edges_of(w.kind))
    got = {pe for pe, _ in w.paths}
    if want != got:
        bad.append("path set does not cover the pattern edges exactly")
        return bad
    interior_seen: set[int] = set()
    for (i, j), p in w.paths:
        if len(p) < 2 or p[0] != bv[i] or p[-1] != bv[j]:
            bad.append(f"path {i}-{j} endpoints wrong")
            continue
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                bad.append(f"path {i}-{j} uses non-edge {a}-{b}")
        inner = set(p[1:-1])
        if inner & set(bv):
            bad.append(f"path {i}-{j} passes through a branch vertex")
        if inner & interior_seen:
            bad.append(f"path {i}-{j} shares interior vertices with another path")
        if len(set(p)) != len(p):
            bad.append(f"path {i}-{j} revisits a vertex")
        interior_seen |= inner
    return bad


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    rotation: RotationSystem | None = None
    witness: KuratowskiWitness | None = None


def _decode_kuratowski(edges: list[Edge]) -> KuratowskiWitness | None:
    """Read a K5/K33 subdivision off an edge set, or None when the degrees
    do not have that shape.  The result still has to be verified."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = sorted(v for v, ns in adj.items() if len(ns) != 2)
    degs = [len(adj[b]) for b in branch]
    if degs != [4] * 5 and degs != [3] * 6:
        return None
    paths: list[tuple[int, ...]] = []
    seen_edges: set[Edge] = set()
    for b in branch:
        for nb in adj[b]:
            if norm_edge(b, nb) in seen_edges:
                continue
            path = [b, nb]
            seen_edges.add(norm_edge(b, nb))
            while len(adj[path[-1]]) == 2:
                x, y = adj[path[-1]]
                nxt = y if x == path[-2] else x
                seen_edges.add(norm_edge(path[-1], nxt))
                path.append(nxt)
            paths.append(tuple(path))
    if len(branch) == 5:
        kind: Literal["K5", "K33"] = "K5"
        order = branch
    else:
        kind = "K33"
        # bipartition: vertices joined by a path are on opposite sides
        across = {p[-1] for p in paths if p[0] == branch[0]}
        side_a = sorted(set(branch) - across)
        side_b = sorted(across)
        if len(side_a) != 3 or len(side_b) != 3:
            return None
        order = side_a + side_b
    pos = {v: i for i, v in enumerate(order)}
    tagged = []
    for p in paths:
        i, j = pos[p[0]], pos[p[-1]]
        if i > j:
            i, j = j, i
            p = p[::-1]
        tagged.append(((i, j), p))
    tagged.sort()
    return KuratowskiWitness(kind=kind, branch_vertices=tuple(order), paths=tuple(tagged))


def _settled(m: int, deg: list[int], reduced: Callable[[], bool]) -> bool | None:
    """Planarity of a simple graph with m edges and vertex degrees deg,
    settled without an LR run, or None.

    Counting first.  A non-planar graph holds a K5 subdivision, with 10
    edges and 5 vertices of degree >= 4, or a K33 subdivision, with 9
    edges and 6 vertices of degree >= 3.  A planar graph on n >= 3
    vertices of positive degree has at most 3n - 6 edges.  A graph that
    counting leaves open with at most six vertices of degree >= 3 is
    decided by reduced(), the topological reduction of _reduced_planar
    on its adjacency; with seven or more it stays open.  That count comes
    from the same degrees, so a graph with many branch vertices, such as
    a grid, pays nothing for the rule.
    """
    if m < 9:
        return True
    n = len(deg) - deg.count(0)
    three = n - deg.count(1) - deg.count(2)
    if three < 6 and three - deg.count(3) < 5:
        return True
    if m > 3 * n - 6:
        return False
    return reduced() if three <= 6 else None


def _reduced_planar(adj: list[int], deg: list[int]) -> bool:
    """Planarity of a simple graph with at most six vertices of degree
    >= 3, by topological reduction on bit masks.  adj[v] is the bit mask
    of v's neighbours and deg[v] its degree; neither is changed.

    Vertices of degree <= 1 are deleted and vertices of degree 2
    suppressed, and a suppression that would double an edge drops the
    copy, which lowers two degrees, until nothing changes.  Deletion,
    suppression and dropping the copy of an edge all keep planarity, and
    none raises a degree, so what is left is a simple graph of minimum
    degree 3 on at most six vertices.  With four or fewer vertices left it
    is planar; with five it is planar unless it has 10 edges (K5), as the
    3n - 6 count says; with six it is non-planar exactly when one of the
    10 splits into 3 + 3 has all 9 cross edges, a K33.

    Why a K33 subgraph is the only obstruction left on six vertices: a
    K5 subgraph, or a K5 subdivision, on six vertices of minimum degree 3
    always contains a K33.  The sixth vertex x has three neighbours a, b,
    c among the five branch vertices; if x subdivides a K5 edge, a and b
    are its ends.  Put a, b, c on one side, and x with the other two
    branch vertices d, e on the other.  Every cross edge is then an edge
    at x or a K5 edge other than ab.
    """
    nbr = adj.copy()
    low = [v for v, d in enumerate(deg) if 0 < d < 3]
    while low:
        x = low.pop()
        mask = nbr[x]
        if not 0 < mask.bit_count() < 3:
            continue
        nbr[x] = 0
        a, c = mask.bit_length() - 1, (mask & -mask).bit_length() - 1
        nbr[a] ^= 1 << x
        low.append(a)
        if c != a:  # suppress x; an edge already there absorbs the new one
            nbr[c] ^= 1 << x
            nbr[a] |= 1 << c
            nbr[c] |= 1 << a
            low.append(c)
    left = [v for v, mask in enumerate(nbr) if mask]
    if len(left) == 5:
        return sum(nbr[v].bit_count() for v in left) < 20
    if len(left) == 6:
        everyone = sum(1 << v for v in left)
        first = left[0]
        for a, b in itertools.combinations(left[1:], 2):
            across = everyone ^ 1 << first ^ 1 << a ^ 1 << b
            if nbr[first] & nbr[a] & nbr[b] & across == across:
                return False
    return True


def _masks(pos: dict[int, int], edges: Iterable[Edge]) -> list[int]:
    """Neighbour bit masks of the graph formed by edges, whose vertices pos
    numbers 0..k-1."""
    adj = [0] * len(pos)
    for u, v in edges:
        i, j = pos[u], pos[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _settled_graph(g: Graph) -> bool | None:
    """_settled on g; the reduction relabels g only if it runs."""
    deg = list(map(g.degree, g.vertices))

    def reduced() -> bool:
        return _reduced_planar(_masks(dict(zip(g.vertices, range(g.n))), g.edges), deg)

    return _settled(g.m, deg, reduced)


def _planar_rotation(g: Graph) -> dict[int, tuple[int, ...]] | None:
    """A genus-0 rotation of g from at most one LR run, or None if g is not
    planar.  Paths and cycles need no run, and neither does a graph that
    _settled finds non-planar: one denser than 3n - 6, or one with at most
    six vertices of degree >= 3 that reduces to a K5 or K33.  A planar
    verdict still takes the run, for the rotation."""
    if all(g.degree(v) <= 2 for v in g.vertices):  # rotations are forced
        return {v: g.neighbors(v) for v in g.vertices}
    if _settled_graph(g) is False:
        return None
    rot = lr.lr_planarity(g.edges, embed=True)
    if rot is None:
        return None
    return {v: rot.get(v, ()) for v in g.vertices}


def is_planar(g: Graph) -> bool:
    """Boolean planarity: _settled, then at most one LR run, which only a
    graph with seven or more vertices of degree >= 3 can need.  No rotation
    and no witness is built, so nothing is certified; callers that need
    evidence use planarity()."""
    known = _settled_graph(g)
    if known is not None:
        return known
    return lr.lr_planarity(g.edges) is not None


def _peeled(
    edges: list[Edge], adj: list[int]
) -> tuple[list[Edge], bool | None, list[int]]:
    """Peel pendant edges off edges, a graph on 0..k-1 with neighbour
    masks adj, until none is left; adj is peeled in place.  Returns the
    rest in its order, its planarity as _settled gives it or None, and its
    degrees.  An edge at a vertex of degree 1 lies in no Kuratowski
    subgraph."""
    deg = list(map(int.bit_count, adj))
    if 1 in deg:
        leaves = [v for v, d in enumerate(deg) if d == 1]
        while leaves:
            v = leaves.pop()
            if deg[v] != 1:  # its last edge went with its neighbour
                continue
            w = adj[v].bit_length() - 1
            adj[v] = deg[v] = 0
            adj[w] ^= 1 << v
            deg[w] -= 1
            if deg[w] == 1:
                leaves.append(w)
        edges = [e for e in edges if adj[e[0]] and adj[e[1]]]
    return edges, _settled(len(edges), deg, lambda: _reduced_planar(adj, deg)), deg


def _nonplanar_block(g: Graph) -> tuple[list[int], list[Edge], list[int]]:
    """One non-planar block of non-planar g: its vertices in increasing
    order, its edges in sorted order with each vertex replaced by its
    position in that list, and their neighbour masks.  Planarity is
    additive over blocks, so there is one.  A block denser than 3n - 6 is
    taken at once.  Otherwise the blocks that _settled does not find
    planar are taken smallest first; each is settled by _settled where it
    can be and by an LR run where it cannot, and the last one left needs
    neither.  Blocks that the reduction finds non-planar keep their place
    in that order, so the block is the one that counting and LR runs alone
    would give."""
    open_blocks = []
    for be in blocks(g).blocks:
        labels = sorted({v for e in be for v in e})
        pos = dict(zip(labels, range(len(labels))))
        es = [(pos[u], pos[v]) for u, v in sorted(be)]
        adj = _masks(pos, be)
        es, known, deg = _peeled(es, adj)
        if known is False and len(es) > 3 * (len(deg) - deg.count(0)) - 6:
            return labels, es, adj
        if known is not True:
            open_blocks.append((len(es), known, labels, es, adj))
    open_blocks.sort(key=lambda b: b[0])
    for _, known, labels, es, adj in open_blocks[:-1]:
        if known is False or known is None and lr.lr_planarity(es) is None:
            return labels, es, adj
    return open_blocks[-1][2:]


def _as_witness(g: Graph, edges: list[Edge]) -> KuratowskiWitness | None:
    """The K5/K33 subdivision formed by edges, if they decode to one that
    verifies in g; None otherwise."""
    w = _decode_kuratowski(edges)
    return w if w is not None and not verify_kuratowski(g, w) else None


def _chain(adj: list[int], e: Edge) -> list[Edge]:
    """The edges of the maximal path through degree-2 vertices that
    contains e, in the graph with neighbour masks adj."""
    out = [e]
    for prev, x in (e, e[::-1]):
        while adj[x].bit_count() == 2:
            prev, x = x, (adj[x] ^ 1 << prev).bit_length() - 1
            f = (prev, x) if prev < x else (x, prev)
            if f == e:  # the path closed into a cycle
                break
            out.append(f)
    return out


def _kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """A K5/K33 subdivision in non-planar g, verified by verify_kuratowski.

    Chunked deletion (ddmin) on one non-planar block, relabelled once to
    0..k-1: chunks of edges that halve in size are deleted while the rest
    stays non-planar.  Each trial takes the neighbour masks of the current
    edges, clears the chunk's edges, peels pendant edges and asks _settled
    before an LR run.  _settled decides every trial with at most six
    vertices of degree >= 3, and each verdict is exact, so the deletions,
    and the witness, are those that an LR run on every trial would give.
    An edge whose deletion leaves a planar graph is needed in every
    non-planar subgraph of the current one, so after the pass with single
    edges the rest is a minimal non-planar subgraph: a Kuratowski
    subdivision.  Deleting any edge of a path through degree-2 vertices
    peels the whole path, so once one of its edges is needed the
    single-edge pass skips the rest.  The search stops as soon as the rest
    has the degrees of one (five of degree 4, or six of degree 3, and the
    rest 2) and, mapped back to the labels of g, decodes to a witness that
    verifies.
    """
    labels, cur, cur_adj = _nonplanar_block(g)
    k = len(labels)

    def witness(edges: list[Edge], deg: list[int]) -> KuratowskiWitness | None:
        rest = deg.count(2) + deg.count(0)
        if deg.count(4) == 5 and rest == k - 5 or deg.count(3) == 6 and rest == k - 6:
            return _as_witness(g, [(labels[u], labels[v]) for u, v in edges])
        return None

    # cur is tried here and after each deletion, the only times it changes
    w = witness(cur, list(map(int.bit_count, cur_adj)))
    if w is not None:
        return w
    size = len(cur)
    needed: set[Edge] = set()  # filled in the single-edge pass only
    while size > 1:
        size //= 2
        i = 0  # cur[:i] has been tried in this pass and is kept
        while i < len(cur):
            if cur[i] in needed:
                i += 1
                continue
            adj = cur_adj.copy()
            for u, v in cur[i:i + size]:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            trial, known, deg = _peeled(cur[:i] + cur[i + size:], adj)
            if known is None:
                known = lr.lr_planarity(trial) is not None
            if known:
                if size == 1:
                    needed.update(_chain(cur_adj, cur[i]))
                i += size
                continue
            alive = set(trial)
            i = sum(e in alive for e in cur[:i])
            cur, cur_adj = trial, adj
            w = witness(cur, deg)
            if w is not None:
                return w
    raise AssertionError("minimal non-planar subgraph is not a Kuratowski subdivision")


def planarity(g: Graph) -> PlanarityResult:
    """Planarity with evidence either way, the certificate mode.

    Planar input costs at most one LR run, whose embedding becomes a
    rotation system that is re-traced to genus 0.  Non-planar input gets
    a K5/K33 subdivision witness that is re-verified edge by edge.  Use
    is_planar() when a bool is enough.
    """
    rot = _planar_rotation(g)
    if rot is not None:
        rs = RotationSystem.from_dict(rot)
        if genus_of_rotation(g, rs) != 0:
            raise AssertionError("planar embedding did not trace to genus 0")
        return PlanarityResult(planar=True, rotation=rs)
    return PlanarityResult(planar=False, witness=_kuratowski_witness(g))
