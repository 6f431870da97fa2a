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
lr.lr_planarity on an edge list.  Both modes, and min_genus's probe of each
block, share one front end, _settled_planarity, that decides what it can
without a run: it counts edges and degrees, and only a graph that counting
leaves open is relabelled, peeled of its pendant edges and, with at most six
vertices of degree >= 3 left, decided by topological reduction to at most
six vertices, where a K5 or a K33 subgraph is the only obstruction.
is_planar() makes at most one LR run in the test's boolean mode, which stops
after the testing search, and only for a graph with seven or more such
vertices once peeled; it returns a bool and nothing else.  planarity() gives
evidence either way: a planar graph gets the rotation system from one LR run
in embedding mode, re-traced to genus 0, and a non-planar graph a K5/K33
subdivision witness read off the reduction, which knows the path of the
input that each edge it keeps stands for.  A graph the front end reduces
gets its witness with no LR run; any other is cut down to one non-planar
block, which is shrunk by edge deletion on integer bit masks until a trial
that stays non-planar has at most six.  Every witness is re-verified edge by
edge.  min_genus settles its planar blocks with the same embedding-mode run.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from types import EllipsisType
from typing import Generator, Iterable, Literal, Sequence

from . import lr
from .core import Edge, Graph, SearchTimeout, blocks, deadline_after

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


def _portfolio(
    g: Graph, girth: int, lower: int, budget: int, deadline: float | None
) -> _BlockGenus | None:
    """Minimum genus of a non-planar 2-connected block if it is <= budget,
    with a rotation attaining it; None if it exceeds the budget.  It comes
    from a portfolio of dart orders of _block_kernel.

    A first-hit search's node count varies by orders of magnitude with the
    dart order, so one unlucky order can cost a hundred times the typical
    one.  The base order runs one slice alone; a search that ends there
    returns the base order's own answer, at the same cost.  Else the
    kernels seeded with _SEEDS join it, and each round gives the base
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


# the block split is part of min_genus; the alias stays only because
# bench/tracing.py's layer table and tests/test_bench_layers.py name it
genus_additivity = min_genus


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


def _settled(
    m: int,
    deg: list[int],
    adj: list[int] | None = None,
    labels: Sequence[int] | None = None,
) -> bool | KuratowskiWitness | None | EllipsisType:
    """Planarity of a simple graph with m edges and vertex degrees deg,
    settled without an LR run, or None.

    Counting first.  A non-planar graph holds a K5 subdivision, with 10
    edges and 5 vertices of degree >= 4, or a K33 subdivision, with 9
    edges and 6 vertices of degree >= 3.  A graph that counting leaves
    open with at most six vertices of degree >= 3 is decided, given its
    neighbour masks adj, by the topological reduction of _reduced_planar,
    whose answer is returned as it is: True, or False or, given labels, a
    witness; without adj it comes back as ..., open until the masks are
    built.  With seven or more it is non-planar if it has more than
    3n - 6 edges, n its vertices of positive degree, as every planar graph
    on n >= 3 vertices has at most that many; otherwise it stays open.
    The vertex count comes from the same degrees, so a graph with many
    branch vertices, such as a grid, pays nothing for the reduction.
    """
    if m < 9:
        return True
    n = len(deg) - deg.count(0)
    three = n - deg.count(1) - deg.count(2)
    if three < 6 and three - deg.count(3) < 5:
        return True
    if three <= 6:
        return ... if adj is None else _reduced_planar(adj, deg, labels)
    return False if m > 3 * n - 6 else None


def _route(via: dict[Edge, int], u: int, v: int) -> list[int]:
    """The path of the input from u to v that the edge u-v of a reduced
    graph stands for, where via maps each edge a suppression made to the
    vertex it suppressed."""
    out = [u]
    todo = [v]
    while todo:
        w = todo[-1]
        x = via.get((out[-1], w) if out[-1] < w else (w, out[-1]))
        if x is None:
            out.append(todo.pop())
        else:
            todo.append(x)
    return out


def _reduced_planar(
    adj: list[int], deg: list[int], labels: Sequence[int] | None = None
) -> bool | KuratowskiWitness:
    """Planarity of a simple graph with at most six vertices of degree
    >= 3, by topological reduction on bit masks.  adj[v] is the bit mask
    of v's neighbours and deg[v] its degree; neither is changed.  Returns
    True if the graph is planar.  Otherwise it returns False, or, given
    labels (labels[v] the vertex at position v), the K5 or K33 subdivision
    the reduction found, on those labels.

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

    Each edge that a suppression of x adds stands for the path of the
    input through x, and each edge it joins stands for its own path, so
    the edges left stand for paths of the input with disjoint interiors.
    A copy that is dropped takes its path's interior with it.  The
    witness is the five vertices left, with all ten edges (K5), or the
    six, with the nine cross edges of the split found (K33), each edge
    replaced by its path; its vertices are in increasing position, and a
    K33's first part holds the lowest.  Nothing is decoded.
    """
    nbr = adj.copy()
    via: dict[Edge, int] = {}  # edge made by a suppression -> the vertex suppressed
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
            low.append(c)
            if not nbr[a] >> c & 1:
                nbr[a] |= 1 << c
                nbr[c] |= 1 << a
                via[c, a] = x
    left = [v for v, mask in enumerate(nbr) if mask]
    if len(left) == 5 and sum(nbr[v].bit_count() for v in left) == 20:
        kind: Literal["K5", "K33"] = "K5"
        order = left
    elif len(left) == 6:
        everyone = sum(1 << v for v in left)
        first = left[0]
        for a, b in itertools.combinations(left[1:], 2):
            across = everyone ^ 1 << first ^ 1 << a ^ 1 << b
            if nbr[first] & nbr[a] & nbr[b] & across == across:
                break
        else:
            return True
        kind = "K33"
        order = [first, a, b] + [v for v in left if across >> v & 1]
    else:
        return True
    if labels is None:
        return False
    return KuratowskiWitness(
        kind=kind,
        branch_vertices=tuple(labels[v] for v in order),
        paths=tuple(
            ((i, j), tuple(labels[v] for v in _route(via, order[i], order[j])))
            for i, j in pattern_edges_of(kind)
        ),
    )


def _masks(pos: dict[int, int], edges: Iterable[Edge]) -> list[int]:
    """Neighbour bit masks of the graph formed by edges, whose vertices pos
    numbers 0..k-1."""
    adj = [0] * len(pos)
    for u, v in edges:
        i, j = pos[u], pos[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _lr_rotation(g: Graph) -> dict[int, tuple[int, ...]] | None:
    """A genus-0 rotation of g from one LR run in embedding mode, or None
    if g is not planar.  Paths and cycles need no run: their rotations are
    forced."""
    if all(g.degree(v) <= 2 for v in g.vertices):
        return {v: g.neighbors(v) for v in g.vertices}
    rot = lr.lr_planarity(g.edges, embed=True)
    if rot is None:
        return None
    return {v: rot.get(v, ()) for v in g.vertices}


def _planar_rotation(g: Graph) -> dict[int, tuple[int, ...]] | None:
    """A genus-0 rotation of g from at most one LR run, or None if g is not
    planar.  A graph that _settled_planarity finds non-planar needs no
    run.  A planar verdict still takes the run, for the rotation."""
    return None if _settled_planarity(g) is False else _lr_rotation(g)


def is_planar(g: Graph) -> bool:
    """Boolean planarity: _settled_planarity, then at most one LR run.  No
    rotation and no witness is built, so nothing is certified; callers
    that need evidence use planarity()."""
    known = _settled_planarity(g)
    if known is not None:
        return known
    return lr.lr_planarity(g.edges) is not None


def _settled_planarity(g: Graph, certify: bool = False) -> bool | KuratowskiWitness | None:
    """g's planarity settled without an LR run, or None: the one front end
    of both modes.  _settled counts on g's degrees first, so what counting
    settles builds no masks.  Only a graph that counting leaves open with
    a pendant edge, or for the reduction, is relabelled in vertex order
    for _peeled; peeling turns no count's verdict, since a graph denser
    than 3n - 6 with seven or more vertices of degree >= 3 stays so once
    its pendant trees are gone.  certify asks for the reduction's witness
    in place of its False."""
    deg = list(map(g.degree, g.vertices))
    known = _settled(g.m, deg)
    if known is ... or (known is None and 1 in deg):
        labels = sorted(g.vertices)
        adj = _masks(dict(zip(labels, range(g.n))), g.edges)
        known, _ = _peeled(adj, labels if certify else None)
    return known


def _peeled(
    adj: list[int], labels: Sequence[int] | None
) -> tuple[bool | KuratowskiWitness | None, list[int]]:
    """Peel pendant edges off the graph on 0..k-1 with neighbour masks adj
    until none is left; adj is peeled in place.  Returns the planarity of
    the rest as _settled gives it, given labels with the reduction's
    witness, on them, in place of False, and the rest's degrees.  An edge
    at a vertex of degree 1 lies in no Kuratowski subgraph."""
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
    return _settled(sum(deg) // 2, deg, adj, labels), deg


def _nonplanar_block(
    g: Graph,
) -> KuratowskiWitness | tuple[list[int], list[Edge], list[int], list[int]]:
    """A witness in non-planar g from a block the reduction decides, or
    else one non-planar block of g: its vertices in increasing order, its
    pendant-free edges in sorted order with each vertex replaced by its
    position in that list, and their neighbour masks and degrees.
    Planarity is additive over blocks, so there is one.  A block with at
    most six vertices of degree >= 3 once its pendant edges are peeled is
    decided by the reduction, which gives the witness of the first such
    block found non-planar at once.  A block denser than 3n - 6 is taken
    at once.  Otherwise the blocks left open are taken smallest first;
    each gets an LR run, and the last one left needs none."""
    open_blocks = []
    for be in blocks(g).blocks:
        labels = sorted({v for e in be for v in e})
        pos = dict(zip(labels, range(len(labels))))
        adj = _masks(pos, be)
        known, deg = _peeled(adj, labels)
        if known is True:
            continue
        if isinstance(known, KuratowskiWitness):
            return known
        es = sorted((pos[u], pos[v]) for u, v in be if adj[pos[u]] >> pos[v] & 1)
        if known is False:
            return labels, es, adj, deg
        open_blocks.append((labels, es, adj, deg))
    open_blocks.sort(key=lambda b: len(b[1]))
    for block in open_blocks[:-1]:
        if lr.lr_planarity(block[1]) is None:
            return block
    return open_blocks[-1]


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


# the most vertices of degree >= 3 from which one edge deletion can leave
# six: the two ends of the edge, or of the path it lies on, are the only
# vertices that lose a degree (see _kuratowski_witness)
_SINGLE_EDGES = 8


def _kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """A K5/K33 subdivision in non-planar g, read off the topological
    reduction of a non-planar subgraph with at most six vertices of degree
    >= 3 (branch vertices).

    One non-planar block, relabelled once to 0..k-1, is shrunk by edge
    deletion while the rest stays non-planar.  Each trial takes the
    neighbour masks of the current edges, clears the edges it deletes,
    peels pendant edges and asks _settled before an LR run.  A trial with
    at most six branch vertices is decided by the reduction, and when it
    is non-planar the reduction's witness ends the search.  Every verdict
    is exact, so the rest stays non-planar, and a minimal non-planar
    subgraph is a Kuratowski subdivision, with at most six branch
    vertices: the search ends at the latest there.

    With more than _SINGLE_EDGES branch vertices, chunks of edges that
    halve in size, down to single edges, are deleted (ddmin; Zeller &
    Hildebrandt, IEEE TSE 2002).  An edge whose deletion leaves a planar
    graph is needed in every non-planar subgraph of the current one, and
    deleting any edge of a path through degree-2 vertices peels the whole
    path, so once one of its edges is needed no later trial deletes the
    rest.  From _SINGLE_EDGES branch vertices down, single edges are
    tried, those with the most ends of degree 3 first, in a new order
    after each deletion.  Each such end leaves the branch vertices, so
    with seven or eight left the first trials can reach six, where the
    reduction decides them with no LR run and a non-planar one ends the
    search; on so few branch vertices most larger chunks leave a planar
    rest.
    """
    found = _nonplanar_block(g)
    if isinstance(found, KuratowskiWitness):
        return found
    labels, cur, cur_adj, deg = found

    def trial(
        drop: list[Edge],
    ) -> tuple[bool | KuratowskiWitness, list[Edge], list[int], list[int]]:
        adj = cur_adj.copy()
        for u, v in drop:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        known, deg = _peeled(adj, labels)
        rest = [e for e in cur if adj[e[0]] >> e[1] & 1]
        if known is None:
            known = lr.lr_planarity(rest) is not None
        return known, rest, adj, deg

    def branch(deg: list[int]) -> int:
        return len(deg) - deg.count(0) - deg.count(2)

    needed: set[Edge] = set()
    size = len(cur)
    while size > 1 and branch(deg) > _SINGLE_EDGES:
        size //= 2
        i = 0  # cur[:i] has been tried in this pass and is kept
        while i < len(cur) and branch(deg) > _SINGLE_EDGES:
            if cur[i] in needed:
                i += 1
                continue
            known, rest, adj, rest_deg = trial(cur[i:i + size])
            if known is True:
                if size == 1:
                    needed.update(_chain(cur_adj, cur[i]))
                i += size
                continue
            if known is not False:
                return known
            alive = set(rest)
            i = sum(e in alive for e in cur[:i])
            cur, cur_adj, deg = rest, adj, rest_deg
    while True:
        for e in sorted(cur, key=lambda e: (deg[e[0]] != 3) + (deg[e[1]] != 3)):
            if e in needed:
                continue
            known, rest, adj, rest_deg = trial([e])
            if known is True:
                needed.update(_chain(cur_adj, e))
                continue
            if known is not False:
                return known
            cur, cur_adj, deg = rest, adj, rest_deg
            break
        else:
            raise AssertionError("minimal non-planar subgraph is not a Kuratowski subdivision")


def planarity(g: Graph) -> PlanarityResult:
    """Planarity with evidence either way, the certificate mode.

    _settled_planarity asks first.  With at most six vertices of degree
    >= 3 left once the pendant edges are peeled the reduction decides g,
    and on non-planar g it gives the witness: one reduction, no LR run.
    Planar input costs at most one LR run, whose embedding becomes a
    rotation system that is re-traced to genus 0.
    Other non-planar input gets its witness from _kuratowski_witness.
    Every witness is re-verified edge by edge.  Use is_planar() when a
    bool is enough.
    """
    known = _settled_planarity(g, certify=True)
    if known is True or known is None:
        rot = _lr_rotation(g)
        if rot is not None:
            rs = RotationSystem.from_dict(rot)
            if genus_of_rotation(g, rs) != 0:
                raise AssertionError("planar embedding did not trace to genus 0")
            return PlanarityResult(planar=True, rotation=rs)
    w = known if isinstance(known, KuratowskiWitness) else _kuratowski_witness(g)
    bad = verify_kuratowski(g, w)
    if bad:
        raise AssertionError(f"Kuratowski witness does not verify: {bad}")
    return PlanarityResult(planar=False, witness=w)
