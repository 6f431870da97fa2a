"""Minor containment: models, independent verification, exhaustive search.

A minor model assigns to every pattern vertex a branch set in the host:
non-empty, pairwise disjoint, inducing a connected subgraph.  Every
pattern edge is realized by a host edge running between the two branch
sets.  The searches in this module are exhaustive backtracking over
branch-set assignments, one model per orbit under swapping the branch
sets of twin pattern vertices; "absent" is only ever reported after the
whole candidate space has been enumerated.  When a time budget runs out
the result says so explicitly instead of masquerading as absence.

The search runs on integer bit masks.  A host is indexed with vertex ids
in sorted order becoming bit positions, so the smallest id of a set is
its lowest bit.  Candidate branch sets, their neighbourhoods, the marks
and the free part of the host are masks.  The model stream yields each
model as the tuple of its branch-set masks, in the order of a placement
plan built from the pattern; only a model that is returned becomes
frozensets and connectors.  A connected pattern is sought only inside
the host component of its first branch set.  A packing that cannot fit
the host by vertex and edge count returns before it indexes anything.
Otherwise it shares one plan across all its streams, keeps its partial
packings as mask tuples and recurses on a mask of the vertices still
free.  It searches for a complete packing only: a level whose copies do
not fit its free vertices and edges by count fails at once, and from the
first copy on it skips every model whose support contains the drop of a
model whose residue already failed, since that leaves a subgraph of the
failed residue, and every model whose support leaves too few free
vertices for the copies still to come (int.bit_count needs Python 3.10).

Fixed costs are paid once across calls.  A plan depends only on the
pattern, its marks and which pattern vertices are rooted, and a host
index only on the host graph; both inputs are immutable and hashable,
so _plan and _host_index keep the last few of each in a bounded
lru_cache and every search on the same pattern or host reuses them.  The
memos hold derived indexes of immutable inputs, never an answer: every
search still runs under its own deadline, so no cache can replay a
stale or timed-out result.

find_minor and find_marked_minor settle two kinds of absence before the
whole-host search.  Both prune only what yields nothing: a model, a
"found" and a "timeout" always come from the whole-host stream.

Planarity.  Deleting and contracting edges keeps a plane embedding, so
a non-planar pattern is no minor of a planar host.  A marked model of
(h, W) in (g, U) extends to a model of the cone over W in the cone over
U: the pattern apex gets the host apex, and each marked branch set holds
a marked host vertex, which the host apex sees.  So a marked search
compares the cones.

Blocks.  Let h be 2-connected: connected, at least 3 vertices, no cut
vertex, so h has minimum degree 2 and h - p is connected for every p.
(A pendant vertex is what breaks the rule: the path on 3 vertices is a
minor of itself but of neither of its blocks.)  Let B be a block of g.
Every edge of g between two vertices of B lies in B, and every
component K of g - E(B) that meets V(B) meets it in exactly one vertex
c, since a path outside B between two of its vertices would enlarge the
block.  The local instance on B: B itself; c marked when its K holds a
mark; a root in K moved to its c.  B is skipped when two roots move to
one vertex or a root lies outside B's component of g.

A model (X_p) of h in g gives a local model in some block.  The support
is connected, so it lies in one component C of g.  Take a cut vertex c
of C.  At most one branch set X_q contains c.  The others avoid c, and
h - q is connected with each of its edges realised by a host edge that
avoids c, so they all lie in one component D of C - c.  Exactly one
block at c meets D (two would close a cycle through c).  In the
block-cut tree of C, direct the edge from c to that block and every
other edge at c towards c.  The cut vertices use one edge each, so the
blocks have one fewer outgoing edge than there are blocks, and some
block B is a sink: at each of its cut vertices c, the branch sets that
avoid c lie on B's side of c, so the K of c meets no branch set but the
one holding c.  Project: Y_p is the set of c whose K meets X_p.  The
Y_p are pairwise disjoint and non-empty; each is connected, since an
edge of g either lies in B or has both ends in one K.  A host edge ab
realising pq lies in B, since otherwise a and b would project to one
vertex of both Y_p and Y_q.  A marked X_p projects to a Y_p with a
local mark, and a root r of p moves into Y_p, so no two roots move to
one vertex and none lies outside C.  Hence when h is 2-connected and no
block holds a local model, h is absent from g.  Each block is searched
on its vertex mask of the one host index.

The verifier shares no logic with the search.  It re-derives every
invariant (disjointness, connectivity, edge realization) directly from
the two graphs, so a bug in the search cannot hide behind itself.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .core import (
    Edge,
    Graph,
    MarkedGraph,
    SearchTimeout,
    blocks,
    cone,
    deadline_after,
    norm_edge,
)
from .embeddings import is_planar, planarity


@dataclass
class MinorModel:
    """Witness that a pattern graph is a minor of a host graph."""

    branch_sets: dict[int, frozenset[int]]
    connect_edges: dict[Edge, Edge]

    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for bs in self.branch_sets.values():
            out |= bs
        return frozenset(out)


@dataclass
class MarkedMinorModel(MinorModel):
    """A minor model that also respects vertex markings.

    Every marked pattern vertex must own at least one marked host vertex
    inside its branch set.  The host marking travels with the model so a
    serialized witness stays checkable on its own.
    """

    host_marked: frozenset[int] = frozenset()


@dataclass
class MinorResult:
    """Outcome of a minor search.

    status is one of "found", "absent", "timeout".  "absent" certifies
    exhaustion; "timeout" certifies nothing.
    """

    status: str
    model: MinorModel | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass
class PackResult:
    """Outcome of a disjoint or bouquet packing search.

    complete means the requested count was reached.  exhausted means the
    search space was fully enumerated, so an incomplete result certifies
    that no packing of the requested size exists.  An incomplete result's
    models are the largest partial packing the search placed before it
    stopped, with hub_vertex its shared vertex, and none when the copies
    do not fit the host by count; a larger partial packing may exist.
    """

    models: list[MinorModel]
    complete: bool
    exhausted: bool
    hub_vertex: int | None = None


def verify_model(g: Graph, h: Graph, model: MinorModel) -> tuple[bool, list[str]]:
    """Check every model invariant from scratch; returns (ok, violations)."""
    errs: list[str] = []
    bsets = model.branch_sets
    if set(bsets) != set(h.vertices):
        missing = sorted(set(h.vertices) - set(bsets))
        extra = sorted(set(bsets) - set(h.vertices))
        if missing:
            errs.append(f"pattern vertices without branch sets: {missing}")
        if extra:
            errs.append(f"branch sets for unknown pattern vertices: {extra}")
    seen: dict[int, int] = {}
    for pv, bs in bsets.items():
        if not bs:
            errs.append(f"branch set of {pv} is empty")
            continue
        stray = [v for v in bs if v not in g.vertices]
        if stray:
            errs.append(f"branch set of {pv} uses vertices outside the host: {sorted(stray)}")
            continue
        for v in bs:
            if v in seen:
                errs.append(f"host vertex {v} appears in branch sets of {seen[v]} and {pv}")
            seen[v] = pv
        # connectivity is re-derived with a local walk, not via search helpers
        start = next(iter(bs))
        reached = {start}
        stack = [start]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w in bs and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if reached != set(bs):
            errs.append(f"branch set of {pv} is disconnected")
    for pe in h.edges:
        if pe not in model.connect_edges:
            errs.append(f"pattern edge {pe} has no connecting host edge")
            continue
        he = model.connect_edges[pe]
        he = norm_edge(*he)
        if he not in g.edges:
            errs.append(f"connector {he} for pattern edge {pe} is not a host edge")
            continue
        u, v = pe
        a, b = he
        if u not in bsets or v not in bsets:
            continue
        ends = {a, b}
        if not (ends & set(bsets[u]) and ends & set(bsets[v])):
            errs.append(f"connector {he} does not join the branch sets of {u} and {v}")
    for pe in model.connect_edges:
        if norm_edge(*pe) not in h.edges:
            errs.append(f"connector listed for non-edge {pe} of the pattern")
    return (not errs, errs)


def verify_marked_model(
    g: MarkedGraph, h: MarkedGraph, model: MinorModel
) -> tuple[bool, list[str]]:
    """verify_model plus the marking rule: marked pattern vertices must
    capture at least one marked host vertex."""
    ok, errs = verify_model(g.graph, h.graph, model)
    for pv in sorted(h.marked):
        bs = model.branch_sets.get(pv)
        if bs is not None and not (bs & g.marked):
            errs.append(f"marked pattern vertex {pv} owns no marked host vertex")
    return (not errs, errs)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Host:
    """A host graph indexed for the search: vertex ids in sorted order
    become bit positions, so the smallest id of a set is the lowest bit
    of its mask, and nbr[i] is the neighbourhood mask of bit i.  Nothing
    changes it after construction, so _host_index shares one per graph."""

    __slots__ = ("ids", "bit", "nbr")

    def __init__(self, g: Graph):
        self.ids = tuple(sorted(g.vertices))
        self.bit = {v: i for i, v in enumerate(self.ids)}
        self.nbr = tuple(self.mask(g.neighbors(v)) for v in self.ids)

    def mask(self, vs) -> int:
        bit = self.bit
        return sum(1 << bit[v] for v in vs)

    def branch_set(self, mask: int, seed: int) -> frozenset[int]:
        """The ids of a connected mask, inserted in the order the subset
        enumerator adds them: breadth first from the seed bit, lower
        neighbours first.  Equal frozensets built in different orders can
        iterate in different orders, so this fixes what a later walk over
        a branch set sees."""
        nbr = self.nbr
        order, seen = [seed], 1 << seed
        for i in order:
            new = nbr[i] & mask & ~seen
            seen |= new
            order.extend(_bits(new))
        ids = self.ids
        return frozenset(ids[i] for i in order)

    def edge_count(self, mask: int) -> int:
        nbr = self.nbr
        return sum((nbr[i] & mask).bit_count() for i in _bits(mask)) // 2

    def components(self, mask: int) -> list[int]:
        """The vertex masks of the components of the subgraph on mask."""
        nbr = self.nbr
        comps = []
        while mask:
            comp = grow = mask & -mask
            while grow:
                reach = 0
                for i in _bits(grow):
                    reach |= nbr[i]
                grow = reach & mask & ~comp
                comp |= grow
            comps.append(comp)
            mask &= ~comp
        return comps


# the 2-6 packings of one dichotomy engine call share one graph's index
_host_index = functools.lru_cache(maxsize=8)(_Host)


def _connected_subsets(nbr: list[int], allowed: int, seeds, cap: int, ticker):
    """Yield (mask, neighbourhood mask) for every connected subset of the
    bits of `allowed` with at most `cap` vertices whose seed (lowest
    usable bit, or the forced root) is in `seeds`.

    Each subset comes out exactly once: frontier vertices are decided
    include-or-ban in a fixed order, so no two branches of the search
    build the same set.  The neighbourhood mask is the union of the
    members' nbr masks, grown as each vertex joins.  With cap 1 each
    seed is its own only subset, so the seeds are yielded in order
    without a frontier.
    """
    if cap == 1:
        for seed, _ in seeds:
            ticker()
            yield 1 << seed, nbr[seed]
        return
    for seed, others in seeds:
        usable = allowed & others
        start = nbr[seed] & usable
        # depth first, children pushed in reverse so the first is next
        stack = [(1 << seed, nbr[seed], 1, _bits(start), start, 0)]
        while stack:
            chosen, near, size, frontier, front, banned = stack.pop()
            ticker()
            yield chosen, near
            if size >= cap:
                continue
            if size + 1 == cap:
                # the children are leaves: yield them without a frontier
                for u in frontier:
                    ticker()
                    yield chosen | 1 << u, near | nbr[u]
                continue
            # banning a frontier vertex keeps it in the frontier mask, so
            # the block is the same for every branch; the branches are
            # pushed last first, so `later` holds the frontier after u
            open_ = usable & ~(chosen | banned | front)
            later = 0
            for i in range(len(frontier) - 1, -1, -1):
                u = frontier[i]
                ubit = 1 << u
                fresh = nbr[u] & open_
                stack.append((
                    chosen | ubit,
                    near | nbr[u],
                    size + 1,
                    frontier[i + 1 :] + _bits(fresh),
                    later | fresh,
                    banned | (front & ~(later | ubit)),
                ))
                later |= ubit


def _seed_plan(allowed: int, root: int | None, above: int):
    """(seed bit, mask of the bits a subset grown from it may use) pairs:
    the root alone when one is forced, else every allowed bit above
    `above`, each taking only larger bits."""
    if root is not None:
        if not allowed >> root & 1:
            return []
        return [(root, allowed)]
    # seed = lowest bit of the subset; later bits must be larger
    plan = []
    rest = allowed >> (above + 1) << (above + 1)
    while rest:
        low = rest & -rest
        rest ^= low
        plan.append((low.bit_length() - 1, rest))
    return plan


def _twin_predecessors(
    h: Graph, order: tuple[int, ...], h_marked: frozenset[int], rooted: frozenset[int]
) -> dict[int, int]:
    """Map each pattern vertex to the twin placed just before it.

    p and q are twins when N(p) - {q} = N(q) - {p}, both or neither are
    marked and neither is rooted.  Swapping the branch sets of twins maps
    a model to a model with the same support, so requiring min(branch
    set) to increase along each twin class, in placement order, keeps one
    model per orbit.  A vertex joins a class only if it is a twin of every
    member.
    """

    def twins(p: int, q: int) -> bool:
        return (p in h_marked) == (q in h_marked) and (
            set(h.neighbors(p)) - {q} == set(h.neighbors(q)) - {p}
        )

    classes: list[list[int]] = []
    for p in order:
        if p in rooted:
            continue
        for cls in classes:
            if all(twins(p, q) for q in cls):
                cls.append(p)
                break
        else:
            classes.append([p])
    return {cls[i]: cls[i - 1] for cls in classes for i in range(1, len(cls))}


@functools.lru_cache(maxsize=256)
def _plan(h: Graph, h_marked: frozenset[int], rooted: frozenset[int]):
    """How a stream places the vertices of a pattern h, as (order, steps,
    connected).  It depends on h, its marks and which pattern vertices
    are rooted, not on the host or on the host vertices of the roots, so
    one plan serves every stream of a packing, at every level and for
    every hub vertex, and every later search of the same pattern.

    order: most constrained first, the rooted vertices, then by
    descending degree.  steps[i], for the vertex order[i]: the positions
    of its neighbours placed before it, the number placed after it,
    whether it is marked, and the position of its twin predecessor (or
    None).  connected: whether h is connected.  All of it is tuples, so
    no caller can change a memoised plan.
    """
    order = tuple(sorted(h.vertices, key=lambda p: (p not in rooted, -h.degree(p), p)))
    pos = {p: i for i, p in enumerate(order)}
    twin_before = _twin_predecessors(h, order, h_marked, rooted)
    steps = tuple(
        (
            tuple(pos[q] for q in h.neighbors(p) if pos[q] < i),
            sum(1 for q in h.neighbors(p) if pos[q] > i),
            p in h_marked,
            pos[twin_before[p]] if p in twin_before else None,
        )
        for i, p in enumerate(order)
    )
    return order, steps, len(h.components()) == 1


def _resolve_connectors(g: Graph, h: Graph, assignment: dict[int, frozenset[int]]):
    """The smallest host edge between the branch sets of each pattern
    edge, or None when some pattern edge has none."""
    connectors: dict[Edge, Edge] = {}
    for pe in sorted(h.edges):
        u, v = pe
        best: Edge | None = None
        for a in sorted(assignment[u]):
            for b in g.neighbors(a):
                if b in assignment[v]:
                    cand = norm_edge(a, b)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            return None
        connectors[pe] = best
    return connectors


def _model(g: Graph, h: Graph, host: _Host, plan: tuple, roots: dict[int, int], masks):
    """The branch sets and connectors of a model that a stream yielded as
    masks in plan order.  A branch set is grown from its root's bit, or
    else its lowest bit, as the subset enumerator grew it.  The stream
    checks each pattern edge's adjacency when it places the later of its
    two branch sets, so every pattern edge has a connector."""
    bit = host.bit
    bsets = {
        p: host.branch_set(m, bit[roots[p]] if p in roots else (m & -m).bit_length() - 1)
        for p, m in zip(plan[0], masks)
    }
    connectors = _resolve_connectors(g, h, bsets)
    assert connectors is not None, "a streamed model misses a pattern edge"
    return bsets, connectors


def _model_stream(
    g: Graph,
    h: Graph,
    *,
    plan: tuple,
    host: _Host,
    g_marked: frozenset[int] = frozenset(),
    roots: dict[int, int] | None = None,
    deadline: float | None = None,
    free: int | None = None,
    failed=(),
    room: int | None = None,
    free_edges: int | None = None,
):
    """Yield every minor model of h in g, marked constraints included, up
    to swapping the branch sets of twin pattern vertices, as the tuple of
    its branch-set masks in plan order; _model turns one into branch sets
    and connectors.

    roots pins a pattern vertex's branch set to contain a given host
    vertex.  A twin swap keeps the support, the marks and the roots, so
    exhaustion of this generator still certifies absence.  A connected
    pattern has a connected support, so once the first branch set is
    placed the rest are sought only in its host component.

    `plan` is the _plan of h, built with h's marks and the pattern
    vertices that `roots` pins, and `host` the _Host index of g, so that
    a caller opening many streams builds each once.  A packing searches
    the subgraph on the bits of `free`, whose edge count it may pass as
    `free_edges`.  It passes the drops (support minus the hub) that
    already failed it in `failed`: a placement whose partial support
    contains one of them is skipped.  It also passes `room`, the largest
    support it wants: each branch set is capped so that the support, with
    one vertex for every branch set still to place, stays within it.
    """
    roots = roots or {}
    free = (1 << len(host.ids)) - 1 if free is None else free
    m_free = host.edge_count(free) if free_edges is None else free_edges
    if h.m > m_free or h.n > free.bit_count():
        return
    if any(roots[p] not in host.bit for p in h.vertices if p in roots):
        return
    counter = [0]

    def ticker():
        counter[0] += 1
        if deadline is not None and counter[0] % 256 == 0:
            if time.monotonic() > deadline:
                raise SearchTimeout

    order, steps, connected = plan
    last = len(order) - 1
    root_bits = [host.bit[roots[p]] if p in roots else None for p in order]
    nbr = host.nbr
    marked = host.mask(v for v in g_marked if v in host.bit)
    comps = host.components(free) if connected else None
    edge_budget = m_free - h.m
    placed = [0] * len(order)

    def place(idx: int, avail: int, used: int, spent: int):
        ticker()
        if idx == len(order):
            yield tuple(placed)
            return
        later = last - idx
        cap = min(avail.bit_count() - later, edge_budget - spent + 1)
        if room is not None:
            cap = min(cap, room - used.bit_count() - later)
        if cap < 1:
            return
        placed_nbrs, unplaced_deg, need_mark, twin = steps[idx]
        placed_nbrs = [placed[j] for j in placed_nbrs]
        above = -1 if twin is None else (placed[twin] & -placed[twin]).bit_length() - 1
        seeds = _seed_plan(avail, root_bits[idx], above)
        for cand, near in _connected_subsets(nbr, avail, seeds, cap, ticker):
            if need_mark and not cand & marked:
                continue
            for bs in placed_nbrs:
                if not near & bs:
                    break
            else:
                if unplaced_deg and (near & avail & ~cand).bit_count() < unplaced_deg:
                    continue
                support = used | cand
                for drop in failed:
                    if not drop & ~support:
                        break
                else:
                    placed[idx] = cand
                    rest = avail & ~cand
                    if comps is not None and idx == 0:
                        rest &= next(c for c in comps if c & cand)
                    yield from place(idx + 1, rest, support, spent + cand.bit_count() - 1)

    yield from place(0, free, 0, 0)


def _planarity_refutes(
    g: Graph, h: Graph, g_marked: frozenset[int], h_marked: frozenset[int]
) -> bool:
    """True when the cone over h's marks is non-planar and the cone over
    g's marks is planar, so h is no (marked) minor of g.  Without marks a
    cone is planar exactly when its graph is.

    The boolean tests decide, the pattern first, so the host is tested
    only once the pattern is known to be non-planar.  planarity() then
    gives the evidence: a rotation of g's cone re-traced to genus 0 and a
    Kuratowski witness of h's cone re-verified edge by edge."""
    ch = cone(h, h_marked)[0]
    if is_planar(ch):
        return False
    cg = cone(g, g_marked)[0]
    if not is_planar(cg):
        return False
    return planarity(cg).planar and not planarity(ch).planar


def _blocks_refute(
    host: _Host,
    plan: tuple,
    g: Graph,
    h: Graph,
    g_marked: frozenset[int],
    roots: dict[int, int],
    deadline: float | None,
) -> bool:
    """True when h is 2-connected, g has at least two blocks, and no
    block holds a model of h under the projection of the module
    docstring.  Each block is searched on its vertex mask of the whole
    host index: every edge of g between two vertices of a block lies in
    that block, so the subgraph on the mask is the block.  A block's
    stream needs only to yield a model or not, so none is built."""
    if h.n < 3 or len(h.components()) != 1 or blocks(h).cut_vertices:
        return False
    bs = blocks(g).blocks
    if len(bs) < 2:
        return False
    nbr = host.nbr
    marked = host.mask(v for v in g_marked if v in host.bit)
    rooted = {p: host.bit.get(r) for p, r in roots.items() if p in h.vertices}
    everything = (1 << len(host.ids)) - 1
    # largest first: when h is found, a block that holds it ends this stage
    for be in sorted(bs, key=len, reverse=True):
        inside = host.mask({v for e in be for v in e})
        local_marks = marked & inside
        proj = {i: i for i in _bits(inside)}  # bit -> the bit of B on its side
        for comp in host.components(everything & ~inside):
            touch = 0
            for i in _bits(comp):
                touch |= nbr[i]
            touch &= inside  # one bit, or none in another component of g
            if touch:
                if comp & marked:
                    local_marks |= touch
                proj.update((i, touch.bit_length() - 1) for i in _bits(comp))
        moved = {p: proj.get(r) for p, r in rooted.items()}
        # two roots on one vertex: the stream would find nothing here
        if None in moved.values() or len(set(moved.values())) < len(moved):
            continue
        for _ in _model_stream(
            g, h,
            g_marked=frozenset(host.ids[i] for i in _bits(local_marks)),
            roots={p: host.ids[r] for p, r in moved.items()},
            deadline=deadline, host=host, free=inside, plan=plan,
        ):
            return False
    return True


def _search(
    g: Graph,
    h: Graph,
    g_marked: frozenset[int],
    h_marked: frozenset[int],
    roots: dict[int, int] | None,
    timeout: float | None,
    wrap,
) -> MinorResult:
    """The first model of the whole-host _model_stream, wrapped, as a
    MinorResult.  "absent" comes early when planarity or the blocks
    refute h.  One deadline bounds the block searches and the stream,
    and one plan serves them all."""
    deadline = deadline_after(timeout)
    host = _host_index(g)
    roots = roots or {}
    try:
        if _planarity_refutes(g, h, g_marked, h_marked):
            return MinorResult("absent")
        plan = _plan(h, h_marked, frozenset(roots))
        if _blocks_refute(host, plan, g, h, g_marked, roots, deadline):
            return MinorResult("absent")
        for masks in _model_stream(
            g, h, g_marked=g_marked, roots=roots, deadline=deadline, host=host, plan=plan,
        ):
            return MinorResult("found", wrap(*_model(g, h, host, plan, roots, masks)))
    except SearchTimeout:
        return MinorResult("timeout")
    return MinorResult("absent")


def find_minor(
    g: Graph,
    h: Graph,
    timeout: float | None = None,
    roots: dict[int, int] | None = None,
) -> MinorResult:
    """Search g for a minor model of h.

    Returns found with a verified-shape model, absent, or timeout.  roots
    narrows the search as described in _model_stream.  Before the
    exhaustive search, absence is settled when h is non-planar and g
    planar, or when h is 2-connected and none of g's blocks holds a
    model (module docstring); a model always comes from the whole-host
    search, so the refutations only shorten the way to "absent".
    """
    return _search(g, h, frozenset(), frozenset(), roots, timeout, MinorModel)


def find_marked_minor(
    g: MarkedGraph,
    h: MarkedGraph,
    timeout: float | None = None,
    roots: dict[int, int] | None = None,
) -> MinorResult:
    """Marked variant: marked pattern vertices must capture marked host
    vertices.

    The refutations of find_minor apply with two changes.  The planarity
    test compares the cones over the marks, since a marked model of h
    extends to a model of h's cone in g's cone.  A block's local marks
    are its vertices whose side of the block holds a mark.
    """
    return _search(
        g.graph,
        h.graph,
        g.marked,
        h.marked,
        roots,
        timeout,
        lambda bsets, conn: MarkedMinorModel(bsets, conn, g.marked),
    )


def _pack(
    g: Graph,
    h: Graph,
    n: int,
    timeout: float | None,
    hub: int | None,
    g_marked: frozenset[int],
    h_marked: frozenset[int],
) -> PackResult:
    """Find n models of h in g whose supports are pairwise disjoint
    (hub None) or pairwise meet in one host vertex z lying in every
    model's hub branch set, tried hub vertex by hub vertex.

    The recursion works on a mask of the free host vertices: it takes the
    first model it sees and moves on, falling back to the next model only
    when the remainder fails.  An incomplete result with exhausted=True
    certifies that no packing of n copies exists.  Three prunes cut the
    search:

    - Count.  k more copies sharing `shared` vertices (none, or z) and no
      edge need k*(|V(h)| - shared) + shared host vertices and k*|E(h)|
      host edges; a level where they do not fit fails at once.  When the
      n copies do not fit g, which depends neither on z nor on any index,
      the call returns before it sets a deadline, indexes g or plans h.
    - Room.  A level that needs k copies streams only models whose
      support is at most |free| - (k - 1)*(|V(h)| - shared), since a
      larger one leaves too few vertices for the other k - 1 copies.
    - Failed drops.  When a model's residue fails, its drop (support minus
      z) goes on the level's failed list, and the stream skips any later
      model whose support contains it: that model leaves a subgraph of
      the failed residue, which holds no packing either.

    Each prune removes only subtrees that hold no complete packing, and
    the stream order is unchanged, so a complete result is the first
    complete packing of the plain recursion, flags, hub vertex and models
    alike.

    One plan serves every stream, at every level and for every hub
    vertex, and each level counts the edges of its free mask once, for
    its own count and its stream's.  The plan and the host index come
    from the memos of the module docstring, so the packings of one
    engine call on one host share them.  Partial packings hold the
    streamed mask tuples; only the packing returned is built into models.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    shared = 0 if hub is None else 1

    def fits(k: int, size: int, edges: int) -> bool:
        return k * (h.n - shared) + shared <= size and k * h.m <= edges

    if not fits(n, g.n, g.m):
        return PackResult([], complete=False, exhausted=True, hub_vertex=None)
    deadline = deadline_after(timeout)
    host = _host_index(g)
    plan = _plan(h, frozenset(h_marked), frozenset(() if hub is None else (hub,)))
    best: list[tuple[int, ...]] = []
    best_hub: int | None = None

    def recurse(k: int, free: int, z: int | None, acc: list[tuple[int, ...]]):
        nonlocal best, best_hub
        if len(acc) > len(best):
            best, best_hub = acc, z
        if k == 0:
            return acc
        size, edges = free.bit_count(), host.edge_count(free)
        if not fits(k, size, edges):
            return None
        roots = None if z is None else {hub: z}
        keep = 0 if z is None else 1 << host.bit[z]
        failed: list[int] = []
        for masks in _model_stream(
            g, h, g_marked=g_marked, roots=roots, deadline=deadline, host=host,
            free=free, failed=failed, room=size - (k - 1) * (h.n - shared), plan=plan,
            free_edges=edges,
        ):
            drop = 0
            for m in masks:
                drop |= m
            drop &= ~keep
            rest = recurse(k - 1, free & ~drop, z, acc + [masks])
            if rest is not None:
                return rest
            failed.append(drop)
        return None

    def result(packing, z: int | None, complete: bool, exhausted: bool) -> PackResult:
        roots = {} if z is None else {hub: z}
        models = [MinorModel(*_model(g, h, host, plan, roots, masks)) for masks in packing]
        return PackResult(models, complete=complete, exhausted=exhausted, hub_vertex=z)

    hubs: list[int | None] = [None]
    if hub is not None:
        hubs = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    try:
        for z in hubs:
            got = recurse(n, (1 << g.n) - 1, z, [])
            if got is not None:
                return result(got, z, True, True)
    except SearchTimeout:
        return result(best, best_hub, False, False)
    return result(best, best_hub, False, True)


def pack_disjoint(
    g: Graph,
    h: Graph,
    n: int,
    timeout: float | None = None,
    g_marked: frozenset[int] = frozenset(),
    h_marked: frozenset[int] = frozenset(),
) -> PackResult:
    """Find n models of h in g with pairwise disjoint supports; see _pack."""
    return _pack(g, h, n, timeout, None, g_marked, h_marked)


def pack_bouquet(
    g: Graph,
    h: Graph,
    hub: int,
    n: int,
    timeout: float | None = None,
) -> PackResult:
    """Find n models of h whose supports pairwise meet in exactly one
    common host vertex, lying in every model's hub branch set; see _pack."""
    if hub not in h.vertices:
        raise ValueError(f"hub {hub} is not a pattern vertex")
    return _pack(g, h, n, timeout, hub, frozenset(), frozenset())

