"""Minor containment: models, independent verification, exhaustive search.

A minor model assigns to every pattern vertex a branch set in the host:
non-empty, pairwise disjoint, inducing a connected subgraph.  Every
pattern edge is realized by a host edge running between the two branch
sets.  The searches in this module are exhaustive backtracking over
branch-set assignments, one model per orbit under swapping the branch
sets of twin pattern vertices; "absent" is only ever reported after the
whole candidate space has been enumerated.  When a time budget runs out
the result says so explicitly instead of masquerading as absence.

The verifier shares no logic with the search.  It re-derives every
invariant (disjointness, connectivity, edge realization) directly from
the two graphs, so a bug in the search cannot hide behind itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import Edge, Graph, MarkedGraph, SearchTimeout, deadline_after, norm_edge


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
    that no packing of the requested size exists.
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


def _connected_subsets(g, allowed, seeds, cap, ticker):
    """Yield every connected subset of `allowed` with at most `cap` vertices
    whose seed (smallest usable id, or the forced root) is in `seeds`.

    Each subset comes out exactly once: frontier vertices are decided
    include-or-ban in a fixed order, so no two recursion paths build the
    same set.
    """
    for seed, others in seeds:
        usable = allowed & others

        def rec(chosen, frontier, banned):
            ticker()
            yield frozenset(chosen)
            if len(chosen) >= cap:
                return
            for i, u in enumerate(frontier):
                newly_banned = banned | set(frontier[:i])
                block = set(chosen) | newly_banned | set(frontier)
                growth = tuple(w for w in g.neighbors(u) if w in usable and w not in block)
                yield from rec(chosen + (u,), frontier[i + 1 :] + growth, newly_banned)

        start_frontier = tuple(w for w in g.neighbors(seed) if w in usable)
        yield from rec((seed,), start_frontier, set())


def _seed_plan(allowed: set[int], root: int | None, above: int):
    if root is not None:
        if root not in allowed:
            return []
        return [(root, frozenset(allowed))]
    # seed = smallest id of the subset; later vertices must be larger
    order = sorted(allowed)
    return [(v, frozenset(u for u in order if u > v)) for v in order if v > above]


def _twin_predecessors(
    h: Graph, order: list[int], h_marked: frozenset[int], roots: dict[int, int]
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
        if p in roots:
            continue
        for cls in classes:
            if all(twins(p, q) for q in cls):
                cls.append(p)
                break
        else:
            classes.append([p])
    return {cls[i]: cls[i - 1] for cls in classes for i in range(1, len(cls))}


def _resolve_connectors(g: Graph, h: Graph, assignment: dict[int, frozenset[int]]):
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


def _model_stream(
    g: Graph,
    h: Graph,
    *,
    g_marked: frozenset[int] = frozenset(),
    h_marked: frozenset[int] = frozenset(),
    roots: dict[int, int] | None = None,
    deadline: float | None = None,
):
    """Yield every minor model of h in g, marked constraints included, up
    to swapping the branch sets of twin pattern vertices.

    roots pins a pattern vertex's branch set to contain a given host
    vertex.  A twin swap keeps the support, the marks and the roots, so
    exhaustion of this generator still certifies absence.
    """
    roots = roots or {}
    if set(h.vertices) and not g.vertices:
        return
    if h.m > g.m or h.n > g.n:
        return
    counter = [0]

    def ticker():
        counter[0] += 1
        if deadline is not None and counter[0] % 256 == 0:
            if time.monotonic() > deadline:
                raise SearchTimeout

    # most constrained first: pinned vertices, then by descending degree
    order = sorted(
        h.vertices, key=lambda p: (p not in roots, -h.degree(p), p)
    )
    nbrs = {p: [q for q in h.neighbors(p)] for p in h.vertices}
    twin_before = _twin_predecessors(h, order, h_marked, roots)
    edge_budget = g.m - h.m

    def place(idx: int, avail: set[int], placed: dict[int, frozenset[int]], spent: int):
        ticker()
        if idx == len(order):
            connectors = _resolve_connectors(g, h, placed)
            if connectors is not None:
                yield dict(placed), connectors
            return
        p = order[idx]
        cap = min(len(avail) - (len(order) - idx - 1), edge_budget - spent + 1)
        if cap < 1:
            return
        placed_nbrs = [placed[q] for q in nbrs[p] if q in placed]
        unplaced_deg = sum(1 for q in nbrs[p] if q not in placed)
        need_mark = p in h_marked
        above = min(placed[twin_before[p]]) if p in twin_before else -1
        seeds = _seed_plan(avail, roots.get(p), above)
        for cand in _connected_subsets(g, avail, seeds, cap, ticker):
            if need_mark and not (cand & g_marked):
                continue
            hit_all = True
            for bs in placed_nbrs:
                if not any(w in bs for v in cand for w in g.neighbors(v)):
                    hit_all = False
                    break
            if not hit_all:
                continue
            if unplaced_deg:
                rim = {w for v in cand for w in g.neighbors(v) if w in avail and w not in cand}
                if len(rim) < unplaced_deg:
                    continue
            yield from place(idx + 1, avail - cand, {**placed, p: cand}, spent + len(cand) - 1)

    yield from place(0, set(g.vertices), {}, 0)


def _first_model(stream, wrap) -> MinorResult:
    """The first model of a _model_stream, wrapped, as a MinorResult."""
    try:
        for bsets, connectors in stream:
            return MinorResult("found", wrap(bsets, connectors))
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

    Returns found with a verified-shape model, absent after exhausting
    the space, or timeout.  roots narrows the search as described in
    _model_stream.
    """
    stream = _model_stream(g, h, roots=roots, deadline=deadline_after(timeout))
    return _first_model(stream, MinorModel)


def find_marked_minor(
    g: MarkedGraph,
    h: MarkedGraph,
    timeout: float | None = None,
    roots: dict[int, int] | None = None,
) -> MinorResult:
    """Marked variant: marked pattern vertices must capture marked host
    vertices."""
    stream = _model_stream(
        g.graph,
        h.graph,
        g_marked=g.marked,
        h_marked=h.marked,
        roots=roots,
        deadline=deadline_after(timeout),
    )
    return _first_model(stream, lambda bsets, conn: MarkedMinorModel(bsets, conn, g.marked))


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

    Greedy first: the recursion takes the first model it sees and moves
    on, falling back to the next candidate only when the remainder fails.
    An incomplete result with exhausted=True certifies that no packing of
    n copies exists.  k more copies sharing `shared` vertices (none, or z)
    and no edge need k*(|V(h)| - shared) + shared host vertices and
    k*|E(h)| host edges.  Below a level where they do not fit by count,
    the partial packing is only extended greedily; when they do not fit at
    the top level, which does not depend on z, only the first hub vertex
    is tried.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    deadline = deadline_after(timeout)
    shared = 0 if hub is None else 1
    best: list[MinorModel] = []
    best_hub: int | None = None

    def fits(k: int, host: Graph) -> bool:
        return k * (h.n - shared) + shared <= host.n and k * h.m <= host.m

    def recurse(k: int, host: Graph, z: int | None, acc: list[MinorModel]):
        nonlocal best, best_hub
        if len(acc) > len(best):
            best, best_hub = list(acc), z
        if k == 0:
            return list(acc)
        if h.n > host.n or h.m > host.m:
            return None
        backtrack = fits(k, host)
        roots = None if z is None else {hub: z}
        for bsets, connectors in _model_stream(
            host, h, g_marked=g_marked, h_marked=h_marked, roots=roots, deadline=deadline
        ):
            m = MinorModel(bsets, connectors)
            rest = recurse(k - 1, host.remove_vertices(m.support() - {z}), z, acc + [m])
            if rest is not None or not backtrack:
                return rest
        return None

    hubs: list[int | None] = [None]
    if hub is not None:
        hubs = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
        if not fits(n, g):
            hubs = hubs[:1]
    try:
        for z in hubs:
            got = recurse(n, g, z, [])
            if got is not None:
                return PackResult(got, complete=True, exhausted=True, hub_vertex=z)
    except SearchTimeout:
        return PackResult(best, complete=False, exhausted=False, hub_vertex=best_hub)
    return PackResult(best, complete=False, exhausted=True, hub_vertex=best_hub)


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


def glue_models(
    copy_maps: list[dict[int, int]],
    models: list[MinorModel],
    host_marked: frozenset[int] | None = None,
) -> MinorModel:
    """Assemble per-copy models into one model of the glued pattern.

    copy_maps[i] sends the vertices of copy i to pattern vertices; branch
    sets landing on the same pattern vertex merge.  Given the host
    marking, the result is a MarkedMinorModel carrying it.
    """
    bsets: dict[int, set[int]] = {}
    conn: dict[Edge, Edge] = {}
    for cm, mdl in zip(copy_maps, models):
        for b, bs in mdl.branch_sets.items():
            bsets.setdefault(cm[b], set()).update(bs)
        for (a, b), e in mdl.connect_edges.items():
            conn[norm_edge(cm[a], cm[b])] = e
    glued = {p: frozenset(s) for p, s in bsets.items()}
    if host_marked is None:
        return MinorModel(glued, conn)
    return MarkedMinorModel(glued, conn, host_marked)
