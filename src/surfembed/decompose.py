"""Finitary planar decompositions.

A decomposition cuts a graph into finitely many pieces whose pairwise
intersections are small; when every piece is planar, the whole graph
embeds in a surface whose genus is bounded by the per-piece genus plus
one handle per vertex identification needed to reassemble the host.
decompose() builds such a decomposition constructively from a minimum
genus rotation: find a genus-critical core, trace its faces, hang the
rest of the graph on per-sector boundary copies inside each face, and
refine with connecting forests until every face piece needs at most one
identification, which keeps it planar.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .core import (
    Graph,
    deadline_after,
    minimal_connecting_forest,
    norm_edge,
    settled,
    time_left,
)
from .embeddings import (
    BudgetExceeded,
    RotationSystem,
    genus_of_rotation,
    is_planar,
    min_genus,
    trace_faces,
)

Edge = tuple[int, int]


@dataclass
class Decomposition:
    """Pieces covering a host graph, plus the refined core.  Pieces are
    genuine subgraphs of the host."""

    pieces: tuple[Graph, ...]
    core: Graph

    def __post_init__(self) -> None:
        self.pieces = tuple(self.pieces)


def verify_decomposition(
    g: Graph, d: Decomposition, cap: int | None = None
) -> tuple[bool, list[str]]:
    """Re-check a decomposition: subgraph pieces, exact union coverage,
    pairwise intersections within cap, and per-piece planarity.  Returns
    (ok, violations)."""
    errs: list[str] = []
    vs: set[int] = set()
    es: set[Edge] = set()
    for i, p in enumerate(d.pieces):
        if p.vertices - g.vertices or p.edges - g.edges:
            errs.append(f"piece {i} is not a subgraph of the host")
        if not is_planar(p):
            errs.append(f"piece {i} is not planar")
        vs |= p.vertices
        es |= p.edges
    if vs != g.vertices:
        errs.append("piece union misses or exceeds the host vertices")
    if es != g.edges:
        errs.append("piece union misses or exceeds the host edges")
    if cap is not None:
        for i, j in combinations(range(len(d.pieces)), 2):
            shared = d.pieces[i].vertices & d.pieces[j].vertices
            if len(shared) > cap:
                errs.append(f"pieces {i},{j} share {len(shared)} > cap {cap} vertices")
    return (not errs, errs)


def genus_bound(d: Decomposition, budget: int = 6) -> int:
    """Upper bound for the host genus: per-piece genus plus one handle per
    identification; a vertex in t pieces costs t - 1 identifications.
    A piece that is_planar accepts counts 0 without a genus search, so
    only a non-planar piece, which no verified decomposition holds, is
    searched within the budget."""
    total = 0
    mult: Counter[int] = Counter()
    for p in d.pieces:
        mult.update(p.vertices)
        if is_planar(p):
            continue
        r = min_genus(p, budget)
        if r.status != "ok":
            raise BudgetExceeded(f"piece genus search {r.status} at budget {budget}")
        total += r.genus
    return total + sum(t - 1 for t in mult.values())


# ---------------------------------------------------------------------------
# face layout machinery
# ---------------------------------------------------------------------------

# boundary copies are keyed by (core vertex, core neighbor preceding the
# sector in the rotation); the face owning the sector is the face of the
# incoming dart (neighbor, vertex)
_SectorKey = tuple[int, int]


class _Layout:
    """The residual graph hung on per-sector boundary copies of one core.

    For each face of the core's restricted rotation: the edges of g not in
    the core whose drawing lives in that face, with core endpoints replaced
    by fresh boundary ids.  origin maps boundary ids back to core vertices.
    """

    def __init__(self, g: Graph, rho: RotationSystem, core: Graph, gamma: int):
        full = rho.as_dict()
        hrot = RotationSystem.from_dict(
            {
                v: [w for w in full[v] if core.has_edge(v, w)]
                for v in core.sorted_vertices()
            }
        )
        # the restriction of a minimum rotation to a genus-critical core is
        # itself minimum, so its faces carry the whole residual structure
        assert genus_of_rotation(core, hrot) == gamma
        face_of_dart: dict[Edge, int] = {}
        for fi, walk in enumerate(trace_faces(core, hrot)):
            for dart in walk:
                face_of_dart[dart] = fi

        def sector(v: int, u: int) -> _SectorKey:
            ring = full[v]
            i = ring.index(u)
            for step in range(1, len(ring) + 1):
                w = ring[(i - step) % len(ring)]
                if core.has_edge(v, w):
                    return (v, w)
            raise AssertionError(f"core vertex {v} has no core edge")

        def face_of(sk: _SectorKey) -> int:
            return face_of_dart[(sk[1], sk[0])]

        # endpoints are real vertex ids or sector keys, materialized below
        content: dict[int, list[tuple[object, object]]] = {}
        outside = g.remove_vertices(core.vertices)
        for comp in outside.components():
            items: list[tuple[object, object]] = [
                (a, b) for a, b in g.edges if a in comp and b in comp
            ]
            fs = set()
            for u in sorted(comp):
                for v in g.neighbors(u):
                    if v in core.vertices:
                        sk = sector(v, u)
                        fs.add(face_of(sk))
                        items.append((u, sk))
            assert len(fs) == 1, "component attaches into several faces"
            content.setdefault(fs.pop(), []).extend(items)
        for a, b in sorted(g.edges - core.edges):
            if a in core.vertices and b in core.vertices:
                ska, skb = sector(a, b), sector(b, a)
                fa, fb = face_of(ska), face_of(skb)
                assert fa == fb, "chord endpoints see different faces"
                content.setdefault(fa, []).append((ska, skb))

        self.origin: dict[int, int] = {}
        self.faces: list[Graph] = []
        nxt = max(g.vertices) + 1 if g.vertices else 0
        ids: dict[tuple[int, _SectorKey], int] = {}
        for fi in sorted(content):
            edges = []
            for a, b in content[fi]:
                ea, eb = a, b
                if isinstance(a, tuple):
                    if (fi, a) not in ids:
                        ids[(fi, a)] = nxt
                        self.origin[nxt] = a[0]
                        nxt += 1
                    ea = ids[(fi, a)]
                if isinstance(b, tuple):
                    if (fi, b) not in ids:
                        ids[(fi, b)] = nxt
                        self.origin[nxt] = b[0]
                        nxt += 1
                    eb = ids[(fi, b)]
                edges.append((ea, eb))
            piece = Graph([], edges)
            assert is_planar(piece), "face content is not planar"
            self.faces.append(piece)

    def project(self, u: int) -> int:
        return self.origin.get(u, u)


def _refined_core(g: Graph, rho: RotationSystem, core: Graph, gamma: int) -> Graph:
    """Add, per face, a minimal forest joining the boundary copies that
    share a component, projected back to host edges."""
    lay = _Layout(g, rho, core, gamma)
    extra: set[Edge] = set(core.edges)
    for fg in lay.faces:
        forest = minimal_connecting_forest(fg, [b for b in fg.vertices if b in lay.origin])
        for a, b in forest.edges:
            extra.add(norm_edge(lay.project(a), lay.project(b)))
    return Graph([], sorted(extra))


def _critical_core(g: Graph, gamma: int, deadline: float | None) -> Graph:
    """An edge-minimal subgraph of g of genus gamma, the genus of g: each
    edge of g, in sorted order, is deleted when the rest keeps the genus.

    Deleting an edge lowers the genus by at most one, so a trial keeps
    the genus exactly when its genus exceeds gamma - 1; each trial asks
    that yes/no question, not for its exact genus."""
    core = g
    for e in sorted(g.edges):
        trial = core.remove_edges([e])
        rr = settled(min_genus(trial, gamma - 1, timeout=time_left(deadline)))
        if rr.status == "exceeds-budget":
            core = trial
    return core


def decompose(g: Graph, genus_budget: int, timeout: float | None = None) -> Decomposition:
    """Decompose g into planar pieces plus the single edges of a refined core.

    Planar hosts are a single piece.  Otherwise, per host component: find a
    connected edge-minimal core of full genus, lay the residual graph out in
    the faces of the core's restricted minimum rotation, refine the core with
    per-face connecting forests, and re-lay against the refined core.  Each
    face component then holds at most one same-origin pair of boundary
    copies, so projecting boundary copies back to their core vertices leaves
    it planar; those projections are the pieces.

    Raises BudgetExceeded when the genus exceeds the budget, and
    SearchTimeout when the timeout, which bounds the whole call, passes.
    """
    deadline = deadline_after(timeout)
    comps = g.components()
    if len(comps) > 1:
        pieces: list[Graph] = []
        cores: set[Edge] = set()
        for comp in comps:
            sub = decompose(g.subgraph(comp), genus_budget, timeout=time_left(deadline))
            pieces.extend(sub.pieces)
            cores |= sub.core.edges
        return Decomposition(pieces, Graph([], sorted(cores)))

    r = settled(min_genus(g, genus_budget, timeout=time_left(deadline)))
    if r.status != "ok":
        raise BudgetExceeded(f"genus search {r.status} at budget {genus_budget}")
    if r.genus == 0:
        return Decomposition([g], Graph([], []))
    gamma, rho = r.genus, r.rotation

    core = Graph([], sorted(_critical_core(g, gamma, deadline).edges))
    # rotation faces of a disconnected core cannot express shared regions;
    # joining its components through g costs no genus (trees are free)
    if len(core.components()) > 1:
        joins = minimal_connecting_forest(g, core.vertices)
        core = Graph([], sorted(core.edges | joins.edges))

    refined = _refined_core(g, rho, core, gamma)
    lay = _Layout(g, rho, refined, gamma)
    pieces = []
    for fg in lay.faces:
        for comp in fg.components():
            groups: dict[int, list[int]] = {}
            for b in sorted(comp):
                if b in lay.origin:
                    groups.setdefault(lay.origin[b], []).append(b)
            in_first_core = [v for v in groups if v in core.vertices]
            assert len(in_first_core) <= 2, "face component spans 3+ core sectors"
            pairs = [bs for bs in groups.values() if len(bs) > 1]
            assert all(len(bs) == 2 for bs in pairs) and len(pairs) <= 1, (
                "face component needs more than one identification"
            )
            edges = [
                (lay.project(a), lay.project(b))
                for a, b in fg.edges
                if a in comp and b in comp
            ]
            piece = Graph([], edges)
            assert is_planar(piece), "projected piece is not planar"
            pieces.append(piece)
    pieces.extend(Graph([], [e]) for e in sorted(refined.edges))
    d = Decomposition(pieces, refined)
    ok, errs = verify_decomposition(g, d, cap=len(refined.vertices))
    assert ok, errs
    return d

