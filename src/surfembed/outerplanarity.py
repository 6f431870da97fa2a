"""Relative outerplanarity: cone planarity tests, theta extraction from
Kuratowski witnesses, star searches, and the staged obstruction search.

Everything here works over marked graphs (g, U).  The cone over U is the
basic probe: (g, U) is "nice" at genus budget b when the cone embeds in
Euler genus <= b.  When it does not, the routines below hunt for one of
the catalog witnesses (a U/U'-bouquet, an omega-theta packing, or the
K_{2,n} double star) at a requested level n, or certify a residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import (
    Graph,
    MarkedGraph,
    PathSystem,
    SearchTimeout,
    cone,
    deadline_after,
    max_disjoint_paths,
    norm_edge,
    settled,
    time_left,
)
from .embeddings import (
    BudgetExceeded,
    KuratowskiWitness,
    RotationSystem,
    is_planar,
    min_genus,
    planarity,
)
from .minors import (
    MarkedMinorModel,
    find_marked_minor,
    glue_models,
    verify_marked_model,
)
from .patterns import (
    PatternId,
    build_pattern,
    omega_theta_copies,
    theta,
    u_copies,
    u_pattern,
)


class NonPlanarInput(ValueError):
    """Raised when a routine that needs a planar base graph gets a
    non-planar one.  Carries the Kuratowski witness."""

    def __init__(self, witness: KuratowskiWitness):
        super().__init__("base graph is not planar")
        self.witness = witness


@dataclass
class ThetaWitness:
    """One of the four minimal marked patterns, as a verified minor model
    in the marked graph it was extracted from."""

    index: int
    model: MarkedMinorModel


@dataclass
class RelativeGenusResult:
    """Genus of the cone and of the base, plus the critical vertices.

    A vertex is critical when the cone costs extra genus on the whole
    graph but not once that vertex is removed.  Empty when coning is
    already free."""

    gamma_cone: int
    gamma_base: int
    critical: tuple[int, ...]


@dataclass
class DoubleStarResult:
    """Outcome of the double-star search between two centers.

    status "found": model realizes K_{2,n} with the n-side marked and the
    2-side pinned on the centers.  status "separated": separator (size < n)
    meets every path between a maximal star at one center and a maximal
    star at the other.  status "exhausted": the link count permits level n
    but no model exists.  status "timeout": nothing certified."""

    status: str
    model: MarkedMinorModel | None = None
    separator: frozenset[int] | None = None
    links: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass
class SuResult:
    """Outcome of the staged obstruction search.

    status "witness": kind/model name a verified marked pattern at the
    requested level.  status "certificate": after removing the recorded
    supports the residue cones within the genus budget.  status
    "exhausted": every stage ran but found no pattern; status "timeout":
    the deadline passed first.  Neither certifies anything."""

    status: str
    kind: PatternId | None = None
    model: MarkedMinorModel | None = None
    residue: frozenset[int] = frozenset()
    removed: tuple[frozenset[int], ...] = ()
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.status == "witness"


def is_u_outerplanar(g: Graph, u: Iterable[int]) -> RotationSystem | ThetaWitness:
    """Decide whether planar g embeds with all of u on a common face.

    Returns a rotation system of the cone when it does (delete the apex,
    the highest vertex id, to read off the embedding of g with u on one
    face).  Otherwise returns a verified theta witness inside (g, u).
    Non-planar g raises NonPlanarInput carrying the Kuratowski witness.
    """
    u = frozenset(u)
    stray = u - g.vertices
    if stray:
        raise ValueError(f"marked vertices not in graph: {sorted(stray)}")
    if not is_planar(g):
        raise NonPlanarInput(planarity(g).witness)
    cg, apex = cone(g, u)
    res = planarity(cg)
    if res.planar:
        return res.rotation
    return extract_theta(MarkedGraph(g, u), res.witness, apex)


def extract_theta(g: MarkedGraph, w: KuratowskiWitness, cone_v: int) -> ThetaWitness:
    """Decode a Kuratowski witness of the cone into a minimal marked pattern.

    Four cases on the role of the cone vertex in the witness: a K5 branch
    vertex gives theta1, a K5 subdivision vertex theta2, a K33 branch
    vertex theta3, a K33 subdivision vertex theta4.  Path interiors fold
    into the branch set with the smaller pattern label, the connecting
    edge is taken at the far end, and the two halves of a split path keep
    the neighbor of the cone vertex, which is marked by construction.
    The result is verified before returning.
    """
    bv = list(w.branch_vertices)
    pd = w.path_dict()
    if cone_v not in w.all_vertices():
        raise ValueError("cone vertex does not lie on the witness")

    bsets: dict[int, set[int]] = {}
    conn: dict[tuple[int, int], tuple[int, int]] = {}

    def absorb(ti: int, tj: int, p: tuple[int, ...]) -> None:
        # p runs from ti's branch vertex to tj's
        lo, hi = min(ti, tj), max(ti, tj)
        bsets[lo].update(p[1:-1])
        if tj == hi:
            conn[(lo, hi)] = norm_edge(p[-2], p[-1])
        else:
            conn[(lo, hi)] = norm_edge(p[0], p[1])

    if cone_v in bv:
        a = bv.index(cone_v)
        if w.kind == "K5":
            idx = 1
            m = {pi: t for t, pi in enumerate(i for i in range(5) if i != a)}
        else:
            idx = 3
            side = range(0, 3) if a < 3 else range(3, 6)
            mates = [i for i in side if i != a]
            across = [i for i in range(6) if (i < 3) != (a < 3)]
            m = {pi: t for t, pi in enumerate(mates)}
            m.update({pi: 2 + t for t, pi in enumerate(across)})
        for pi, t in sorted(m.items()):
            key = norm_edge(pi, a)
            if key in pd:
                bsets[t] = {bv[pi], *pd[key][1:-1]}
            else:
                bsets[t] = {bv[pi]}
        for (i, j), p in sorted(pd.items()):
            if a in (i, j):
                continue
            absorb(m[i], m[j], p)
    else:
        owner, p0 = next(
            (e, p) for e, p in sorted(pd.items()) if cone_v in p[1:-1]
        )
        e1, e2 = owner
        k = p0.index(cone_v)
        if w.kind == "K5":
            idx = 2
            m = {e1: 0, e2: 1}
            rest = [i for i in range(5) if i not in owner]
            m.update({pi: 2 + t for t, pi in enumerate(rest)})
        else:
            idx = 4
            m = {e1: 0, e2: 3}
            m.update({pi: 1 + t for t, pi in enumerate(i for i in range(3) if i != e1)})
            m.update({pi: 4 + t for t, pi in enumerate(i for i in range(3, 6) if i != e2)})
        for pi, t in sorted(m.items()):
            if pi == e1:
                bsets[t] = {bv[e1], *p0[1:k]}
            elif pi == e2:
                bsets[t] = {bv[e2], *p0[k + 1 : -1]}
            else:
                bsets[t] = {bv[pi]}
        for (i, j), p in sorted(pd.items()):
            if (i, j) == owner:
                continue
            absorb(m[i], m[j], p)

    model = MarkedMinorModel(
        {t: frozenset(s) for t, s in bsets.items()}, dict(conn), g.marked
    )
    ok, errs = verify_marked_model(g, theta(idx), model)
    assert ok, errs
    return ThetaWitness(idx, model)


def relative_genus(
    g: Graph, u: Iterable[int], budget: int, timeout: float | None = None
) -> RelativeGenusResult:
    """Euler genus of the cone over u and of g, plus the critical vertices.

    Raises BudgetExceeded when a needed genus value exceeds the budget, and
    SearchTimeout when the timeout, which bounds the whole call, passes.
    """
    u = frozenset(u)
    stray = u - g.vertices
    if stray:
        raise ValueError(f"marked vertices not in graph: {sorted(stray)}")
    deadline = deadline_after(timeout)

    def exact(h: Graph, cap: int) -> int:
        r = settled(min_genus(h, cap, timeout=time_left(deadline)))
        if r.status != "ok":
            raise BudgetExceeded(f"genus search {r.status} at budget {cap}")
        return r.genus

    gamma_base = exact(g, budget)
    cg, _ = cone(g, u)
    gamma_cone = exact(cg, budget)
    crit: list[int] = []
    if gamma_cone > gamma_base:
        for x in g.sorted_vertices():
            hx = g.remove_vertices([x])
            gb = exact(hx, budget)
            cx, _ = cone(hx, u - {x})
            rx = settled(min_genus(cx, gb, timeout=time_left(deadline)))
            if rx.status == "ok":
                crit.append(x)
    return RelativeGenusResult(gamma_cone, gamma_base, tuple(crit))


def u_star_search(g: MarkedGraph, x: int, n: int) -> PathSystem:
    """Maximum disjoint family of paths from the neighborhood of x to the
    marked set inside g - x, with the dual separator.

    The family is maximum regardless of n; a level-n star at x exists
    exactly when len(paths) >= n, and otherwise the separator (of the same
    size as the family) meets every such path.
    """
    if x not in g.graph.vertices:
        raise ValueError(f"center {x} not in graph")
    if n < 1:
        raise ValueError("level must be >= 1")
    h = g.graph.remove_vertices([x])
    return max_disjoint_paths(h, g.graph.neighbors(x), g.marked - {x})


def double_star_search(
    g: MarkedGraph, x: int, y: int, n: int, timeout: float | None = None
) -> DoubleStarResult:
    """Search for K_{2,n} with the n-side marked and the 2-side on {x, y}.

    First gate: fewer than n disjoint links between a maximal star at x
    and a maximal star at y yields a separator certificate.  Otherwise an
    exhaustive rooted minor search settles it.
    """
    if x == y:
        raise ValueError("double star needs two distinct centers")
    tx = {x}.union(*([()] + [p for p in u_star_search(g, x, n).paths]))
    ty = {y}.union(*([()] + [p for p in u_star_search(g, y, n).paths]))
    link = max_disjoint_paths(g.graph, tx, ty)
    if len(link.paths) < n:
        return DoubleStarResult(
            "separated", separator=link.separator, links=len(link.paths)
        )
    r = find_marked_minor(g, u_pattern(5, False, n), timeout=timeout, roots={0: x, 1: y})
    status = "exhausted" if r.status == "absent" else r.status
    return DoubleStarResult(status, model=r.model, links=len(link.paths))


# bouquet targets in search order: hub in a marked branch first, then the
# primed (unmarked hub) variants; theta1 has no unmarked vertex
_TARGETS = ((1, False), (2, False), (3, False), (4, False), (2, True), (3, True), (4, True))


def _bouquet_at(
    g: MarkedGraph, x: int, n: int, deadline: float | None
) -> tuple[PatternId, MarkedMinorModel] | None:
    """Try to grow n theta copies pairwise disjoint except at x.

    Each target (index, primed) runs its own greedy stream from the full
    graph: find a theta with x pinned to the hub role, drop its support
    except x, repeat.  Pinning the hub directly makes the copies line up
    without any relabeling.
    """
    for i, primed in _TARGETS:
        hub = u_copies(i, primed, 1)[0]
        k, km = g.graph, g.marked
        models: list[MarkedMinorModel] = []
        while len(models) < n and x in k.vertices:
            sub = MarkedGraph(k, km & k.vertices)
            r = settled(find_marked_minor(sub, theta(i), time_left(deadline), {hub: x}))
            if not r.found:
                break
            models.append(r.model)
            k = k.remove_vertices(r.model.support() - {x})
        if len(models) == n:
            pid = PatternId("uprime" if primed else "u", i, n)
            return pid, glue_models(u_copies(i, primed, n)[1], models, g.marked)
    return None


def _free_theta(g: MarkedGraph, deadline: float | None) -> ThetaWitness | None:
    """Extract one theta anywhere in (g, marked), or None.

    Planar g with a non-planar cone decodes directly from the Kuratowski
    witness; otherwise the four patterns are searched exhaustively.
    """
    if is_planar(g.graph):
        cg, apex = cone(g.graph, g.marked)
        res = planarity(cg)
        if res.planar:
            return None
        return extract_theta(g, res.witness, apex)
    for i in (1, 2, 3, 4):
        r = settled(find_marked_minor(g, theta(i), timeout=time_left(deadline)))
        if r.found:
            return ThetaWitness(i, r.model)
    return None


def _disjoint_pack(
    h: Graph,
    marks: frozenset[int],
    n: int,
    banked: dict[int, list[MarkedMinorModel]],
    deadline: float | None,
) -> tuple[int, list[MarkedMinorModel]] | None:
    """Greedy extract-and-delete on a scratch copy, continuing the banked
    counts; returns (index, n disjoint models) when some index fills."""
    scratch = {i: list(ms) for i, ms in banked.items()}
    k, km = h, marks
    while True:
        for i, ms in scratch.items():
            if len(ms) >= n:
                return i, ms[:n]
        if not k.vertices:
            return None
        tw = _free_theta(MarkedGraph(k, km & k.vertices), deadline)
        if tw is None:
            return None
        scratch[tw.index].append(tw.model)
        k = k.remove_vertices(tw.model.support())
        km = km & k.vertices


def su_obstruction(
    g: MarkedGraph, genus_budget: int, n: int, timeout: float | None = None
) -> SuResult:
    """Staged search for a level-n obstruction against coning within budget.

    Loop: if the current residue cones within the budget, stop with a
    certificate.  Otherwise try witnesses in preference order.  First a
    disjoint packing of a common theta index (greedy extract-and-delete on
    a scratch copy).  Then a bouquet of thetas through each critical
    vertex.  Then a double star over each critical pair.  If none lands,
    extract one theta outright, bank it, remove its support and repeat.
    Every witness is re-verified in the input graph before it is returned.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if genus_budget < 0:
        raise ValueError("genus budget must be >= 0")
    deadline = deadline_after(timeout)

    def nice(h: Graph, marks: frozenset[int]) -> bool:
        ch, _ = cone(h, marks & h.vertices)
        return settled(min_genus(ch, genus_budget, timeout=time_left(deadline))).status == "ok"

    def witness(pid: PatternId, model: MarkedMinorModel) -> SuResult:
        ok, errs = verify_marked_model(g, build_pattern(pid), model)
        assert ok, errs
        return SuResult("witness", kind=pid, model=model, removed=tuple(removed))

    h, marks = g.graph, g.marked
    removed: list[frozenset[int]] = []
    banked: dict[int, list[MarkedMinorModel]] = {1: [], 2: [], 3: [], 4: []}
    try:
        while True:
            if nice(h, marks):
                counts = {i: len(ms) for i, ms in banked.items() if ms}
                return SuResult(
                    "certificate",
                    residue=h.vertices,
                    removed=tuple(removed),
                    detail=f"residue cones within budget {genus_budget};"
                    f" banked theta counts {counts}",
                )
            cur = MarkedGraph(h, marks & h.vertices)
            pack = _disjoint_pack(h, marks, n, banked, deadline)
            if pack is not None:
                i, models = pack
                return witness(
                    PatternId("omega-theta", i, n),
                    glue_models(omega_theta_copies(i, n), models, g.marked),
                )
            crits = [
                x
                for x in h.sorted_vertices()
                if nice(h.remove_vertices([x]), marks - {x})
            ]
            for x in crits:
                hit = _bouquet_at(cur, x, n, deadline)
                if hit is not None:
                    return witness(*hit)
            if len(crits) >= 2:
                for x, y in combinations(crits, 2):
                    ds = settled(double_star_search(cur, x, y, n, timeout=time_left(deadline)))
                    if ds.found:
                        return witness(PatternId("u", 5, n), ds.model)
            tw = _free_theta(cur, deadline)
            if tw is None:
                return SuResult(
                    "exhausted",
                    residue=h.vertices,
                    removed=tuple(removed),
                    detail="residue exceeds the budget but no pattern was found",
                )
            banked[tw.index].append(tw.model)
            sup = tw.model.support()
            removed.append(sup)
            h = h.remove_vertices(sup)
            marks = marks & h.vertices
    except SearchTimeout:
        return SuResult(
            "timeout",
            residue=h.vertices,
            removed=tuple(removed),
            detail="search deadline passed",
        )
