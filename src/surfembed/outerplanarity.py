"""Relative outerplanarity: cone planarity tests, theta extraction from
Kuratowski witnesses, star searches, and the obstruction search.

Everything here works over marked graphs (g, U).  The cone over U is the
basic probe: (g, U) is "nice" at genus budget b when the cone embeds in
Euler genus <= b.  When it does not, a non-planar cone's Kuratowski
witness decodes into a marked theta, and `su_obstruction` peels one
greedy stream of such thetas (`_peel`: extract, delete the support,
repeat).  From that stream it reads a catalog witness at a requested
level n (an omega-theta packing, a U/U'-bouquet, or the K_{2,n} double
star) or certifies a residue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

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
    KuratowskiWitness,
    RotationSystem,
    is_planar,
    min_genus,
    planarity,
)
from .minors import MarkedMinorModel, find_marked_minor, verify_marked_model
from .patterns import PatternId, build_pattern, copies, glue_models, theta, u_pattern


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


def _cone_probe(g: MarkedGraph) -> RotationSystem | ThetaWitness:
    """Planarity of the cone over the marks of planar g: the cone's
    rotation system, or the theta decoded from its Kuratowski witness."""
    cg, apex = cone(g.graph, g.marked)
    res = planarity(cg)
    return res.rotation if res.planar else extract_theta(g, res.witness, apex)


def is_u_outerplanar(g: Graph, u: Iterable[int]) -> RotationSystem | ThetaWitness:
    """Decide whether planar g embeds with all of u on a common face.

    Returns a rotation system of the cone when it does (delete the apex,
    the highest vertex id, to read off the embedding of g with u on one
    face).  Otherwise returns a verified theta witness inside (g, u).
    Non-planar g raises NonPlanarInput carrying the Kuratowski witness.
    """
    mg = MarkedGraph(g, frozenset(u))
    if not is_planar(g):
        raise NonPlanarInput(planarity(g).witness)
    return _cone_probe(mg)


def extract_theta(g: MarkedGraph, w: KuratowskiWitness, cone_v: int) -> ThetaWitness:
    """Decode a Kuratowski witness of the cone into a minimal marked pattern.

    The role of the cone vertex names the pattern: a K5 branch vertex
    gives theta1, a K5 subdivision vertex theta2, a K33 branch vertex
    theta3, a K33 subdivision vertex theta4.  The case only fixes the
    order in which the other branch vertices become pattern vertices; one
    rule then builds the model.  A path through the cone vertex is split
    there, and each half joins the branch set of its own end (its
    neighbor of the cone vertex is marked by construction).  Every other
    path's interior folds into the branch set with the smaller pattern
    label, and its connecting edge is taken at the far end.  The result
    is verified before returning.
    """
    bv = w.branch_vertices
    pd = w.path_dict()
    through = [e for e, p in sorted(pd.items()) if cone_v in p]
    if not through:
        raise ValueError("cone vertex does not lie on the witness")
    if cone_v in bv:
        a = bv.index(cone_v)
        rest = [i for i in range(len(bv)) if i != a]
        if w.kind == "K5":
            idx, order = 1, rest
        else:  # side mates of a first, then the far side
            idx, order = 3, sorted(rest, key=lambda i: (i < 3) != (a < 3))
    else:
        e1, e2 = through[0]
        rest = [i for i in range(len(bv)) if i not in (e1, e2)]
        if w.kind == "K5":
            idx, order = 2, [e1, e2, *rest]
        else:  # each end of the split path leads its own side
            idx, order = 4, [e1, *rest[:2], e2, *rest[2:]]
    m = {pi: t for t, pi in enumerate(order)}
    bsets = {m[pi]: {bv[pi]} for pi in sorted(m)}
    conn: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, j), p in sorted(pd.items()):
        if cone_v in p:
            k = p.index(cone_v)
            for end, half in ((i, p[:k]), (j, p[k + 1 :])):
                if end in m:
                    bsets[m[end]].update(half)
            continue
        lo, hi = sorted((m[i], m[j]))
        bsets[lo].update(p[1:-1])
        conn[(lo, hi)] = norm_edge(*(p[-2:] if m[j] == hi else p[:2]))
    model = MarkedMinorModel(
        {t: frozenset(s) for t, s in bsets.items()}, conn, g.marked
    )
    ok, errs = verify_marked_model(g, theta(idx), model)
    assert ok, errs
    return ThetaWitness(idx, model)


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
    and a maximal star at y yields a separator certificate.  Otherwise a
    rooted minor search settles it.  For n >= 2, K_{2,n} is 2-connected,
    so on a host with several blocks its absence is settled block by
    block, with x and y moved onto each block.  For n >= 3 its cone
    K_{3,n} is non-planar, so a planar cone over the marks settles it at
    once.  Only when neither applies is the whole host searched
    exhaustively.
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


def _peel(
    g: MarkedGraph,
    find: Callable[[MarkedGraph], ThetaWitness | None],
    keep: frozenset[int] = frozenset(),
    limit: int | None = None,
) -> Iterator[ThetaWitness]:
    """Greedy extract-and-delete: find a theta, drop its support except
    keep, yield the theta, repeat.  Stops on an empty residue, when find
    gives None, or after limit thetas."""
    k, found = g.graph, 0
    while k.vertices and found != limit:
        tw = find(MarkedGraph(k, g.marked & k.vertices))
        if tw is None:
            return
        k = k.remove_vertices(tw.model.support() - keep)
        found += 1
        yield tw


# bouquet targets in search order: hub in a marked branch first, then the
# primed (unmarked hub) variants; theta1 has no unmarked vertex
_TARGETS = ((1, False), (2, False), (3, False), (4, False), (2, True), (3, True), (4, True))


def _bouquet_at(
    g: MarkedGraph, x: int, n: int, deadline: float | None
) -> tuple[PatternId, MarkedMinorModel] | None:
    """Try to grow n theta copies pairwise disjoint except at x.

    Each target (index, primed) peels its own greedy stream from the full
    graph with x pinned to the hub role and kept.  Pinning the hub
    directly makes the copies line up without any relabeling.
    """
    for i, primed in _TARGETS:
        pid = PatternId("uprime" if primed else "u", i, n)
        block, (hub,), _ = copies(pid)

        def find(sub: MarkedGraph) -> ThetaWitness | None:
            r = settled(find_marked_minor(sub, block, time_left(deadline), {hub: x}))
            return ThetaWitness(i, r.model) if r.found else None

        models = [tw.model for tw in _peel(g, find, frozenset([x]), n)]
        if len(models) == n:
            return pid, glue_models(pid, models, g.marked)
    return None


def _free_theta(g: MarkedGraph, deadline: float | None) -> ThetaWitness | None:
    """Extract one theta anywhere in (g, marked), or None.

    Planar g decodes its theta from the cone probe; otherwise the four
    patterns are searched exhaustively.
    """
    if is_planar(g.graph):
        probe = _cone_probe(g)
        return probe if isinstance(probe, ThetaWitness) else None
    for i in (1, 2, 3, 4):
        r = settled(find_marked_minor(g, theta(i), timeout=time_left(deadline)))
        if r.found:
            return ThetaWitness(i, r.model)
    return None


def su_obstruction(
    g: MarkedGraph, genus_budget: int, n: int, timeout: float | None = None
) -> SuResult:
    """Staged search for a level-n obstruction against coning within budget.

    If the cone is within the budget, stop with a certificate.  Otherwise
    peel the greedy stream of free thetas (extract one, delete its
    support, repeat) once.  n thetas of one index in the stream give an
    omega-theta packing.  Failing that, walk the residues the stream
    leaves, starting with g itself: try a bouquet of thetas through each
    critical vertex, then a double star over each critical pair, then
    move on to the next residue, which yields a certificate once it cones
    within the budget.  Past the last residue the search is exhausted.
    Every witness is re-verified in the input graph before it is returned.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if genus_budget < 0:
        raise ValueError("genus budget must be >= 0")
    deadline = deadline_after(timeout)

    def nice(h: Graph) -> bool:
        ch, _ = cone(h, g.marked & h.vertices)
        left = time_left(deadline)
        if genus_budget == 0:  # genus 0 means planar
            return is_planar(ch)
        return settled(min_genus(ch, genus_budget, timeout=left)).status == "ok"

    def witness(pid: PatternId, model: MarkedMinorModel) -> SuResult:
        ok, errs = verify_marked_model(g, build_pattern(pid), model)
        assert ok, errs
        return SuResult("witness", kind=pid, model=model, removed=tuple(removed))

    def stop(status: str, detail: str) -> SuResult:
        return SuResult(status, residue=h.vertices, removed=tuple(removed), detail=detail)

    def certificate() -> SuResult:
        counts = dict(sorted(Counter(tw.index for tw in stream[: len(removed)]).items()))
        return stop(
            "certificate",
            f"residue cones within budget {genus_budget}; banked theta counts {counts}",
        )

    h = g.graph
    removed: list[frozenset[int]] = []
    stream: list[ThetaWitness] = []
    try:
        if nice(h):
            return certificate()
        for tw in _peel(g, lambda sub: _free_theta(sub, deadline)):
            stream.append(tw)
            same = [t.model for t in stream if t.index == tw.index]
            if len(same) == n:
                pid = PatternId("omega-theta", tw.index, n)
                return witness(pid, glue_models(pid, same, g.marked))
        for tw in [*stream, None]:
            cur = MarkedGraph(h, g.marked & h.vertices)
            crits = [x for x in h.sorted_vertices() if nice(h.remove_vertices([x]))]
            for x in crits:
                hit = _bouquet_at(cur, x, n, deadline)
                if hit is not None:
                    return witness(*hit)
            for x, y in combinations(crits, 2):
                ds = settled(double_star_search(cur, x, y, n, timeout=time_left(deadline)))
                if ds.found:
                    return witness(PatternId("u", 5, n), ds.model)
            if tw is None:
                return stop("exhausted", "residue exceeds the budget but no pattern was found")
            removed.append(tw.model.support())
            h = h.remove_vertices(removed[-1])
            if nice(h):
                return certificate()
    except SearchTimeout:
        return stop("timeout", "search deadline passed")
