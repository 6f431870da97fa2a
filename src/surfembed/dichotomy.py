"""Dichotomy engines: each call either certifies membership in a small
perturbation of a base class (a flaw set) or returns a verified witness
pattern at the requested level.

Every engine has one shape (_dichotomy): a smallest flaw set of size at
most k if there is one, else the first pattern of a fixed list found in
the graph, else "budget-exhausted" with a note naming the flaw search
that failed.  The witness patterns, in the order tried:

- forest_edge_dichotomy: omegaK3, veeK3, K2w;
- forest_contract_dichotomy: omegaK3, veeK3;
- almost_outerplanar_dichotomy: omegaK4, omegaK23, veeK4, G1, G2, K2w;
- planar_vertex_flaws: sigma(1), sigma(2) (n disjoint K5, n disjoint K33).

K2w comes from two-terminal path packings, every other pattern from
packing copies of its block; each model is re-verified before it is
returned.

The structure searches (stars, combs, two-stars, dominating sets,
double-stars, fans, ladders) are sound by construction: every structure
is re-checked with verify_comb before it is returned, so a caller never
needs to trust the search heuristics themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from itertools import islice

import networkx as nx

from .core import (
    Graph,
    MarkedGraph,
    PathSystem,
    SearchTimeout,
    cone,
    contract,
    deadline_after,
    max_disjoint_paths,
    norm_edge,
    time_left,
)
from .decompose import Decomposition, decompose, genus_bound
from .embeddings import BudgetExceeded, is_planar
from .minors import MinorModel, glue_models, pack_bouquet, pack_disjoint, verify_model
from .outerplanarity import su_obstruction, u_star_search
from .patterns import (
    PatternId,
    aux_block,
    aux_copies,
    build_pattern,
    convert_to_sigma,
    sigma,
    sigma_copies,
)

Witness = tuple[PatternId, MinorModel]


@dataclass
class DichotomyOutcome:
    """Either a flaw set putting the graph inside the perturbed base
    class, or a witness model, or an honest give-up."""

    tag: str  # "witness" | "flaw-set" | "budget-exhausted"
    witness: Witness | None = None
    flaw: frozenset | None = None
    detail: str = ""


@dataclass
class CombStructure:
    """A marked substructure located by one of the searches.

    carrier holds the path family (teeth, legs, rungs, or center-to-mark
    paths depending on kind); spines hold the path-shaped designated
    parts, centers the designated vertices.  level is the count the
    structure is claimed to achieve; verify_comb re-checks everything.
    """

    kind: str  # star|comb|two-star|double-star|ladder|fan|dominating-set
    carrier: PathSystem
    spines: tuple[tuple[int, ...], ...] = ()
    centers: tuple[int, ...] = ()
    level: int = 0


def _is_path(g: Graph, p: tuple[int, ...]) -> bool:
    if len(p) != len(set(p)):
        return False
    if any(v not in g.vertices for v in p):
        return False
    return all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))


def verify_comb(g: Graph, u: frozenset[int], s: CombStructure) -> tuple[bool, list[str]]:
    """Re-check a CombStructure against the host from scratch."""
    paths = s.carrier.paths
    errs = [f"path {i} is empty" for i, p in enumerate(paths) if not p]
    if errs:
        return False, errs

    def path_checks(require_start=None, end_in=None, min_len=1):
        for i, p in enumerate(paths):
            if len(p) < min_len:
                errs.append(f"path {i} shorter than {min_len}")
            if not _is_path(g, p):
                errs.append(f"path {i} is not a path of the graph")
            if require_start is not None and p[0] != require_start:
                errs.append(f"path {i} does not start at {require_start}")
            if end_in is not None and p[-1] not in end_in:
                errs.append(f"path {i} does not end in the target set")

    def pairwise(shared, msg):
        for i, j in itertools.combinations(range(len(paths)), 2):
            if set(paths[i]) & set(paths[j]) != shared:
                errs.append(msg.format(i, j))

    if s.kind in ("star", "two-star"):
        if len(s.centers) != 1:
            return False, ["star needs exactly one center"]
        c = s.centers[0]
        path_checks(require_start=c, end_in=u, min_len=2 if s.kind == "star" else 3)
        pairwise({c}, "paths {},{} meet outside the center")
        if len(paths) < s.level:
            errs.append(f"only {len(paths)} paths for level {s.level}")
    elif s.kind == "comb":
        if len(s.spines) != 1:
            return False, ["comb needs exactly one spine"]
        spine = s.spines[0]
        if not _is_path(g, spine):
            errs.append("spine is not a path of the graph")
        sset = set(spine)
        for i, p in enumerate(paths):
            if not _is_path(g, p):
                errs.append(f"tooth {i} is not a path of the graph")
            if p[0] not in sset:
                errs.append(f"tooth {i} is not rooted on the spine")
            if p[-1] not in u:
                errs.append(f"tooth {i} does not end at a marked vertex")
            if set(p[1:]) & sset:
                errs.append(f"tooth {i} re-enters the spine")
        pairwise(set(), "teeth {},{} intersect")
        if len(paths) < s.level:
            errs.append(f"only {len(paths)} teeth for level {s.level}")
    elif s.kind == "double-star":
        if len(s.centers) != 2:
            return False, ["double-star needs two centers"]
        x, y = s.centers
        for i, p in enumerate(paths):
            if not _is_path(g, p):
                errs.append(f"path {i} is not a path of the graph")
            if p[0] != x or p[-1] != y:
                errs.append(f"path {i} does not run from {x} to {y}")
            if len(p) < 3:
                errs.append(f"path {i} has no interior")
            elif not set(p[1:-1]) & u:
                errs.append(f"path {i} has no marked interior vertex")
        pairwise({x, y}, "paths {},{} meet in the interior")
        if len(paths) < s.level:
            errs.append(f"only {len(paths)} paths for level {s.level}")
    elif s.kind == "ladder":
        if len(s.spines) != 2:
            return False, ["ladder needs two spines"]
        r, l = s.spines
        if not _is_path(g, r) or not _is_path(g, l):
            errs.append("a spine is not a path of the graph")
        if set(r) & set(l):
            errs.append("the spines intersect")
        body = set(r) | set(l)
        for i, p in enumerate(paths):
            if not _is_path(g, p):
                errs.append(f"rung {i} is not a path of the graph")
            if p[0] not in set(r) or p[-1] not in set(l):
                errs.append(f"rung {i} endpoints off the spines")
            if set(p[1:-1]) & body:
                errs.append(f"rung {i} passes through a spine")
        pairwise(set(), "rungs {},{} intersect")
        touched = body | {v for p in paths for v in p}
        if len(touched & u) < s.level:
            errs.append("not enough marked vertices on the ladder")
        if len(paths) < s.level:
            errs.append(f"only {len(paths)} rungs for level {s.level}")
    elif s.kind == "fan":
        if len(s.centers) != 1 or len(s.spines) != 1:
            return False, ["fan needs one apex and one spine"]
        d = s.centers[0]
        spine = s.spines[0]
        if not _is_path(g, spine):
            errs.append("spine is not a path of the graph")
        if d in spine:
            errs.append("apex lies on the spine")
        sset = set(spine)
        for i, p in enumerate(paths):
            if not _is_path(g, p):
                errs.append(f"leg {i} is not a path of the graph")
            if p[0] != d or p[-1] not in sset:
                errs.append(f"leg {i} does not run apex-to-spine")
            if set(p[1:-1]) & sset:
                errs.append(f"leg {i} passes through the spine")
        pairwise({d}, "legs {},{} meet outside the apex")
        touched = sset | {d} | {v for p in paths for v in p}
        if len(touched & u) < s.level:
            errs.append("not enough marked vertices on the fan")
        if len(paths) < s.level:
            errs.append(f"only {len(paths)} legs for level {s.level}")
    elif s.kind == "dominating-set":
        covered = set()
        for c in s.centers:
            if c not in g.vertices:
                errs.append(f"designated vertex {c} is not in the graph")
            else:
                covered |= {c} | set(g.neighbors(c))
        if not u <= covered:
            errs.append("designated vertices do not dominate the marks")
        if len(s.centers) != s.level:
            errs.append("level does not record the set size")
    else:
        return False, [f"unknown structure kind {s.kind!r}"]
    return not errs, errs


def _structure(
    g: Graph, u: frozenset[int], kind: str, paths, spines=(), centers=(), level: int = 0
) -> CombStructure:
    """Build a CombStructure and re-check it against the host."""
    s = CombStructure(kind, PathSystem(tuple(paths), frozenset()), tuple(spines),
                      tuple(centers), level)
    ok, errs = verify_comb(g, u, s)
    assert ok, errs
    return s


def _marks_in(g: Graph, u) -> frozenset[int]:
    u = frozenset(u)
    if not u <= g.vertices:
        raise ValueError("marked vertices must lie in the graph")
    return u


def _smallest_flaw(items, k: int, fixes) -> tuple | None:
    """The first subset of at most k items, by size and then in
    combinations order, on which fixes holds; None when there is none."""
    for size in range(min(k, len(items)) + 1):
        for subset in itertools.combinations(items, size):
            if fixes(subset):
                return subset
    return None


def _star_paths(g: Graph, v: int, u: frozenset[int]) -> list[tuple[int, ...]]:
    """Paths from v to u, pairwise meeting exactly at v, maximal count."""
    return [(v,) + p for p in u_star_search(MarkedGraph(g, u), v, 1).paths]


def _star_search(g: Graph, u: frozenset[int], n: int, kind: str) -> CombStructure | None:
    """The first vertex with n star paths to the marks; a two-star takes
    only paths with an interior vertex."""
    min_len = 2 if kind == "star" else 3
    for v in g.sorted_vertices():
        paths = [p for p in _star_paths(g, v, u) if len(p) >= min_len]
        if len(paths) >= n:
            return _structure(g, u, kind, paths[:n], centers=(v,), level=n)
    return None


def _bfs_tree(g: Graph, comp: frozenset[int]) -> dict[int, list[int]]:
    root = min(comp)
    adj: dict[int, list[int]] = {root: []}
    seen = {root}
    queue = [root]
    for x in queue:
        for y in sorted(g.neighbors(x)):
            if y not in seen:
                seen.add(y)
                adj.setdefault(x, []).append(y)
                adj.setdefault(y, []).append(x)
                queue.append(y)
    return adj


def _tree_walk(adj: dict[int, list[int]], start: int, goal, avoid=frozenset()):
    """The path from start to the first vertex, in BFS order, that goal
    accepts, never entering avoid; None when there is none."""
    prev = {start: start}
    queue = [start]
    for x in queue:
        if goal(x):
            path = [x]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for y in adj.get(x, []):
            if y not in prev and y not in avoid:
                prev[y] = x
                queue.append(y)
    return None


def _comb_on_spine(
    adj: dict[int, list[int]], spine: tuple[int, ...], u: frozenset[int]
) -> list[tuple[int, ...]]:
    """One tooth per spine vertex whose hanging branch reaches a mark."""
    sset = set(spine)
    teeth = (_tree_walk(adj, p, u.__contains__, sset) for p in spine)
    return [t for t in teeth if t is not None]


def _comb_search(g: Graph, u: frozenset[int], n: int) -> CombStructure | None:
    """Look for a spine with n disjoint teeth inside a spanning tree."""
    for comp in sorted(g.components(), key=min):
        if len(comp & u) < n:
            continue
        adj = _bfs_tree(g, comp)
        # a single marked vertex is a trivial comb; only useful at level 1
        singles = [(v,) for v in sorted(comp & u)] if n == 1 else []
        pairs = (_tree_walk(adj, a, b.__eq__)
                 for a, b in itertools.combinations(sorted(comp), 2))
        for spine in itertools.chain(singles, pairs):
            teeth = _comb_on_spine(adj, spine, u)
            if len(teeth) >= n:
                return _structure(g, u, "comb", teeth, spines=(spine,), level=n)
    return None


def star_comb(g: Graph, u: frozenset[int], n: int) -> CombStructure | None:
    """Find a star or a comb with n marked tips.

    The star stage is exact (per-vertex path packing); the comb stage
    scans spanning-tree spines.  On a tree with at least n*n marked
    vertices one of the two always exists.  Returns None when neither
    search succeeds; the caller treats that as budget exhaustion.
    """
    u = _marks_in(g, u)
    if n < 1:
        raise ValueError("level must be >= 1")
    return _star_search(g, u, n, "star") or _comb_search(g, u, n)


def two_star_search(g: Graph, u: frozenset[int], n: int, d: int) -> CombStructure | None:
    """Find a comb, a star with all edges subdivided, or a dominating set
    of size at most d for the marks.  Returns None when all three fail."""
    u = _marks_in(g, u)
    found = _comb_search(g, u, n) or _star_search(g, u, n, "two-star")
    if found is not None:
        return found
    w = _smallest_flaw(
        g.sorted_vertices(), d,
        lambda w: u <= set(w).union(*(g.neighbors(c) for c in w)),
    )
    if w is None:
        return None
    return _structure(g, u, "dominating-set", (), centers=w, level=len(w))


def _cycles(g: Graph, cap: int = 4000) -> list[tuple[int, ...]]:
    if g.m == 0:
        return []
    big = nx.Graph(sorted(g.edges))
    out = [tuple(c) for c in islice(nx.simple_cycles(big), cap)]
    out.sort(key=lambda c: (-len(c), c))
    return out


def _through_paths(g: Graph, x: int, y: int) -> list[tuple[int, ...]]:
    """A maximum family of internally disjoint x-y paths, each with an
    interior vertex."""
    sys = max_disjoint_paths(g, {x}, {y}, internal_only=True)
    return [p for p in sys.paths if len(p) >= 3]


def _double_star_at(
    g: Graph, u: frozenset[int], x: int, y: int, n: int
) -> CombStructure | None:
    good = [p for p in _through_paths(g, x, y) if set(p[1:-1]) & u]
    if len(good) < n:
        return None
    return _structure(g, u, "double-star", good, centers=(x, y), level=n)


def _fan_at(g: Graph, u: frozenset[int], d: int, n: int) -> CombStructure | None:
    rest = g.remove_vertices([d])
    nbrs = g.neighbors(d)
    for c in _cycles(rest, cap=2000):
        legs = [(d, v) for v in c if v in nbrs]
        marked = (set(c) | {d}) & u
        if len(legs) >= n and len(marked) >= n:
            return _structure(g, u, "fan", legs, spines=(c,), centers=(d,), level=n)
    return None


def _ladder_search(g: Graph, u: frozenset[int], n: int) -> CombStructure | None:
    cycles = [c for c in _cycles(g) if len(c) >= n]
    flow_checks = 0
    for i, c1 in enumerate(cycles):
        s1 = set(c1)
        for c2 in cycles[i + 1 :]:
            if s1 & set(c2):
                continue
            flow_checks += 1
            if flow_checks > 400:
                return None
            found = _ladder_pair(g, u, c1, c2, n)
            if found is not None:
                return found
    return None


def _ladder_pair(
    g: Graph, u: frozenset[int], c1: tuple[int, ...], c2: tuple[int, ...], n: int
) -> CombStructure | None:
    sys = max_disjoint_paths(g, set(c1), set(c2))
    body = set(c1) | set(c2)
    rungs = [
        p
        for p in sys.paths
        if p[0] in set(c1) and p[-1] in set(c2) and not set(p[1:-1]) & body
    ]
    touched = body | {v for p in rungs for v in p}
    if len(rungs) < n or len(touched & u) < n:
        return None
    return _structure(g, u, "ladder", rungs, spines=(c1, c2), level=n)


def two_connected_structures(g: Graph, u: frozenset[int], n: int) -> CombStructure | None:
    """Find a double-star, fan, or ladder carrying n marks.

    Everything returned is re-verified, so the searches can stay greedy:
    double-stars come from two-terminal path packings, fans and ladders
    from long-cycle enumeration.  None means no structure was found at
    this level, not that none exists.
    """
    u = _marks_in(g, u)
    for x, y in itertools.combinations(g.sorted_vertices(), 2):
        found = _double_star_at(g, u, x, y, n)
        if found is not None:
            return found
    for d in sorted(g.vertices, key=lambda v: (-g.degree(v), v)):
        if g.degree(d) < n:
            continue
        found = _fan_at(g, u, d, n)
        if found is not None:
            return found
    return _ladder_search(g, u, n)


# --- witness assembly -------------------------------------------------

def _pack_witness(g: Graph, pid: PatternId) -> Witness | None:
    """Pack pid.level copies of the pattern's block, disjoint or through
    its glue vertex, and glue them into a model of the pattern.  Covers
    the aux packings and the sigma families sharing at most one vertex."""
    if pid.family == "sigma":
        block = sigma(pid.index, 1)
        shared, maps = sigma_copies(pid.index, pid.level)
        hub = shared[0] if shared else None
    else:
        block, hub = aux_block(pid.kind)
        maps = aux_copies(pid.kind, pid.level)
    if hub is None:
        res = pack_disjoint(g, block, pid.level)
    else:
        res = pack_bouquet(g, block, hub, pid.level)
    if not res.complete:
        return None
    return glue_models(maps, res.models)


def _k2n_witness(g: Graph, n: int) -> MinorModel | None:
    """n internally disjoint two-terminal paths of length >= 2 give a
    K_{2,n} model with the path interiors as the n-side branch sets."""
    for x, y in itertools.combinations(g.sorted_vertices(), 2):
        mids = _through_paths(g, x, y)
        if len(mids) < n:
            continue
        bsets = {0: frozenset({x}), 1: frozenset({y})}
        conn = {}
        for idx, p in enumerate(mids[:n]):
            pv = 2 + idx
            bsets[pv] = frozenset(p[1:-1])
            conn[norm_edge(0, pv)] = norm_edge(p[0], p[1])
            conn[norm_edge(1, pv)] = norm_edge(p[-2], p[-1])
        return MinorModel(bsets, conn)
    return None


def _dichotomy(
    g: Graph, n: int, flaw, witnesses: list[PatternId], note: str
) -> DichotomyOutcome:
    """The one engine shape: the flaw set if there is one, else the first
    of the witness patterns found in g (each model re-verified), else a
    give-up carrying the note."""
    if flaw is not None:
        return DichotomyOutcome("flaw-set", flaw=frozenset(flaw))
    for pid in witnesses:
        model = _k2n_witness(g, pid.level) if pid.kind == "K2w" else _pack_witness(g, pid)
        if model is not None:
            ok, errs = verify_model(g, build_pattern(pid), model)
            assert ok, errs
            return DichotomyOutcome("witness", witness=(pid, model))
    return DichotomyOutcome("budget-exhausted", detail=f"{note}, no witness at level {n}")


def _aux(n: int, *kinds: str) -> list[PatternId]:
    return [PatternId("aux", kind=kind, level=n) for kind in kinds]


# --- the four engines -------------------------------------------------

def _spanning_forest_edges(g: Graph) -> set[tuple[int, int]]:
    """The edges of _bfs_tree on every component."""
    trees = [_bfs_tree(g, comp) for comp in g.components()]
    return {norm_edge(x, y) for adj in trees for x, ys in adj.items() for y in ys}


def forest_edge_dichotomy(g: Graph, n: int, k: int) -> DichotomyOutcome:
    """Either at most k edge deletions reach a forest, or a level-n
    witness: n disjoint triangles, n triangles on a shared vertex, or a
    K_{2,n}.  The flaw side is exact: it fires iff the cycle rank is at
    most k, and the flaw is the complement of a spanning forest."""
    flaw = None
    if g.cycle_rank() <= k:
        flaw = frozenset(g.edges - _spanning_forest_edges(g))
    return _dichotomy(g, n, flaw, _aux(n, "omegaK3", "veeK3", "K2w"),
                      f"cycle rank exceeds {k}")


def forest_contract_dichotomy(g: Graph, n: int, k: int) -> DichotomyOutcome:
    """Either at most k edge contractions reach a forest, or a level-n
    triangle witness.  The flaw side enumerates contraction sets by size,
    so a returned flaw has minimum cardinality."""
    flaw = _smallest_flaw(sorted(g.edges), k, lambda fs: contract(g, fs)[0].cycle_rank() == 0)
    return _dichotomy(g, n, flaw, _aux(n, "omegaK3", "veeK3"),
                      f"no contraction set of size <= {k}")


def _outerplanar(g: Graph) -> bool:
    """g is outerplanar exactly when the cone over all its vertices is planar."""
    return is_planar(cone(g, g.vertices)[0])


def almost_outerplanar_dichotomy(g: Graph, n: int, k: int) -> DichotomyOutcome:
    """Either at most k edge deletions reach an outerplanar graph, or a
    level-n witness from the outerplanarity obstruction families."""
    flaw = _smallest_flaw(sorted(g.edges), k, lambda fs: _outerplanar(g.remove_edges(fs)))
    witnesses = _aux(n, "omegaK4", "omegaK23", "veeK4", "G1", "G2", "K2w")
    return _dichotomy(g, n, flaw, witnesses, f"no deletion set of size <= {k}")


def planar_vertex_flaws(g: Graph, n: int, k: int) -> DichotomyOutcome:
    """Either a minimum vertex set W with g - W planar and |W| <= k, or
    n disjoint copies of K5 or K33.  The flaw side enumerates subsets by
    size, so a returned W is optimal."""
    flaw = _smallest_flaw(g.sorted_vertices(), k, lambda w: is_planar(g.remove_vertices(w)))
    witnesses = [PatternId("sigma", 1, n), PatternId("sigma", 2, n)]
    return _dichotomy(g, n, flaw, witnesses, f"no planarizing set of size <= {k}")


# --- the classifier ---------------------------------------------------

@dataclass
class ClassifyReport:
    """Everything the classifier established about one input graph."""

    witnesses: list[Witness] = field(default_factory=list)
    flaw: frozenset[int] | None = None
    certificate: Decomposition | None = None
    bound: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def obstructed(self) -> bool:
        return bool(self.witnesses)


def classify(
    g: Graph, n: int, k: int, genus_budget: int, timeout: float | None = None
) -> ClassifyReport:
    """Full pipeline: planarizing flaw search, then per-flaw-vertex
    obstruction search over the planar remainder, converting every hit
    into a catalog witness in the original graph.  When nothing
    obstructs, the report carries a decomposition certificate and the
    genus bound it implies.

    The timeout bounds the obstruction searches and the decomposition
    together; the planarizing flaw search takes none.  When it passes,
    the report keeps what was found so far and notes the deadline."""
    deadline = deadline_after(timeout)
    report = ClassifyReport()
    pv = planar_vertex_flaws(g, n, k)
    if pv.tag == "witness":
        report.witnesses.append(pv.witness)
        return report
    if pv.tag == "budget-exhausted":
        report.notes.append(pv.detail)
        return report

    report.flaw = pv.flaw
    flaw = sorted(pv.flaw)
    try:
        if not flaw:
            report.certificate = decompose(g, genus_budget, timeout=time_left(deadline))
            report.bound = genus_bound(report.certificate)
            report.notes.append("planar")
            return report

        base = g.remove_vertices(flaw)
        for v1 in flaw:
            mg = MarkedGraph(base, frozenset(g.neighbors(v1)) & base.vertices)
            su = su_obstruction(mg, genus_budget, n, timeout=time_left(deadline))
            if su.found:
                host = g.remove_vertices(set(flaw) - {v1})
                conv = convert_to_sigma(host, v1, su.kind, su.model)
                pid = PatternId("sigma", conv.sigma_index, conv.level)
                if conv.level >= n:
                    report.witnesses.append((pid, conv.model))
                else:
                    report.notes.append(
                        f"sigma({conv.sigma_index}) witness reached only level {conv.level}"
                    )
            elif su.status == "certificate":
                report.notes.append(
                    f"marked remainder at {v1} cones within genus budget {genus_budget}"
                )
            else:
                report.notes.append(f"obstruction search at {v1}: {su.detail}")
        if not report.witnesses:
            try:
                report.certificate = decompose(g, genus_budget, timeout=time_left(deadline))
                report.bound = genus_bound(report.certificate)
            except BudgetExceeded:
                report.notes.append("no decomposition within the genus budget")
    except SearchTimeout:
        report.notes.append(f"search deadline passed ({timeout} s)")
    return report
