"""Obstruction pattern catalog.

Eight sigma families (genus-unbounded obstructions assembled from
complete and complete-bipartite blocks), four marked theta patterns
(minimal non-cone-planar marked graphs), the u bouquet patterns (theta
copies glued at a shared vertex) and their disjoint omega variants, plus
the small auxiliary families used by the dichotomy engines.

Every pattern glued from copies of one block has a fixed deterministic
id layout, exposed through copies(pid), which build_pattern, glue_models
and the sigma conversion all read.  convert_to_sigma rebuilds a sigma
witness from any valid marked model of a u/omega-theta pattern inside a
cone.  One recipe table, with one row per catalog conversion, says which
input branch sets (and the cone vertex) make up each sigma branch set;
the connector edges are then resolved from those branch sets in the
host.  The output model is verified before it is returned, and the same
table drives verify_catalog.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .core import Edge, Graph, MarkedGraph, complete_bipartite, complete_graph, cone, norm_edge
from .iso import are_isomorphic
from .minors import (
    MarkedMinorModel,
    MinorModel,
    _resolve_connectors,
    find_minor,
    verify_marked_model,
    verify_model,
)


@dataclass(frozen=True)
class PatternId:
    """Names one catalog pattern: family, index, truncation level.

    Families: "theta" (no level), "u", "uprime", "omega-theta", "sigma",
    and "aux" (index unused, kind names the member).
    """

    family: str
    index: int = 0
    level: int | None = None
    kind: str | None = None

    _RANGES = {
        "theta": (1, 4),
        "u": (1, 5),
        "uprime": (2, 4),
        "omega-theta": (1, 4),
        "sigma": (1, 8),
    }
    _AUX_KINDS = ("G1", "G2", "K2w", "omegaK3", "veeK3", "omegaK4", "veeK4", "omegaK23")

    def __post_init__(self):
        if self.family == "aux":
            if self.kind not in self._AUX_KINDS:
                raise ValueError(f"unknown aux kind {self.kind!r}")
        elif self.family in self._RANGES:
            lo, hi = self._RANGES[self.family]
            if not lo <= self.index <= hi:
                raise ValueError(f"{self.family} index {self.index} out of range {lo}..{hi}")
        else:
            raise ValueError(f"unknown pattern family {self.family!r}")
        if self.family == "theta":
            if self.level is not None:
                raise ValueError("theta patterns carry no level")
        elif self.level is None or self.level < 1:
            raise ValueError(f"{self.family} needs a truncation level >= 1")

    def label(self) -> str:
        if self.family == "aux":
            return f"aux:{self.kind}({self.level})"
        if self.family == "theta":
            return f"theta{self.index}"
        return f"{self.family}{self.index}({self.level})"


# shared block vertex of the theta bouquets: (theta index, primed) -> hub
_THETA_HUBS = {(1, False): 0, (2, False): 0, (3, False): 2, (4, False): 0,
               (2, True): 2, (3, True): 0, (4, True): 1}


def theta(i: int) -> MarkedGraph:
    """The four minimal marked patterns whose cone is non-planar.

    theta1 = K4 all marked; theta2 = K5 minus an edge, its endpoints
    marked; theta3 = K_{2,3} with the 3-side marked; theta4 = K33 minus
    an edge, its endpoints marked.
    """
    if i == 1:
        return MarkedGraph(complete_graph(4), frozenset({0, 1, 2, 3}))
    if i == 2:
        return MarkedGraph(complete_graph(5).remove_edges([(0, 1)]), frozenset({0, 1}))
    if i == 3:
        return MarkedGraph(complete_bipartite(2, 3), frozenset({2, 3, 4}))
    if i == 4:
        return MarkedGraph(complete_bipartite(3, 3).remove_edges([(0, 3)]), frozenset({0, 3}))
    raise ValueError(f"theta index {i} out of range 1..4")


_SIGMA_SHARED = {1: (), 2: (), 3: (0,), 4: (0,), 5: (0, 1), 6: (0, 3), 7: (0, 1)}

# block graph and shared block vertices of each auxiliary family
_AUX_BLOCKS: dict[str, tuple[Graph, tuple[int, ...]]] = {
    "omegaK3": (complete_graph(3), ()),
    "veeK3": (complete_graph(3), (0,)),
    "omegaK4": (complete_graph(4), ()),
    "veeK4": (complete_graph(4), (0,)),
    "omegaK23": (complete_bipartite(2, 3), ()),
    "G1": (complete_bipartite(2, 3), (0,)),
    "G2": (complete_bipartite(2, 3), (2,)),
}


def copies(pid: PatternId) -> tuple[Graph | MarkedGraph, tuple[int, ...], list[dict[int, int]]]:
    """The copy layout of a pattern glued from pid.level copies of one
    block: the block, the block vertices every copy shares, and one map
    per copy from block ids to pattern ids.

    Covers sigma 1..7, the u, uprime and omega-theta thetas (u5 is
    K_{2,n}) and every aux kind but K2w.  A shared vertex keeps its block
    id in every copy.  sigma's copy 0 keeps the block ids and later
    copies number their private vertices consecutively above the block;
    every other family sends block vertex b of copy j to j*|block| + b.
    """
    family, n = pid.family, pid.level
    if family == "sigma" and pid.index <= 7:
        block = complete_graph(5) if pid.index in (1, 3, 5) else complete_bipartite(3, 3)
        shared = _SIGMA_SHARED[pid.index]
        private = [b for b in range(block.n) if b not in shared]
        maps = [{b: b for b in range(block.n)}]
        for j in range(1, n):
            top = block.n + (j - 1) * len(private)
            maps.append({s: s for s in shared} | {b: top + k for k, b in enumerate(private)})
        return block, shared, maps
    if family in ("u", "uprime", "omega-theta") and pid.index <= 4:
        block = theta(pid.index)
        size = block.graph.n
        shared = () if family == "omega-theta" else (_THETA_HUBS[pid.index, family == "uprime"],)
    elif family == "aux" and pid.kind != "K2w":
        block, shared = _AUX_BLOCKS[pid.kind]
        size = block.n
    else:
        raise ValueError(f"{pid.label()} is not glued from copies of one block")
    return block, shared, [
        {b: b if b in shared else j * size + b for b in range(size)} for j in range(n)
    ]


def sigma(i: int, n: int) -> Graph:
    """Level-n truncation of the i-th obstruction family.

    1: n disjoint K5; 2: n disjoint K33; 3/4: n K5's/K33's sharing one
    vertex; 5/6: sharing one edge; 7: n K33's sharing a non-adjacent
    same-side pair; 8: K_{3,n}.
    """
    return build_pattern(PatternId("sigma", i, n))


def u_pattern(i: int, primed: bool, n: int) -> MarkedGraph:
    """Bouquet patterns: n theta(i) copies glued at one shared vertex
    (marked vertex when primed is false, unmarked when true), markings
    kept; index 5 is K_{2,n} with the n-side marked."""
    return build_pattern(PatternId("uprime" if primed else "u", i, n))


def omega_theta(i: int, n: int) -> MarkedGraph:
    """n disjoint copies of theta(i), markings kept."""
    return build_pattern(PatternId("omega-theta", i, n))


def aux_pattern(kind: str, n: int) -> Graph:
    """Small auxiliary families for the dichotomy engines: disjoint and
    bouquet unions of K3/K4/K_{2,3}, plus K_{2,n}."""
    return build_pattern(PatternId("aux", kind=kind, level=n))


@functools.lru_cache(maxsize=64)
def build_pattern(pid: PatternId) -> Graph | MarkedGraph:
    """Materialize a PatternId.  A PatternId is frozen and the graphs it
    names are immutable, so the last patterns built are kept and a
    caller that verifies every witness it returns builds each once."""
    n = pid.level
    if pid.family == "theta":
        return theta(pid.index)
    if pid.family == "sigma" and pid.index == 8:
        return complete_bipartite(3, n)
    if pid.family == "u" and pid.index == 5:
        return MarkedGraph(complete_bipartite(2, n), frozenset(range(2, n + 2)))
    if pid.family == "aux" and pid.kind == "K2w":
        return complete_bipartite(2, n)
    block, _, maps = copies(pid)
    base = block.graph if isinstance(block, MarkedGraph) else block
    glued = Graph([], [(m[u], m[v]) for m in maps for u, v in base.edges])
    if base is block:
        return glued
    return MarkedGraph(glued, frozenset(m[b] for m in maps for b in block.marked))


def glue_models(
    pid: PatternId,
    models: list[MinorModel],
    host_marked: frozenset[int] | None = None,
) -> MinorModel:
    """Assemble one model of pid's block per copy into a model of pid.

    Each copy's map from copies(pid) sends its block vertices to pattern
    vertices; branch sets landing on the same pattern vertex merge.
    Given the host marking, the result is a MarkedMinorModel carrying it.
    """
    bsets: dict[int, set[int]] = {}
    conn: dict[Edge, Edge] = {}
    for cm, mdl in zip(copies(pid)[2], models):
        for b, bs in mdl.branch_sets.items():
            bsets.setdefault(cm[b], set()).update(bs)
        for (a, b), e in mdl.connect_edges.items():
            conn[norm_edge(cm[a], cm[b])] = e
    glued = {p: frozenset(s) for p, s in bsets.items()}
    if host_marked is None:
        return MinorModel(glued, conn)
    return MarkedMinorModel(glued, conn, host_marked)


@dataclass
class ConversionResult:
    """Output of convert_to_sigma: which sigma family, at which level
    (one less than the input level for the two consuming rows), and the
    verified witness."""

    sigma_index: int
    level: int
    model: MinorModel


# One row per catalog conversion: (family, index) -> (sigma index, copies
# consumed, whether the cone is the sigma itself, recipe).  A recipe has
# one token per sigma base vertex, in id order, naming the input theta
# base vertices whose branch sets, plus the cone vertex for "v", make up
# that target branch set.  Shared sigma vertices draw from the pool: the
# consumed last copy, or else every copy (so a hub id names the hub).
# Private ones draw from their own copy.  u5 has no copy layout: K_{2,n}
# under the cone is K_{3,n}.
_RECIPES: dict[tuple[str, int], tuple[int, int, bool, str]] = {
    ("u", 1): (5, 0, True, "0 v 1 2 3"),
    ("u", 2): (3, 0, False, "v0 1 2 3 4"),
    ("uprime", 2): (6, 1, False, "v 3 4 02 0 1"),
    ("u", 3): (6, 0, True, "v 0 1 2 3 4"),
    ("uprime", 3): (7, 0, True, "0 v 1 2 3 4"),
    ("u", 4): (4, 0, False, "v0 1 2 3 4 5"),
    ("uprime", 4): (6, 1, False, "v 4 5 13 0 23"),
    ("u", 5): (8, 0, True, ""),
    ("omega-theta", 1): (3, 0, True, "v 0 1 2 3"),
    ("omega-theta", 2): (3, 0, False, "v0 1 2 3 4"),
    ("omega-theta", 3): (4, 0, True, "v 0 1 2 3 4"),
    ("omega-theta", 4): (4, 0, False, "v0 1 2 3 4 5"),
}


def _target_sets(
    pid: PatternId, bs: dict[int, frozenset[int]], cone_v: int
) -> tuple[int, int, dict[int, frozenset[int]]]:
    """Sigma index, output level and target branch sets for pid's row."""
    j, consumed, _, recipe = _RECIPES[(pid.family, pid.index)]
    n = pid.level
    if j == 8:
        legs = {3 + k: bs[2 + k] for k in range(n)}
        return 8, n, {0: bs[0], 1: bs[1], 2: frozenset({cone_v}), **legs}
    if n <= consumed:
        raise ValueError("this conversion consumes one copy; need level >= 2")
    maps = copies(pid)[2]
    _, shared, smaps = copies(PatternId("sigma", j, n - consumed))

    def union(token: str, group: list[dict[int, int]]) -> frozenset[int]:
        out = {cone_v} if "v" in token else set()
        for m in group:
            for b in token.replace("v", ""):
                out |= bs[m[int(b)]]
        return frozenset(out)

    tokens = recipe.split()
    pool = maps[-consumed:] if consumed else maps
    tb = {s: union(tokens[s], pool) for s in shared}
    for m, sm in zip(maps, smaps):
        tb.update({sm[t]: union(tok, [m]) for t, tok in enumerate(tokens) if t not in shared})
    return j, n - consumed, tb


def convert_to_sigma(
    g: Graph,
    cone_v: int,
    x_kind: PatternId,
    model: MinorModel,
) -> ConversionResult:
    """Rebuild a sigma witness in g from a marked model of a u or
    omega-theta pattern living in g minus the cone vertex.

    The input model must be a valid marked model of x_kind, with every
    marked pattern vertex owning a marked host vertex adjacent to
    cone_v.  The two primed rows that glue at an unmarked vertex consume
    one copy: their output level is one lower.
    """
    if (x_kind.family, x_kind.index) not in _RECIPES:
        raise ValueError(f"no sigma conversion from {x_kind.label()}")
    if cone_v not in g.vertices:
        raise ValueError(f"cone vertex {cone_v} not in the graph")
    if not isinstance(model, MarkedMinorModel):
        raise ValueError("the input model must be a marked model")
    pattern = build_pattern(x_kind)
    host = g.remove_vertices([cone_v])
    if model.support() & {cone_v}:
        raise ValueError("input model must avoid the cone vertex")
    ok, errs = verify_marked_model(MarkedGraph(host, frozenset(model.host_marked)), pattern, model)
    if not ok:
        raise ValueError("invalid input model: " + "; ".join(errs))

    j, out_level, tb = _target_sets(x_kind, model.branch_sets, cone_v)
    target = sigma(j, out_level)
    connectors = _resolve_connectors(g, target, tb)
    if connectors is None:
        raise ValueError("no host edge joins some adjacent target branch sets; "
                         "a marked branch set misses the cone vertex's neighbors")
    out = MinorModel(tb, connectors)
    ok, errs = verify_model(g, target, out)
    # a failed assembly here means the recipe itself is wrong; stop hard
    assert ok, f"conversion recipe {x_kind.label()} produced a bad model: {errs}"
    return ConversionResult(j, out_level, out)


@dataclass
class CatalogRow:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CatalogReport:
    conversions: list[CatalogRow] = field(default_factory=list)
    invariants: list[CatalogRow] = field(default_factory=list)
    incomparability: list[CatalogRow] = field(default_factory=list)

    @property
    def conversions_ok(self) -> bool:
        return all(r.ok for r in self.conversions)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.conversions + self.invariants + self.incomparability)

    def failures(self) -> list[CatalogRow]:
        return [r for r in self.conversions + self.invariants + self.incomparability if not r.ok]


def _identity_model(pattern: MarkedGraph) -> MarkedMinorModel:
    return MarkedMinorModel(
        {p: frozenset({p}) for p in pattern.graph.vertices},
        {e: e for e in pattern.graph.edges},
        pattern.marked,
    )


def verify_catalog(
    n: int, minor_timeout: float = 60.0, incomparability: bool = True
) -> CatalogReport:
    """Machine check of the whole catalog at truncation level n:
    conversion rows (cone of each u/omega-theta pattern carries the
    tabulated sigma), structural invariants, and pairwise sigma
    incomparability at level 2 by exhaustive minor search.  The
    incomparability sweep is the expensive part and always runs at
    level 2; pass incomparability=False to skip it."""
    if n < 2:
        raise ValueError("catalog checks need level >= 2")
    rep = CatalogReport()

    for (family, index), (_, _, expect_iso, _) in _RECIPES.items():
        pid = PatternId(family, index, n)
        name = f"cone({pid.label()})"
        try:
            pattern = build_pattern(pid)
            coned, apex = cone(pattern.graph, pattern.marked)
            res = convert_to_sigma(coned, apex, pid, _identity_model(pattern))
            detail = f"sigma{res.sigma_index}({res.level})"
            ok = True
            if expect_iso:
                target = sigma(res.sigma_index, res.level)
                if coned.n != target.n or coned.m != target.m or not are_isomorphic(coned, target):
                    ok = False
                    detail += " expected isomorphism, none found"
            rep.conversions.append(CatalogRow(name, ok, detail))
        except (ValueError, AssertionError) as exc:
            rep.conversions.append(CatalogRow(name, False, str(exc)))

    for i in range(1, 9):
        small, big = sigma(i, n), sigma(i, n + 1)
        ok = small.edges <= big.edges and small.vertices <= big.vertices
        rep.invariants.append(CatalogRow(f"sigma{i}({n}) grows into sigma{i}({n + 1})", ok))
    from .embeddings import planarity

    for i in range(1, 5):
        t = theta(i)
        coned, _ = cone(t.graph, t.marked)
        res = planarity(coned)
        want = "K5" if i <= 2 else "K33"
        ok = (not res.planar) and res.witness.kind == want
        rep.invariants.append(
            CatalogRow(f"cone(theta{i}) carries {want}", ok, "" if ok else f"got {res}")
        )

    if incomparability:
        for i in range(1, 9):
            for j in range(1, 9):
                if i == j:
                    continue
                r = find_minor(sigma(j, 2), sigma(i, 2), timeout=minor_timeout)
                ok = r.status == "absent"
                rep.incomparability.append(
                    CatalogRow(f"sigma{i}(2) not a minor of sigma{j}(2)", ok, r.status)
                )
    return rep
