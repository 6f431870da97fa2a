"""Obstruction pattern catalog.

Eight sigma families (genus-unbounded obstructions assembled from
complete and complete-bipartite blocks), four marked theta patterns
(minimal non-cone-planar marked graphs), the u bouquet patterns (theta
copies glued at a shared vertex) and their disjoint omega variants, plus
the small auxiliary families used by the dichotomy engines.

Every generator uses a fixed deterministic id layout, exposed through
the *_copies helpers so converters and tests can address individual
copies.  convert_to_sigma rebuilds a sigma witness from any valid marked
model of a u/omega-theta pattern inside a cone, one assembly recipe per
catalog row; the output model is verified before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Edge, Graph, MarkedGraph, complete_bipartite, complete_graph, cone, norm_edge
from .iso import are_isomorphic
from .minors import MarkedMinorModel, MinorModel, find_minor, verify_marked_model, verify_model


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


# base block sizes and hub choices for the theta-derived bouquets
_THETA_SIZE = {1: 4, 2: 5, 3: 5, 4: 6}
_HUB_PLAIN = {1: 0, 2: 0, 3: 2, 4: 0}
_HUB_PRIMED = {2: 2, 3: 0, 4: 1}


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


def _sigma_base(i: int) -> Graph:
    return complete_graph(5) if i in (1, 3, 5) else complete_bipartite(3, 3)


def sigma_copies(i: int, n: int) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """Per-copy vertex maps for sigma(i, n), i in 1..7.

    Copy 0 keeps base ids; later copies renumber their private vertices
    consecutively above the base block.  The shared ids come first.
    """
    if not 1 <= i <= 7:
        raise ValueError("sigma_copies covers indices 1..7")
    if n < 1:
        raise ValueError("level must be >= 1")
    shared = _SIGMA_SHARED[i]
    size = _sigma_base(i).n
    private = [b for b in range(size) if b not in shared]
    maps = []
    for j in range(n):
        if j == 0:
            maps.append({b: b for b in range(size)})
        else:
            m = {s: s for s in shared}
            for slot, b in enumerate(private):
                m[b] = size + (j - 1) * len(private) + slot
            maps.append(m)
    return shared, maps


def sigma(i: int, n: int) -> Graph:
    """Level-n truncation of the i-th obstruction family.

    1: n disjoint K5; 2: n disjoint K33; 3/4: n K5's/K33's sharing one
    vertex; 5/6: sharing one edge; 7: n K33's sharing a non-adjacent
    same-side pair; 8: K_{3,n}.
    """
    if i == 8:
        if n < 1:
            raise ValueError("level must be >= 1")
        return complete_bipartite(3, n)
    base = _sigma_base(i)
    _, maps = sigma_copies(i, n)
    edges = [(m[u], m[v]) for m in maps for u, v in base.edges]
    return Graph([], edges)


def u_copies(i: int, primed: bool, n: int) -> tuple[int, list[dict[int, int]]]:
    """Hub id and per-copy maps (theta base id -> pattern id) for the
    bouquet patterns."""
    hub = (_HUB_PRIMED if primed else _HUB_PLAIN).get(i)
    if hub is None:
        raise ValueError(f"no {'primed ' if primed else ''}bouquet for theta index {i}")
    size = _THETA_SIZE[i]
    maps = []
    for j in range(n):
        m = {b: (hub if b == hub else j * size + b) for b in range(size)}
        maps.append(m)
    return hub, maps


def u_pattern(i: int, primed: bool, n: int) -> MarkedGraph:
    """Bouquet patterns: n theta(i) copies glued at one shared vertex
    (marked vertex when primed is false, unmarked when true), markings
    kept; index 5 is K_{2,n} with the n-side marked."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if i == 5:
        if primed:
            raise ValueError("index 5 has no primed variant")
        g = complete_bipartite(2, n)
        return MarkedGraph(g, frozenset(range(2, n + 2)))
    if i == 1 and primed:
        raise ValueError("every vertex of theta1 is marked; no primed variant")
    base = theta(i)
    _, maps = u_copies(i, primed, n)
    edges = [(m[u], m[v]) for m in maps for u, v in base.graph.edges]
    marked = {m[b] for m in maps for b in base.marked}
    return MarkedGraph(Graph([], edges), frozenset(marked))


def omega_theta_copies(i: int, n: int) -> list[dict[int, int]]:
    size = _THETA_SIZE[i]
    return [{b: j * size + b for b in range(size)} for j in range(n)]


def omega_theta(i: int, n: int) -> MarkedGraph:
    """n disjoint copies of theta(i), markings kept."""
    if n < 1:
        raise ValueError("level must be >= 1")
    base = theta(i)
    maps = omega_theta_copies(i, n)
    edges = [(m[u], m[v]) for m in maps for u, v in base.graph.edges]
    marked = {m[b] for m in maps for b in base.marked}
    return MarkedGraph(Graph([], edges), frozenset(marked))


# block graph and optional glue vertex for each auxiliary family
_AUX_BLOCKS: dict[str, tuple[Graph, int | None]] = {
    "omegaK3": (complete_graph(3), None),
    "veeK3": (complete_graph(3), 0),
    "omegaK4": (complete_graph(4), None),
    "veeK4": (complete_graph(4), 0),
    "omegaK23": (complete_bipartite(2, 3), None),
    "G1": (complete_bipartite(2, 3), 0),
    "G2": (complete_bipartite(2, 3), 2),
}


def aux_block(kind: str) -> tuple[Graph, int | None]:
    """Block graph and glue vertex (None for a disjoint family) of an
    auxiliary family built from copies; K2w is built directly."""
    if kind not in _AUX_BLOCKS:
        raise ValueError(f"no copy layout for aux kind {kind!r}")
    return _AUX_BLOCKS[kind]


def aux_copies(kind: str, n: int) -> list[dict[int, int]]:
    """Per-copy vertex maps matching aux_pattern's layout.

    The glue vertex keeps its base id in every copy; private vertices of
    copy j move to j*size + b.
    """
    base, hub = aux_block(kind)
    if n < 1:
        raise ValueError("level must be >= 1")
    size = base.n
    maps = []
    for j in range(n):
        m = {}
        for b in range(size):
            m[b] = b if (hub is not None and b == hub) else j * size + b
        maps.append(m)
    return maps


def aux_pattern(kind: str, n: int) -> Graph:
    """Small auxiliary families for the dichotomy engines: disjoint and
    bouquet unions of K3/K4/K_{2,3}, plus K_{2,n}."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if kind == "K2w":
        return complete_bipartite(2, n)
    base, _ = aux_block(kind)
    edges = []
    for m in aux_copies(kind, n):
        edges += [(m[u], m[v]) for u, v in base.edges]
    return Graph([], edges)


def build_pattern(pid: PatternId) -> Graph | MarkedGraph:
    """Materialize a PatternId."""
    if pid.family == "sigma":
        return sigma(pid.index, pid.level)
    if pid.family == "theta":
        return theta(pid.index)
    if pid.family == "u":
        return u_pattern(pid.index, False, pid.level)
    if pid.family == "uprime":
        return u_pattern(pid.index, True, pid.level)
    if pid.family == "omega-theta":
        return omega_theta(pid.index, pid.level)
    return aux_pattern(pid.kind, pid.level)


@dataclass
class ConversionResult:
    """Output of convert_to_sigma: which sigma family, at which level
    (one less than the input level for the two consuming rows), and the
    verified witness."""

    sigma_index: int
    level: int
    model: MinorModel


# conversion table: (family, index) -> (sigma index, level offset)
_CONVERSIONS = {
    ("u", 1): (5, 0),
    ("u", 2): (3, 0),
    ("uprime", 2): (6, 1),
    ("u", 3): (6, 0),
    ("uprime", 3): (7, 0),
    ("u", 4): (4, 0),
    ("uprime", 4): (6, 1),
    ("u", 5): (8, 0),
    ("omega-theta", 1): (3, 0),
    ("omega-theta", 2): (3, 0),
    ("omega-theta", 3): (4, 0),
    ("omega-theta", 4): (4, 0),
}


class _Assembler:
    """Shared plumbing for the per-row conversion recipes."""

    def __init__(self, g: Graph, cone_v: int, model: MinorModel, host_marked: frozenset[int]):
        self.g = g
        self.v1 = cone_v
        self.model = model
        self.marked = host_marked
        self.cone_nbrs = set(g.neighbors(cone_v))
        self.tb: dict[int, frozenset[int]] = {}
        self.tc: dict[Edge, Edge] = {}

    def bs(self, p: int) -> frozenset[int]:
        return self.model.branch_sets[p]

    def mrep(self, p: int) -> int:
        """A marked host vertex adjacent to the cone vertex inside p's
        branch set; its existence is part of the input contract."""
        cands = sorted(self.bs(p) & self.marked & self.cone_nbrs)
        if not cands:
            raise ValueError(f"branch set of pattern vertex {p} has no marked cone neighbor")
        return cands[0]

    def conn(self, p: int, q: int) -> Edge:
        return self.model.connect_edges[norm_edge(p, q)]

    def put(self, t: int, vs) -> None:
        self.tb[t] = frozenset(vs)

    def cone_edge(self, t_u: int, t_v: int, p: int) -> None:
        self.tc[norm_edge(t_u, t_v)] = norm_edge(self.v1, self.mrep(p))

    def model_edge(self, t_u: int, t_v: int, p: int, q: int) -> None:
        self.tc[norm_edge(t_u, t_v)] = self.conn(p, q)


def _convert(a: _Assembler, family: str, index: int, n: int) -> tuple[int, int]:
    """Fill a.tb/a.tc per the catalog row; returns (sigma index, out level)."""
    v1 = a.v1
    if family == "u" and index == 5:
        # K_{2,n} plus cone vertex is K_{3,n}
        a.put(0, a.bs(0))
        a.put(1, a.bs(1))
        a.put(2, {v1})
        for j in range(n):
            leg = 2 + j
            a.put(3 + j, a.bs(leg))
            a.model_edge(0, 3 + j, 0, leg)
            a.model_edge(1, 3 + j, 1, leg)
            a.cone_edge(2, 3 + j, leg)
        return 8, n

    if family == "omega-theta":
        if index == 1:
            _, smaps = sigma_copies(3, n)
            cmaps = omega_theta_copies(1, n)
            a.put(0, {v1})
            for j in range(n):
                s, c = smaps[j], cmaps[j]
                for k in range(4):
                    a.put(s[k + 1], a.bs(c[k]))
                    a.cone_edge(0, s[k + 1], c[k])
                    for k2 in range(k + 1, 4):
                        a.model_edge(s[k + 1], s[k2 + 1], c[k], c[k2])
            return 3, n
        if index == 2:
            _, smaps = sigma_copies(3, n)
            cmaps = omega_theta_copies(2, n)
            merged = {v1}
            for c in cmaps:
                merged |= a.bs(c[0])
            a.put(0, merged)
            for j in range(n):
                s, c = smaps[j], cmaps[j]
                for k in range(1, 5):
                    a.put(s[k], a.bs(c[k]))
                a.cone_edge(0, s[1], c[1])
                for k in range(2, 5):
                    a.model_edge(0, s[k], c[0], c[k])
                for k in range(1, 5):
                    for k2 in range(k + 1, 5):
                        a.model_edge(s[k], s[k2], c[k], c[k2])
            return 3, n
        if index == 3:
            _, smaps = sigma_copies(4, n)
            cmaps = omega_theta_copies(3, n)
            a.put(0, {v1})
            for j in range(n):
                s, c = smaps[j], cmaps[j]
                a.put(s[1], a.bs(c[0]))
                a.put(s[2], a.bs(c[1]))
                for k in range(3):
                    a.put(s[3 + k], a.bs(c[2 + k]))
                    a.cone_edge(0, s[3 + k], c[2 + k])
                    a.model_edge(s[1], s[3 + k], c[0], c[2 + k])
                    a.model_edge(s[2], s[3 + k], c[1], c[2 + k])
            return 4, n
        if index == 4:
            _, smaps = sigma_copies(4, n)
            cmaps = omega_theta_copies(4, n)
            merged = {v1}
            for c in cmaps:
                merged |= a.bs(c[0])
            a.put(0, merged)
            for j in range(n):
                s, c = smaps[j], cmaps[j]
                for b in (1, 2, 3, 4, 5):
                    a.put(s[b], a.bs(c[b]))
                a.cone_edge(0, s[3], c[3])
                a.model_edge(0, s[4], c[0], c[4])
                a.model_edge(0, s[5], c[0], c[5])
                for b in (1, 2):
                    for b2 in (3, 4, 5):
                        a.model_edge(s[b], s[b2], c[b], c[b2])
            return 4, n

    hub, cmaps = u_copies(index, family == "uprime", n)
    if (family, index) == ("u", 1):
        _, smaps = sigma_copies(5, n)
        a.put(0, a.bs(hub))
        a.put(1, {v1})
        a.tc[norm_edge(0, 1)] = norm_edge(v1, a.mrep(hub))
        for j in range(n):
            s, c = smaps[j], cmaps[j]
            for k in (1, 2, 3):
                a.put(s[k + 1], a.bs(c[k]))
                a.model_edge(0, s[k + 1], hub, c[k])
                a.cone_edge(1, s[k + 1], c[k])
                for k2 in range(k + 1, 4):
                    a.model_edge(s[k + 1], s[k2 + 1], c[k], c[k2])
        return 5, n

    if (family, index) == ("u", 2):
        _, smaps = sigma_copies(3, n)
        a.put(0, a.bs(hub) | {v1})
        for j in range(n):
            s, c = smaps[j], cmaps[j]
            for k in (1, 2, 3, 4):
                a.put(s[k], a.bs(c[k]))
            a.cone_edge(0, s[1], c[1])
            for k in (2, 3, 4):
                a.model_edge(0, s[k], hub, c[k])
            for k in (1, 2, 3, 4):
                for k2 in range(k + 1, 5):
                    a.model_edge(s[k], s[k2], c[k], c[k2])
        return 3, n

    if (family, index) == ("uprime", 2):
        if n < 2:
            raise ValueError("this conversion consumes one copy; need level >= 2")
        _, smaps = sigma_copies(6, n - 1)
        last = cmaps[-1]
        a.put(0, {v1})
        a.put(3, a.bs(hub) | a.bs(last[0]))
        a.tc[norm_edge(0, 3)] = norm_edge(v1, a.mrep(last[0]))
        for j in range(n - 1):
            s, c = smaps[j], cmaps[j]
            a.put(s[1], a.bs(c[3]))
            a.put(s[2], a.bs(c[4]))
            a.put(s[4], a.bs(c[0]))
            a.put(s[5], a.bs(c[1]))
            a.cone_edge(0, s[4], c[0])
            a.cone_edge(0, s[5], c[1])
            a.model_edge(s[1], 3, c[3], hub)
            a.model_edge(s[2], 3, c[4], hub)
            a.model_edge(s[1], s[4], c[3], c[0])
            a.model_edge(s[1], s[5], c[3], c[1])
            a.model_edge(s[2], s[4], c[4], c[0])
            a.model_edge(s[2], s[5], c[4], c[1])
        return 6, n - 1

    if (family, index) == ("u", 3):
        _, smaps = sigma_copies(6, n)
        a.put(0, {v1})
        a.put(3, a.bs(hub))
        a.tc[norm_edge(0, 3)] = norm_edge(v1, a.mrep(hub))
        for j in range(n):
            s, c = smaps[j], cmaps[j]
            a.put(s[1], a.bs(c[0]))
            a.put(s[2], a.bs(c[1]))
            a.put(s[4], a.bs(c[3]))
            a.put(s[5], a.bs(c[4]))
            a.cone_edge(0, s[4], c[3])
            a.cone_edge(0, s[5], c[4])
            a.model_edge(s[1], 3, c[0], hub)
            a.model_edge(s[2], 3, c[1], hub)
            a.model_edge(s[1], s[4], c[0], c[3])
            a.model_edge(s[1], s[5], c[0], c[4])
            a.model_edge(s[2], s[4], c[1], c[3])
            a.model_edge(s[2], s[5], c[1], c[4])
        return 6, n

    if (family, index) == ("uprime", 3):
        _, smaps = sigma_copies(7, n)
        a.put(0, a.bs(hub))
        a.put(1, {v1})
        for j in range(n):
            s, c = smaps[j], cmaps[j]
            a.put(s[2], a.bs(c[1]))
            for k in range(3):
                a.put(s[3 + k], a.bs(c[2 + k]))
                a.model_edge(0, s[3 + k], hub, c[2 + k])
                a.cone_edge(1, s[3 + k], c[2 + k])
                a.model_edge(s[2], s[3 + k], c[1], c[2 + k])
        return 7, n

    if (family, index) == ("u", 4):
        _, smaps = sigma_copies(4, n)
        a.put(0, a.bs(hub) | {v1})
        for j in range(n):
            s, c = smaps[j], cmaps[j]
            for b in (1, 2, 3, 4, 5):
                a.put(s[b], a.bs(c[b]))
            a.cone_edge(0, s[3], c[3])
            a.model_edge(0, s[4], hub, c[4])
            a.model_edge(0, s[5], hub, c[5])
            for b in (1, 2):
                for b2 in (3, 4, 5):
                    a.model_edge(s[b], s[b2], c[b], c[b2])
        return 4, n

    if (family, index) == ("uprime", 4):
        if n < 2:
            raise ValueError("this conversion consumes one copy; need level >= 2")
        _, smaps = sigma_copies(6, n - 1)
        last = cmaps[-1]
        a.put(0, {v1})
        a.put(3, a.bs(hub) | a.bs(last[3]))
        a.tc[norm_edge(0, 3)] = norm_edge(v1, a.mrep(last[3]))
        for j in range(n - 1):
            s, c = smaps[j], cmaps[j]
            a.put(s[1], a.bs(c[4]))
            a.put(s[2], a.bs(c[5]))
            a.put(s[4], a.bs(c[0]))
            a.put(s[5], a.bs(c[3]) | a.bs(c[2]))
            a.cone_edge(0, s[4], c[0])
            a.cone_edge(0, s[5], c[3])
            a.model_edge(s[1], 3, c[4], hub)
            a.model_edge(s[2], 3, c[5], hub)
            a.model_edge(s[1], s[4], c[4], c[0])
            a.model_edge(s[2], s[4], c[5], c[0])
            a.model_edge(s[1], s[5], c[4], c[2])
            a.model_edge(s[2], s[5], c[5], c[2])
        return 6, n - 1

    raise ValueError(f"no conversion recipe for {family}{index}")


def convert_to_sigma(
    g: Graph,
    cone_v: int,
    x_kind: PatternId,
    model: MinorModel,
    host_marked: frozenset[int] | None = None,
) -> ConversionResult:
    """Rebuild a sigma witness in g from a marked model of a u or
    omega-theta pattern living in g minus the cone vertex.

    The input model must be a valid marked model of x_kind, with every
    marked pattern vertex owning a marked host vertex adjacent to
    cone_v.  The two primed rows that glue at an unmarked vertex consume
    one copy: their output level is one lower.
    """
    if x_kind.family not in ("u", "uprime", "omega-theta"):
        raise ValueError(f"no sigma conversion from family {x_kind.family!r}")
    if cone_v not in g.vertices:
        raise ValueError(f"cone vertex {cone_v} not in the graph")
    if host_marked is None:
        if not isinstance(model, MarkedMinorModel):
            raise ValueError("need host_marked for a plain model")
        host_marked = model.host_marked
    n = x_kind.level
    pattern = build_pattern(x_kind)
    host = g.remove_vertices([cone_v])
    if model.support() & {cone_v}:
        raise ValueError("input model must avoid the cone vertex")
    ok, errs = verify_marked_model(MarkedGraph(host, frozenset(host_marked)), pattern, model)
    if not ok:
        raise ValueError("invalid input model: " + "; ".join(errs))

    a = _Assembler(g, cone_v, model, frozenset(host_marked))
    j, out_level = _convert(a, x_kind.family, x_kind.index, n)
    out = MinorModel(a.tb, a.tc)
    ok, errs = verify_model(g, sigma(j, out_level), out)
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


# rows of the conversion table: (x_kind builder args, expect isomorphism)
_ROWS = [
    ("u", 1, True),
    ("u", 2, False),
    ("uprime", 2, False),
    ("u", 3, True),
    ("uprime", 3, True),
    ("u", 4, False),
    ("uprime", 4, False),
    ("u", 5, True),
    ("omega-theta", 1, True),
    ("omega-theta", 2, False),
    ("omega-theta", 3, True),
    ("omega-theta", 4, False),
]


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

    for family, index, expect_iso in _ROWS:
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
