"""Serialization: edge-list text and JSON forms for graphs, rotations,
minor models, decompositions, and search structures.

Every writer sorts its output, so emitted files are bit-stable and safe
to use as golden files.
"""

from __future__ import annotations

import warnings

from .core import Graph, MarkedGraph, PathSystem, norm_edge
from .decompose import Decomposition
from .dichotomy import ClassifyReport, CombStructure, DichotomyOutcome
from .embeddings import KuratowskiWitness, RotationSystem
from .minors import MarkedMinorModel, MinorModel
from .patterns import PatternId


def _int(x, what: str) -> int:
    """Every JSON reader checks its vertices and levels here, so mistyped
    input raises ValueError, not a TypeError deep in a verifier."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _str(x, what: str) -> str:
    """Names are checked like integers, so a list where a name belongs
    raises ValueError, not a TypeError when a pattern id is hashed."""
    if not isinstance(x, str):
        raise ValueError(f"{what} must be a string, got {x!r}")
    return x


def _container(x, kind, what: str):
    """Every JSON reader checks an object or a list here before it looks
    inside, as it checks integers with _int."""
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be {'an object' if kind is dict else 'a list'}, got {x!r}")
    return x


def _ints(xs, what: str) -> tuple[int, ...]:
    return tuple(_int(x, f"each entry of {what}") for x in _container(xs, (list, tuple), what))


def parse_edge_list(text: str) -> Graph | MarkedGraph:
    """Read the text format: one "u v" per line, # comments, M lines.

    Loops are rejected with the offending line number; duplicate edges
    collapse with a warning.  A nonempty marked set yields a MarkedGraph.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    marked: set[int] = set()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "M":
                if len(parts) < 2:
                    raise ValueError("marked line needs at least one vertex")
                marked.update(int(p) for p in parts[1:])
                continue
            if len(parts) != 2:
                raise ValueError('expected "u v"')
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        if u == v:
            raise ValueError(f"line {ln}: loop at {u}")
        e = norm_edge(u, v)
        if e in seen:
            warnings.warn(f"line {ln}: duplicate edge {u} {v} collapsed")
            continue
        seen.add(e)
        edges.append(e)
    g = Graph(marked, edges)
    if marked:
        return MarkedGraph(g, frozenset(marked))
    return g


def format_edge_list(g: Graph | MarkedGraph) -> str:
    marked: frozenset[int] = frozenset()
    if isinstance(g, MarkedGraph):
        g, marked = g.graph, g.marked
    covered = {v for e in g.edges for v in e} | set(marked)
    if covered != set(g.vertices):
        raise ValueError("edge-list text cannot express isolated vertices")
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    lines += [f"M {v}" for v in sorted(marked)]
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph | MarkedGraph) -> dict:
    marked: frozenset[int] = frozenset()
    if isinstance(g, MarkedGraph):
        g, marked = g.graph, g.marked
    return {
        "vertices": sorted(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
        "marked": sorted(marked),
    }


def graph_from_json(d: dict) -> Graph | MarkedGraph:
    d = _container(d, dict, "graph")
    g = Graph(
        _ints(d.get("vertices", []), "vertices"),
        [_ints(e, "edge") for e in _container(d.get("edges", []), list, "edges")],
    )
    marked = frozenset(_ints(d.get("marked", []), "marked"))
    if marked:
        return MarkedGraph(g, marked)
    return g


def parse_graph(text: str) -> Graph | MarkedGraph:
    """Dispatch on the leading character: '{' means JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json

        return graph_from_json(json.loads(text))
    return parse_edge_list(text)


def rotation_to_json(rho: RotationSystem) -> dict:
    d = rho.as_dict()
    return {"rotation": {str(v): list(d[v]) for v in sorted(d)}}


def rotation_from_json(d: dict) -> RotationSystem:
    rotation = _container(d["rotation"], dict, "rotation")
    rot = {int(v): _ints(nbrs, f"rotation at {v}") for v, nbrs in rotation.items()}
    return RotationSystem.from_dict(rot)


def model_to_json(model: MinorModel) -> dict:
    out = {
        "branch_sets": {
            str(pv): sorted(bs) for pv, bs in sorted(model.branch_sets.items())
        },
        "edges": {
            f"{u}-{v}": list(e) for (u, v), e in sorted(model.connect_edges.items())
        },
    }
    if isinstance(model, MarkedMinorModel):
        out["host_marked"] = sorted(model.host_marked)
    return out


def model_from_json(d: dict) -> MinorModel:
    d = _container(d, dict, "minor model")
    bsets = {
        int(pv): frozenset(_ints(bs, f"branch set {pv}"))
        for pv, bs in _container(d["branch_sets"], dict, "branch_sets").items()
    }
    conn = {}
    for key, e in _container(d.get("edges", {}), dict, "edges").items():
        u, v = key.split("-")
        a, b = _ints(e, f"edge {key}")
        conn[norm_edge(int(u), int(v))] = (a, b)
    if "host_marked" in d:
        return MarkedMinorModel(bsets, conn, frozenset(_ints(d["host_marked"], "host_marked")))
    return MinorModel(bsets, conn)


def pattern_id_to_json(pid: PatternId) -> dict:
    return {
        "family": pid.family,
        "index": pid.index,
        "level": pid.level,
        "kind": pid.kind,
    }


def pattern_id_from_json(d: dict) -> PatternId:
    d = _container(d, dict, "pattern id")
    level, kind = d.get("level"), d.get("kind")
    return PatternId(
        _str(d["family"], "pattern family"),
        _int(d.get("index", 0), "pattern index"),
        None if level is None else _int(level, "pattern level"),
        None if kind is None else _str(kind, "pattern kind"),
    )


def kuratowski_to_json(w: KuratowskiWitness) -> dict:
    return {
        "kind": w.kind,
        "branch_vertices": list(w.branch_vertices),
        "paths": {f"{i}-{j}": list(p) for (i, j), p in sorted(w.paths)},
    }


def kuratowski_from_json(d: dict) -> KuratowskiWitness:
    d = _container(d, dict, "Kuratowski witness")
    paths = []
    for key, p in _container(d["paths"], dict, "paths").items():
        i, j = key.split("-")
        paths.append(((int(i), int(j)), _ints(p, f"path {key}")))
    return KuratowskiWitness(
        d["kind"], _ints(d["branch_vertices"], "branch_vertices"), tuple(sorted(paths))
    )


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "pieces": [graph_to_json(p) for p in d.pieces],
        "core": graph_to_json(d.core),
    }


def decomposition_from_json(d: dict) -> Decomposition:
    """The inverse of decomposition_to_json.  An "overlaps" key, which
    older certificates carry, is ignored: it is a function of the pieces."""
    pieces = [graph_from_json(p) for p in _container(d["pieces"], list, "pieces")]
    if any(isinstance(p, MarkedGraph) for p in pieces):
        raise ValueError("decomposition pieces carry no markings")
    return Decomposition(tuple(pieces), graph_from_json(d["core"]))


def comb_to_json(s: CombStructure) -> dict:
    return {
        "kind": s.kind,
        "paths": [list(p) for p in s.carrier.paths],
        "spines": [list(p) for p in s.spines],
        "centers": list(s.centers),
        "level": s.level,
    }


def comb_from_json(d: dict) -> CombStructure:
    d = _container(d, dict, "comb structure")
    return CombStructure(
        d["kind"],
        PathSystem(tuple(_ints(p, "path") for p in _container(d.get("paths", []), list, "paths")),
                   frozenset()),
        tuple(_ints(p, "spine") for p in _container(d.get("spines", []), list, "spines")),
        _ints(d.get("centers", []), "centers"),
        _int(d.get("level", 0), "level"),
    )


def _flaw_to_json(flaw: frozenset) -> list:
    items = sorted(flaw, key=lambda x: (isinstance(x, tuple), x))
    return [list(x) if isinstance(x, tuple) else x for x in items]


def outcome_to_json(out: DichotomyOutcome) -> dict:
    d: dict = {"tag": out.tag}
    if out.witness is not None:
        pid, model = out.witness
        d["witness"] = {
            "pattern": pattern_id_to_json(pid),
            "model": model_to_json(model),
        }
    if out.flaw is not None:
        d["flaw"] = _flaw_to_json(out.flaw)
    if out.detail:
        d["detail"] = out.detail
    return d


def report_to_json(rep: ClassifyReport) -> dict:
    return {
        "witnesses": [
            {"pattern": pattern_id_to_json(pid), "model": model_to_json(m)}
            for pid, m in rep.witnesses
        ],
        "flaw": sorted(rep.flaw) if rep.flaw is not None else None,
        "certificate": (
            decomposition_to_json(rep.certificate)
            if rep.certificate is not None
            else None
        ),
        "genus_bound": rep.bound,
        "notes": list(rep.notes),
    }
