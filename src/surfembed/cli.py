"""Command-line front end.

Exit codes: 0 for a definitive answer, 2 when a search gave out before
reaching one, 1 for usage or input errors.  Every witness a subcommand
emits can be fed back through `verify` unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import io as sio
from .core import Graph, MarkedGraph, SearchTimeout
from .decompose import decompose, genus_bound, verify_decomposition
from .dichotomy import (
    almost_outerplanar_dichotomy,
    classify,
    forest_contract_dichotomy,
    forest_edge_dichotomy,
    planar_vertex_flaws,
    star_comb,
    two_connected_structures,
    two_star_search,
    verify_comb,
)
from .embeddings import (
    BudgetExceeded,
    RotationSystem,
    genus_of_rotation,
    min_genus,
    planarity,
    verify_kuratowski,
)
from .minors import (
    find_marked_minor,
    find_minor,
    verify_marked_model,
    verify_model,
)
from .outerplanarity import NonPlanarInput, is_u_outerplanar, su_obstruction
from .patterns import PatternId, build_pattern, verify_catalog


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph | MarkedGraph:
    return sio.parse_graph(_read_text(path))


def _plain(g: Graph | MarkedGraph) -> Graph:
    return g.graph if isinstance(g, MarkedGraph) else g


def _marked(g: Graph | MarkedGraph) -> MarkedGraph:
    return g if isinstance(g, MarkedGraph) else MarkedGraph(g, frozenset())


def _marks(g: Graph | MarkedGraph) -> tuple[Graph, frozenset[int]]:
    if isinstance(g, MarkedGraph):
        return g.graph, g.marked
    return g, g.vertices


def _pattern_id(spec: str, level: int | None) -> PatternId:
    parts = spec.split(":")
    family = parts[0]
    if family == "aux":
        if len(parts) < 2:
            raise ValueError("aux patterns need a kind, e.g. aux:veeK3")
        if level is None:
            raise ValueError("aux patterns need a level (-n)")
        return PatternId("aux", kind=parts[1], level=level)
    index = int(parts[1]) if len(parts) > 1 else 0
    if family == "theta":
        return PatternId(family, index)
    if level is None:
        raise ValueError(f"{family} patterns need a level (-n)")
    return PatternId(family, index, level)


def _load_graph_or_pattern(token: str, level: int | None) -> Graph | MarkedGraph:
    if os.path.exists(token):
        return _load_graph(token)
    return build_pattern(_pattern_id(token, level))


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _cmd_planar(args) -> int:
    g = _plain(_load_graph(args.graph))
    res = planarity(g)
    if res.planar:
        payload = {"planar": True, "rotation": sio.rotation_to_json(res.rotation)}
        _emit(args, payload, ["planar"])
    else:
        payload = {"planar": False, "witness": sio.kuratowski_to_json(res.witness)}
        _emit(args, payload, [f"non-planar: {res.witness.kind} subdivision"])
    return 0


def _cmd_genus(args) -> int:
    g = _plain(_load_graph(args.graph))
    res = min_genus(g, args.budget, timeout=args.timeout)
    if res.status == "ok":
        payload = {
            "genus": res.genus,
            "rotation": sio.rotation_to_json(res.rotation),
        }
        _emit(args, payload, [f"genus {res.genus}"])
        return 0
    payload = {"status": res.status, "lower_bound": res.lower_bound}
    _emit(args, payload, [f"{res.status}: genus > {res.lower_bound - 1}"])
    return 2


def _cmd_minor(args) -> int:
    host = _load_graph(args.host)
    pat = _load_graph_or_pattern(args.pattern, args.level)
    if args.command == "marked-minor":
        res = find_marked_minor(_marked(host), _marked(pat), timeout=args.timeout)
    else:
        res = find_minor(_plain(host), _plain(pat), timeout=args.timeout)
    if res.found:
        payload = {"status": "found", "model": sio.model_to_json(res.model)}
        _emit(args, payload, ["found"])
        return 0
    payload = {"status": res.status}
    _emit(args, payload, [res.status])
    return 0 if res.status == "absent" else 2


def _cmd_outerplanar(args) -> int:
    base, u = _marks(_load_graph(args.graph))
    try:
        res = is_u_outerplanar(base, u)
    except NonPlanarInput as exc:
        payload = {
            "outerplanar": False,
            "planar": False,
            "witness": sio.kuratowski_to_json(exc.witness),
        }
        _emit(args, payload, ["non-planar input"])
        return 0
    if isinstance(res, RotationSystem):
        payload = {"outerplanar": True, "rotation": sio.rotation_to_json(res)}
        _emit(args, payload, ["outerplanar relative to the marks"])
        return 0
    payload = {
        "outerplanar": False,
        "theta_index": res.index,
        "model": sio.model_to_json(res.model),
    }
    _emit(args, payload, [f"obstructed by theta {res.index}"])
    return 0


def _cmd_su_obstruct(args) -> int:
    g = _marked(_load_graph(args.graph))
    res = su_obstruction(g, args.budget, args.level, timeout=args.timeout)
    payload: dict = {"status": res.status}
    if res.kind is not None:
        payload["kind"] = sio.pattern_id_to_json(res.kind)
        payload["model"] = sio.model_to_json(res.model)
    if res.status == "certificate":
        payload["residue"] = sorted(res.residue)
        payload["removed"] = [sorted(s) for s in res.removed]
    if res.detail:
        payload["detail"] = res.detail
    human = [res.status + (f": {res.kind.label()}" if res.kind else "")]
    _emit(args, payload, human)
    return 2 if res.status in ("exhausted", "timeout") else 0


def _cmd_decompose(args) -> int:
    g = _plain(_load_graph(args.graph))
    try:
        d = decompose(g, args.budget, timeout=args.timeout)
    except BudgetExceeded as exc:
        _emit(args, {"status": "exceeds-budget", "detail": str(exc)}, [str(exc)])
        return 2
    except SearchTimeout:
        detail = f"search deadline passed ({args.timeout} s)"
        _emit(args, {"status": "timeout", "detail": detail}, [detail])
        return 2
    payload = sio.decomposition_to_json(d)
    payload["genus_bound"] = genus_bound(d, budget=max(args.budget, 1))
    _emit(
        args,
        payload,
        [f"{len(d.pieces)} pieces, genus bound {payload['genus_bound']}"],
    )
    return 0


_ENGINES = {
    "forest-del": forest_edge_dichotomy,
    "forest-con": forest_contract_dichotomy,
    "outerplanar": almost_outerplanar_dichotomy,
    "planar-v": planar_vertex_flaws,
}


def _cmd_dichotomy(args) -> int:
    g = _plain(_load_graph(args.graph))
    out = _ENGINES[args.engine](g, args.level, args.flaws)
    payload = sio.outcome_to_json(out)
    _emit(args, payload, [out.tag + (f" ({out.detail})" if out.detail else "")])
    return 2 if out.tag == "budget-exhausted" else 0


def _cmd_classify(args) -> int:
    g = _plain(_load_graph(args.graph))
    rep = classify(g, args.level, args.flaws, args.budget, timeout=args.timeout)
    payload = sio.report_to_json(rep)
    human = [f"{len(rep.witnesses)} witnesses"]
    human += [f"  {pid.label()}" for pid, _ in rep.witnesses]
    human += [f"note: {note}" for note in rep.notes]
    _emit(args, payload, human)
    definitive = bool(rep.witnesses) or rep.certificate is not None
    return 0 if definitive else 2


def _cmd_pattern(args) -> int:
    g = build_pattern(_pattern_id(args.spec, args.level))
    if args.json:
        print(json.dumps(sio.graph_to_json(g), indent=2, sort_keys=True))
    else:
        sys.stdout.write(sio.format_edge_list(g))
    return 0


def _cmd_starcomb(args) -> int:
    base, u = _marks(_load_graph(args.graph))
    if args.two_connected:
        found = two_connected_structures(base, u, args.level)
    elif args.dominate is not None:
        found = two_star_search(base, u, args.level, args.dominate)
    else:
        found = star_comb(base, u, args.level)
    if found is None:
        _emit(args, {"status": "budget-exhausted"}, ["no structure found"])
        return 2
    payload = {"status": "found", "structure": sio.comb_to_json(found)}
    _emit(args, payload, [f"{found.kind} at level {found.level}"])
    return 0


def _witness_payload(path: str) -> dict:
    d = json.loads(_read_text(path))
    if not isinstance(d, dict):
        raise ValueError("witness JSON must be an object")
    return d


def _embedded_model(d: dict):
    """Accept bare models, su-obstruct output, or dichotomy witnesses."""
    if "witness" in d and isinstance(d["witness"], dict) and "model" in d["witness"]:
        inner = d["witness"]
        return inner["model"], inner.get("pattern")
    if "model" in d:
        return d["model"], d.get("kind") or d.get("pattern")
    return d, None


def _verify_pattern(args, embedded_pid) -> Graph | MarkedGraph:
    if args.pattern is not None:
        return _load_graph_or_pattern(args.pattern, args.level)
    if embedded_pid is not None:
        return build_pattern(sio.pattern_id_from_json(embedded_pid))
    raise ValueError("no pattern given and none embedded in the witness")


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    d = _witness_payload(args.witness)
    if args.kind == "minor":
        model_d, pid_d = _embedded_model(d)
        h = _plain(_verify_pattern(args, pid_d))
        ok, errs = verify_model(_plain(g), h, sio.model_from_json(model_d))
    elif args.kind == "marked-minor":
        model_d, pid_d = _embedded_model(d)
        h = _marked(_verify_pattern(args, pid_d))
        ok, errs = verify_marked_model(_marked(g), h, sio.model_from_json(model_d))
    elif args.kind == "rotation":
        # accept either a bare rotation file or a planar/genus payload
        while isinstance(d.get("rotation"), dict) and "rotation" in d["rotation"]:
            d = d["rotation"]
        rho = sio.rotation_from_json(d)
        try:  # validates rho first, through trace_faces
            genus = genus_of_rotation(_plain(g), rho)
            ok, errs = True, []
        except ValueError as exc:
            ok, errs, genus = False, [str(exc)], None
        payload = {"verified": ok, "errors": errs, "genus": genus}
        _emit(args, payload, [f"verified genus {genus}" if ok else "invalid"])
        return 0 if ok else 1
    elif args.kind == "kuratowski":
        w = sio.kuratowski_from_json(d.get("witness", d))
        errs = verify_kuratowski(_plain(g), w)
        ok = not errs
    elif args.kind == "decomposition":
        dec = sio.decomposition_from_json(d)
        ok, errs = verify_decomposition(_plain(g), dec, cap=args.cap)
    elif args.kind == "comb":
        base, u = _marks(g)
        comb = sio.comb_from_json(d.get("structure", d))
        ok, errs = verify_comb(base, u, comb)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown witness kind {args.kind!r}")
    _emit(args, {"verified": ok, "errors": errs}, ["verified" if ok else "invalid"])
    return 0 if ok else 1


def _cmd_catalog_check(args) -> int:
    rep = verify_catalog(args.level, minor_timeout=args.minor_timeout)
    rows = [
        {"section": section, "name": r.name, "ok": r.ok, "detail": r.detail}
        for section, rs in (
            ("conversions", rep.conversions),
            ("invariants", rep.invariants),
            ("incomparability", rep.incomparability),
        )
        for r in rs
    ]
    undecided = [r for r in rows if r["detail"] == "timeout"]
    failed = [r for r in rows if not r["ok"] and r["detail"] != "timeout"]
    payload = {"rows": rows, "ok": rep.all_ok, "conversions_ok": rep.conversions_ok}
    human = [f"{sum(r['ok'] for r in rows)}/{len(rows)} rows verified"]
    human += [f"FAIL {r['name']}: {r['detail']}" for r in rows if not r["ok"]]
    _emit(args, payload, human)
    if failed:
        return 1
    return 2 if undecided else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    builds a fresh namespace each time, so no state carries over."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")

    p = argparse.ArgumentParser(
        prog="surfembed",
        description="Surface embeddings, obstruction patterns, and dichotomies "
        "for finite graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("planar", parents=[common], help="planarity with witness")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_planar)

    sp = sub.add_parser("genus", parents=[common], help="minimum orientable genus")
    sp.add_argument("graph")
    sp.add_argument("--budget", type=int, required=True, help="largest genus to try")
    sp.add_argument("--timeout", type=float, default=None)
    sp.set_defaults(func=_cmd_genus)

    sp = sub.add_parser("minor", parents=[common], help="minor search")
    sp.add_argument("host")
    sp.add_argument("pattern", help="graph file or catalog spec like sigma:3")
    sp.add_argument("-n", "--level", type=int, default=None)
    sp.add_argument("--timeout", type=float, required=True)
    sp.set_defaults(func=_cmd_minor)

    sp = sub.add_parser("marked-minor", parents=[common], help="marked minor search")
    sp.add_argument("host")
    sp.add_argument("pattern")
    sp.add_argument("-n", "--level", type=int, default=None)
    sp.add_argument("--timeout", type=float, required=True)
    sp.set_defaults(func=_cmd_minor)

    sp = sub.add_parser(
        "outerplanar", parents=[common], help="relative outerplanarity"
    )
    sp.add_argument("graph", help="marked graph; unmarked means all vertices")
    sp.set_defaults(func=_cmd_outerplanar)

    sp = sub.add_parser(
        "su-obstruct", parents=[common], help="staged obstruction search"
    )
    sp.add_argument("graph")
    sp.add_argument("--budget", type=int, required=True, help="genus budget")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("--timeout", type=float, default=None)
    sp.set_defaults(func=_cmd_su_obstruct)

    sp = sub.add_parser("decompose", parents=[common], help="planar decomposition")
    sp.add_argument("graph")
    sp.add_argument("--budget", type=int, required=True, help="genus budget")
    sp.add_argument("--timeout", type=float, default=None)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("dichotomy", parents=[common], help="dichotomy engines")
    sp.add_argument("engine", choices=sorted(_ENGINES))
    sp.add_argument("graph")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("-k", "--flaws", type=int, required=True)
    sp.set_defaults(func=_cmd_dichotomy)

    sp = sub.add_parser("classify", parents=[common], help="full classification")
    sp.add_argument("graph")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("-k", "--flaws", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True, help="genus budget")
    sp.add_argument("--timeout", type=float, default=None)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("pattern", parents=[common], help="emit a catalog graph")
    sp.add_argument("spec", help="family[:index] or aux:kind, e.g. theta:2")
    sp.add_argument("-n", "--level", type=int, default=None)
    sp.set_defaults(func=_cmd_pattern)

    sp = sub.add_parser("starcomb", parents=[common], help="structure searches")
    sp.add_argument("graph", help="marked graph; unmarked means all vertices")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("-d", "--dominate", type=int, default=None,
                    help="also allow a dominating set of this size")
    sp.add_argument("--two-connected", action="store_true",
                    help="search double-stars, fans, and ladders instead")
    sp.set_defaults(func=_cmd_starcomb)

    sp = sub.add_parser("verify", parents=[common], help="re-check a witness")
    sp.add_argument(
        "kind",
        choices=["minor", "marked-minor", "rotation", "kuratowski",
                 "decomposition", "comb"],
    )
    sp.add_argument("--graph", required=True)
    sp.add_argument("--witness", required=True, help="JSON file to check")
    sp.add_argument("--pattern", default=None,
                    help="pattern file or catalog spec when not embedded")
    sp.add_argument("-n", "--level", type=int, default=None)
    sp.add_argument("--cap", type=int, default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("catalog-check", parents=[common], help="catalog sweep")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("--minor-timeout", type=float, default=60.0)
    sp.set_defaults(func=_cmd_catalog_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
