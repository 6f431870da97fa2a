"""The three workloads: their inputs, their queries and the check of each
answer.

A workload's setup builds every input from the seed, writes the graph
files its CLI queries read, and returns the query list in an order fixed
by the seed.  Each query is run once; its answer goes to a check that
uses only the benchmark's own checkers and facts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import networkx as nx

import facts
from checkers import (
    CheckFailure,
    check_decomposition,
    check_kuratowski,
    check_minor_model,
    check_rotation,
)


class Unanswered(Exception):
    """The program gave no definitive answer where one is due (a timeout,
    an exhausted search or an error exit)."""


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # non-empty: the query fails every time because of this fault
    known_fault: str = ""


def lib(name: str):
    """A surfembed module, looked up when called so that traced wrappers
    installed on it are seen."""
    return importlib.import_module(f"surfembed.{name}")


def to_lib(g: nx.Graph):
    return lib("core").Graph(g.nodes, g.edges)


def relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    return nx.relabel_nodes(g, dict(zip(sorted(g.nodes), perm)))


def spread_out(queries: list, rng: random.Random) -> list:
    """The query list in a seeded random order.  Each kind of query is then
    spread over the whole round, so a slow spell of the machine does not
    fall on one kind only (the percentiles come mostly from the most
    numerous kind)."""
    rng.shuffle(queries)
    return queries


def write_graph(path: str, g: nx.Graph, marked=()) -> str:
    lines = [f"{u} {v}" for u, v in sorted(tuple(sorted(e)) for e in g.edges)]
    if marked:
        lines.append("M " + " ".join(str(v) for v in sorted(marked)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cli(*argv: str):
    """Run one CLI command in-process; returns (exit code, JSON payload)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib("cli").main([*argv, "--json"])
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


# -- adapters from library answers to plain data --------------------------


def model_data(model) -> tuple[dict, dict]:
    """(branch sets, connectors) of a MinorModel or its JSON form."""
    if isinstance(model, dict):
        conn = {tuple(int(x) for x in k.split("-")): e for k, e in model["edges"].items()}
        return model["branch_sets"], conn
    return model.branch_sets, model.connect_edges


def check_model(g: nx.Graph, model, pattern: nx.Graph, marked=()) -> None:
    bsets, conn = model_data(model)
    check_minor_model(g.edges, bsets, conn, pattern, marked, g.nodes)


def atlas() -> list[nx.Graph]:
    """networkx's graph atlas without the empty graph: 1252 graphs, every
    graph on 1 to 7 vertices up to isomorphism."""
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() > 0]


def grid(a: int, b: int) -> nx.Graph:
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(a, b))


def with_k5(g: nx.Graph) -> nx.Graph:
    return nx.disjoint_union(g, nx.complete_graph(5))


# -- cone-sweep ------------------------------------------------------------

CONE_QUERIES = 700


def cone_sweep(seed: int, workdir: str) -> list[Query]:
    """planarity on every atlas graph (relabelled by the seed), and
    is_u_outerplanar on a seeded sample of (host, mark set) pairs drawn
    from all 89 007 pairs over the connected planar atlas graphs."""
    rng = random.Random(seed)
    graphs = [relabel(g, rng) for g in atlas()]
    queries = [_planarity_query(f"planarity/atlas{i}", g) for i, g in enumerate(graphs)]
    hosts = [g for g in graphs if nx.is_connected(g) and nx.is_planar(g)]
    pairs = [(h, mask) for h in range(len(hosts))
             for mask in range(1, 2 ** hosts[h].number_of_nodes())]
    for h, mask in rng.sample(pairs, CONE_QUERIES):
        host = hosts[h]
        verts = sorted(host.nodes)
        marks = frozenset(v for b, v in enumerate(verts) if mask >> b & 1)
        queries.append(_cone_query(f"outerplanar/host{h}/mask{mask}", host, marks))
    return spread_out(queries, rng)


def _planarity_query(name: str, g: nx.Graph) -> Query:
    lg = to_lib(g)

    def check(res):
        if res.planar != nx.is_planar(g):
            raise CheckFailure("planarity verdict differs from networkx")
        if res.planar:
            check_rotation(g.edges, res.rotation.as_dict(), 0, g.nodes)
        else:
            w = res.witness
            check_kuratowski(g.edges, w.kind, w.branch_vertices, dict(w.paths))

    return Query(name, lambda: lib("embeddings").planarity(lg), check)


def _cone_query(name: str, g: nx.Graph, marks: frozenset) -> Query:
    lg = to_lib(g)
    coned = nx.Graph(g)
    coned.add_edges_from(("apex", v) for v in marks)

    def check(res):
        if hasattr(res, "index"):  # a theta witness
            if nx.is_planar(coned):
                raise CheckFailure("theta witness for a planar cone")
            check_model(g, res.model, facts.theta(res.index), marks)
            return
        # a rotation of the cone: the one vertex outside g is the apex
        rot = res.as_dict()
        apex = set(rot) - set(g.nodes)
        if len(apex) != 1:
            raise CheckFailure("rotation is not over the cone")
        check_rotation(nx.relabel_nodes(coned, {"apex": apex.pop()}).edges, rot, 0)

    return Query(name, lambda: lib("outerplanarity").is_u_outerplanar(lg, marks), check)


# -- certify -----------------------------------------------------------------

GENUS_TIMEOUT = "0.2"
ATLAS7_LABELLINGS = 2


def certify(seed: int, workdir: str) -> list[Query]:
    """Large certificates: Kuratowski witnesses on grids with a K5, exact
    genus through the CLI on graphs whose genus is known, and CLI
    decompose on the decomposition corpus."""
    rng = random.Random(seed)
    queries = []
    for side in (8, 12, 16):
        g = with_k5(grid(side, side))
        queries.append(_planarity_query(f"planarity/grid{side}+K5", g))
    queries.append(_planarity_query("planarity/grid25", grid(25, 25)))

    known: list[tuple[str, nx.Graph, int]] = []
    known += [(f"K{n}", nx.complete_graph(n), facts.genus_complete(n)) for n in range(5, 10)]
    known += [(f"K{a},{b}", nx.complete_bipartite_graph(a, b), facts.genus_complete_bipartite(a, b))
              for a, b in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5))]
    known += [("petersen", nx.petersen_graph(), 1), ("heawood", nx.heawood_graph(), 1),
              ("moebius-kantor", nx.LCF_graph(16, [5, -5], 8), 1)]
    # genus is additive over blocks and components: sigma1..4 at level n have genus n
    known += [(f"sigma{i}({n})", facts.sigma(i, n), n)
              for i, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (4, 2))]
    # every non-planar graph on at most 7 vertices has genus 1; each is
    # asked under ATLAS7_LABELLINGS seeded relabellings, so that enough
    # queries lie near the 90th percentile for it to be steady
    sevens = [g for g in atlas() if g.number_of_nodes() == 7 and nx.is_connected(g)
              and not nx.is_planar(g)]
    known += [(f"atlas7/{i}/{k}", relabel(g, rng), 1)
              for k in range(ATLAS7_LABELLINGS) for i, g in enumerate(sevens)]
    for label, g, genus in known:
        path = write_graph(os.path.join(workdir, f"genus-{len(queries)}.txt"), g)
        queries.append(_genus_query(f"genus/{label}", g, path, genus))

    path = write_graph(os.path.join(workdir, "sigma3-3.txt"), facts.sigma(3, 3))
    queries.append(_genus_query(
        "genus/sigma3(3)", facts.sigma(3, 3), path, 3, timeout=GENUS_TIMEOUT,
        known_fault="min_genus searches the whole graph instead of its blocks; "
                    "it times out where genus_additivity answers 3 in 0.03 s"))
    path = write_graph(os.path.join(workdir, "cycle600.txt"), nx.cycle_graph(600))
    queries.append(_genus_query(
        "genus/cycle600", nx.cycle_graph(600), path, 0,
        known_fault="the genus DFS recurses with two frames per edge and "
                    "raises RecursionError"))

    tail = [(4, 100), (100, 101), (101, 102), (100, 102)]
    k5_tail = nx.complete_graph(5)
    k5_tail.add_edges_from(tail)
    k33_tail = nx.complete_bipartite_graph(3, 3)
    k33_tail.add_edges_from([(5, 100), (100, 101)])
    corpus = [("K5", nx.complete_graph(5), 1), ("K3,3", nx.complete_bipartite_graph(3, 3), 1),
              ("sigma5(2)", facts.sigma(5, 2), 1), ("K5+tail", k5_tail, 1),
              ("K3,3+tail", k33_tail, 1),
              ("K5+C6", nx.disjoint_union(nx.complete_graph(5), nx.cycle_graph(6)), 1),
              ("K6", nx.complete_graph(6), 1), ("petersen", nx.petersen_graph(), 1),
              ("sigma3(2)", facts.sigma(3, 2), 2)]
    for label, g, lower in corpus:
        path = write_graph(os.path.join(workdir, f"decompose-{len(queries)}.txt"), g)
        queries.append(_decompose_query(f"decompose/{label}", g, path, lower))
    return spread_out(queries, rng)


def _genus_query(name, g, path, genus, timeout=None, known_fault="") -> Query:
    argv = ["genus", path, "--budget", str(genus)]
    if timeout is not None:
        argv += ["--timeout", timeout]

    def check(answer):
        code, payload = answer
        if payload is not None and payload.get("status") == "exceeds-budget":
            raise CheckFailure(f"claims genus > {genus}, the known genus")
        if code != 0 or payload is None or "rotation" not in payload:
            raise Unanswered(f"exit {code}: {payload and payload.get('status')}")
        if payload["genus"] != genus:
            raise CheckFailure(f"genus {payload['genus']}, expected {genus}")
        check_rotation(g.edges, payload["rotation"]["rotation"], genus, g.nodes)

    return Query(name, lambda: cli(*argv), check, known_fault)


def _decompose_query(name, g, path, genus_lower) -> Query:
    def check(answer):
        code, payload = answer
        if code != 0 or payload is None or "pieces" not in payload:
            raise Unanswered(f"exit {code}")
        pieces = [(p["vertices"], p["edges"]) for p in payload["pieces"]]
        check_decomposition(g.edges, pieces, g.nodes)
        if payload["genus_bound"] < genus_lower:
            raise CheckFailure(f"genus bound {payload['genus_bound']} < genus {genus_lower}")

    return Query(name, lambda: cli("decompose", path, "--budget", "3"), check)


# -- obstruct ----------------------------------------------------------------

ENGINES = ("forest_edge_dichotomy", "forest_contract_dichotomy",
           "almost_outerplanar_dichotomy", "planar_vertex_flaws")

# the base class each engine's flaw side puts a graph in, at k = 0
ENGINE_CLASS = {
    "forest_edge_dichotomy": nx.is_forest,
    "forest_contract_dichotomy": nx.is_forest,
    "almost_outerplanar_dichotomy": facts.is_outerplanar,
    "planar_vertex_flaws": nx.is_planar,
}


def obstruct(seed: int, workdir: str) -> list[Query]:
    """The obstruction pipeline: CLI classify on the sigma families, the
    four dichotomy engines on the connected 6-vertex graphs (relabelled by
    the seed), CLI su-obstruct on marked patterns, minor search found and
    absent, packings that must exhaust, and CLI catalog-check."""
    rng = random.Random(seed)
    queries = []
    for i, n in itertools.product(range(1, 9), (1, 2, 3)):
        g = facts.sigma(i, n)
        path = write_graph(os.path.join(workdir, f"sigma{i}-{n}.txt"), g)
        queries.append(_classify_query(f"classify/sigma{i}({n})", g, path, n, planar=(i == 8 and n < 3)))

    sixes = [relabel(g, rng) for g in atlas() if g.number_of_nodes() == 6 and nx.is_connected(g)]
    for j, g in enumerate(sixes):
        for engine in ENGINES:
            queries.append(_engine_query(f"{engine}/atlas6/{j}", engine, g))

    marked = [("omega-theta", i, 2) for i in range(1, 5)] + [("u", 1, 2), ("u", 3, 2), ("u", 5, 3)]
    for family, index, level in marked:
        p = facts.marked_pattern(family, index, level)
        marks = [v for v in p if p.nodes[v]["marked"]]
        path = write_graph(os.path.join(workdir, f"{family}{index}-{level}.txt"), p, marks)
        for budget in (0, 1):
            queries.append(_su_query(f"su-obstruct/{family}{index}({level})/budget{budget}",
                                     p, frozenset(marks), path, budget))

    hosts = [("petersen", nx.petersen_graph()), ("grid3x3", grid(3, 3)), ("grid3x4", grid(3, 4)),
             ("octahedron", nx.octahedral_graph()), ("wheel8", nx.wheel_graph(9))]
    for label, host in hosts:
        for pname, pattern in (("K5", facts.K5), ("K3,3", facts.K33)):
            queries.append(_minor_query(f"find_minor/{pname}-in-{label}", host, pattern))

    for pname, pattern in (("K4", nx.complete_graph(4)), ("K3,3", facts.K33)):
        queries.append(_pack_query(f"pack_disjoint/2x{pname}-in-K7", nx.complete_graph(7), pattern, 2))

    queries.append(Query("catalog-check/2", lambda: cli("catalog-check", "-n", "2"), _check_catalog))
    return spread_out(queries, rng)


def _witness_pattern(pid: dict) -> nx.Graph:
    if pid["family"] == "sigma":
        return facts.sigma(pid["index"], pid["level"])
    if pid["family"] == "aux":
        return facts.aux(pid["kind"], pid["level"])
    return facts.marked_pattern(pid["family"], pid["index"], pid["level"])


def _classify_query(name, g, path, n, planar) -> Query:
    def check(answer):
        code, payload = answer
        if code != 0 or payload is None:
            raise Unanswered(f"exit {code}")
        if planar:
            # sigma8(1) and sigma8(2) are K3,1 and K3,2: planar, so the
            # answer must be a decomposition certificate, not a witness
            if payload["witnesses"] or payload["certificate"] is None:
                raise CheckFailure("planar input without a decomposition certificate")
            pieces = [(p["vertices"], p["edges"]) for p in payload["certificate"]["pieces"]]
            check_decomposition(g.edges, pieces, g.nodes)
            return
        if not payload["witnesses"]:
            raise Unanswered("no witness")
        w = payload["witnesses"][0]
        pid = w["pattern"]
        if pid["family"] != "sigma" or pid["level"] < n:
            raise CheckFailure(f"witness {pid} is not a sigma pattern at level >= {n}")
        check_model(g, w["model"], facts.sigma(pid["index"], pid["level"]))

    return Query(name, lambda: cli("classify", path, "-n", str(n), "-k", "1", "--budget", "0"), check)


def _engine_query(name, engine, g) -> Query:
    lg = to_lib(g)
    in_class = ENGINE_CLASS[engine]

    def check(out):
        if out.tag == "flaw-set":
            if out.flaw or not in_class(g):
                raise CheckFailure("flaw side fired at k = 0 outside the base class")
        elif out.tag == "witness":
            pid, model = out.witness
            if pid.level < 2:
                raise CheckFailure(f"witness below level 2: {pid}")
            pattern = _witness_pattern({"family": pid.family, "index": pid.index,
                                        "level": pid.level, "kind": pid.kind})
            check_model(g, model, pattern)
        elif in_class(g):
            # giving up is honest only when the flaw side cannot fire
            raise CheckFailure("gave up on a graph inside the base class")

    return Query(name, lambda: getattr(lib("dichotomy"), engine)(lg, 2, 0), check)


def _su_query(name, g, marks, path, budget) -> Query:
    def check(answer):
        code, payload = answer
        if code != 0 or payload is None or payload["status"] not in ("witness", "certificate"):
            raise Unanswered(f"exit {code}: {payload and payload.get('status')}")
        if payload["status"] == "witness":
            pid = payload["kind"]
            if pid["level"] < 2:
                raise CheckFailure(f"witness below level 2: {pid}")
            check_model(g, payload["model"], _witness_pattern(pid), marks)
            return
        residue = set(payload["residue"])
        removed = [set(s) for s in payload["removed"]]
        gone = set().union(*removed)
        if residue | gone != set(g.nodes) or residue & gone:
            raise CheckFailure("residue and removed supports do not cover the input")
        coned = nx.Graph(g.subgraph(residue))
        apex = max(g.nodes) + 1
        coned.add_edges_from((apex, v) for v in marks & residue)
        if nx.is_planar(coned):
            return
        if budget == 0:
            raise CheckFailure("residue does not cone planarly")
        # the payload carries no embedding, so ask the genus engine for
        # one and trace it here
        res = lib("embeddings").min_genus(to_lib(coned), budget)
        if res.status != "ok":
            raise CheckFailure(f"no embedding of the coned residue within budget {budget}")
        check_rotation(coned.edges, res.rotation.as_dict(), res.genus, coned.nodes)

    return Query(name, lambda: cli("su-obstruct", path, "--budget", str(budget), "-n", "2"), check)


def _minor_query(name, host, pattern) -> Query:
    lh, lp = to_lib(host), to_lib(pattern)
    # a planar host has no K5 or K3,3 minor; the Petersen graph has both
    expect = "absent" if nx.is_planar(host) else "found"

    def check(res):
        if res.status not in ("found", "absent"):
            raise Unanswered(res.status)
        if res.status != expect:
            raise CheckFailure(f"{res.status}, expected {expect}")
        if res.status == "found":
            check_model(host, res.model, pattern)

    return Query(name, lambda: lib("minors").find_minor(lh, lp, timeout=60), check)


def _pack_query(name, host, pattern, n) -> Query:
    lh, lp = to_lib(host), to_lib(pattern)

    def check(res):
        # n copies need n * |V(pattern)| host vertices; here there are fewer
        if res.complete or not res.exhausted:
            raise Unanswered("packing not refuted")
        for model in res.models:
            check_model(host, model, pattern)

    return Query(name, lambda: lib("minors").pack_disjoint(lh, lp, n, timeout=60), check)


def _check_catalog(answer) -> None:
    code, payload = answer
    if payload is None:
        raise Unanswered(f"exit {code}")
    rows = payload["rows"]
    if not all(r["ok"] for r in rows if r["section"] != "incomparability"):
        raise CheckFailure("a conversion or invariant row failed")
    # sigma8(2) = K3,2 is planar and a minor of every other sigma(j, 2);
    # all other pairs are incomparable
    want = {f"sigma8(2) not a minor of sigma{j}(2)" for j in range(1, 8)}
    found = {r["name"] for r in rows if r["section"] == "incomparability" and r["detail"] == "found"}
    others = [r for r in rows if r["section"] == "incomparability" and r["name"] not in want]
    if found != want or len(others) != 49 or not all(r["detail"] == "absent" for r in others):
        raise CheckFailure(f"incomparability rows found {sorted(found)}")


WORKLOADS = {"cone-sweep": cone_sweep, "certify": certify, "obstruct": obstruct}
