"""Independent brute-force reference implementations.

These run the slow, obviously-correct route so the fast implementations
have something honest to disagree with.  Nothing here imports the
library's search code except the oracles that pin a pruned search to
the plain one it replaced: pack_by_stream, which drives the library's
model stream to check the packer's prunes, not the stream itself;
core_by_exact_genus, which asks the library's genus search for each
trial's exact genus, to check that decompose's yes/no trials keep the
same core; and k2n_by_all_pairs and two_connected_by_all_pairs, which
run dichotomy's path families on every vertex pair, to check that
skipping the pairs without room for n paths changes no witness or
structure.  search_block_in_base_order runs the genus kernel in its base
dart order alone, the reference for the portfolio of min_genus.
max_flow_by_dicts is the tuple-keyed flow that core's
array-based flow replaced, kept to pin its paths and separator.
glued_by_family rebuilds every pattern glued from copies of one block
with the per-family layout formulas that patterns.copies replaced, to pin
its vertex ids and edge order.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import deque

from surfembed import dichotomy, embeddings, minors
from surfembed.core import (
    Graph,
    MarkedGraph,
    SearchTimeout,
    complete_bipartite,
    complete_graph,
    norm_edge,
)
from surfembed.patterns import PatternId, theta

# pattern edges, per-role degree needs, and interchangeable role groups
K5_PATTERN = ([(i, j) for i in range(5) for j in range(i + 1, 5)],
              [4] * 5, ((0, 1, 2, 3, 4),))
K33_PATTERN = ([(i, j) for i in range(3) for j in range(3, 6)],
               [3] * 6, ((0, 1, 2), (3, 4, 5)))
K4_PATTERN = ([(i, j) for i in range(4) for j in range(i + 1, 4)],
              [3] * 4, ((0, 1, 2, 3),))
K23_PATTERN = ([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
               [3, 3, 2, 2, 2], ((0, 1), (2, 3, 4)))


def _adj(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _routes(adj, start, goal, blocked):
    """All simple start-goal paths avoiding blocked, shortest first."""
    out = []
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        for w in sorted(adj[v]):
            if w == goal:
                out.append(path + (w,))
            elif w not in blocked and w not in path:
                stack.append((w, path + (w,)))
    out.sort(key=len)
    return out


def _extend(adj, branch, edges, used):
    """Route the remaining pattern edges as internally disjoint paths."""
    if not edges:
        return True
    (i, j), rest = edges[0], edges[1:]
    a, b = branch[i], branch[j]
    blocked = (used | set(branch)) - {a, b}
    for path in _routes(adj, a, b, blocked):
        if _extend(adj, branch, rest, used | set(path[1:-1])):
            return True
    return False


def has_subdivision(g: Graph, pattern) -> bool:
    """Exhaustive search for a subdivision of the pattern inside g."""
    edges, degrees, groups = pattern
    adj = _adj(g)

    def choose(gi, taken, assignment):
        if gi == len(groups):
            branch = [0] * len(degrees)
            for grp, chosen in zip(groups, assignment):
                for role, v in zip(grp, chosen):
                    branch[role] = v
            return _extend(adj, branch, list(edges), set())
        grp = groups[gi]
        need = degrees[grp[0]]
        cands = [
            v for v in sorted(g.vertices)
            if len(adj[v]) >= need and v not in taken
        ]
        for chosen in itertools.combinations(cands, len(grp)):
            if choose(gi + 1, taken | set(chosen), assignment + [chosen]):
                return True
        return False

    return choose(0, set(), [])


def planar_by_subdivision(g: Graph) -> bool:
    """Planarity by Euler count plus exhaustive Kuratowski search."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    if g.n < 5:
        return True
    if has_subdivision(g, K5_PATTERN):
        return False
    if g.n >= 6 and has_subdivision(g, K33_PATTERN):
        return False
    return True


def has_k4_minor(g: Graph) -> bool:
    # max degree 3 patterns: minor containment equals subdivision containment
    return has_subdivision(g, K4_PATTERN)


def has_k23_minor(g: Graph) -> bool:
    return has_subdivision(g, K23_PATTERN)


def all_paths_between(g: Graph, srcs, dsts, forbid=frozenset()):
    """Every simple path from srcs to dsts avoiding forbid."""
    adj = _adj(g)
    dsts = set(dsts)
    out = []
    for a in sorted(set(srcs) - set(forbid)):
        if a in dsts:
            out.append((a,))
        stack = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            for w in sorted(adj[v]):
                if w in path or w in forbid:
                    continue
                if w in dsts:
                    out.append(path + (w,))
                else:
                    stack.append((w, path + (w,)))
    return out


def separator_cuts_everything(g: Graph, srcs, dsts, separator) -> bool:
    sep = set(separator)
    return all(sep & set(p) for p in all_paths_between(g, srcs, dsts))


def _refine(g: Graph, colors: dict[int, int]) -> dict[int, int]:
    """Iterated neighbor-color refinement until stable."""
    while True:
        sig = {
            v: (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in g.vertices
        }
        order = sorted(set(sig.values()))
        rank = {s: i for i, s in enumerate(order)}
        nxt = {v: rank[sig[v]] for v in g.vertices}
        if nxt == colors:
            return colors
        colors = nxt


def canonical_form(g: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """A label-independent fingerprint: (n, canonically relabeled edge set).

    Individualise and refine: from the stable colouring, the first colour
    class with more than one vertex is split by giving each of its
    vertices in turn a colour of its own, and the colouring is refined
    again; each discrete colouring orders the vertices, and the least
    relabeled edge list over all of them is the form.  Two leaves with the
    same edge list give an automorphism, and a vertex is not tried where
    an automorphism fixing the vertices individualised so far maps it to
    one already tried, since its subtree gives the same forms.
    """
    if not g.vertices:
        return (0, frozenset())
    best: tuple[tuple[int, int], ...] | None = None
    best_order: list[int] = []
    autos: list[dict[int, int]] = []

    def same_orbit(v: int, tried: list[int], fixed: list[int]) -> bool:
        root = {u: u for u in g.vertices}

        def find(u: int) -> int:
            while root[u] != u:
                u = root[u]
            return u

        for a in autos:
            if all(a[f] == f for f in fixed):
                for u, w in a.items():
                    root[find(u)] = find(w)
        return any(find(v) == find(t) for t in tried)

    def search(colors: dict[int, int], fixed: list[int]) -> None:
        nonlocal best, best_order
        cells: dict[int, list[int]] = {}
        for v in sorted(g.vertices):
            cells.setdefault(colors[v], []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            key = tuple(sorted(
                (min(colors[u], colors[v]), max(colors[u], colors[v])) for u, v in g.edges
            ))
            order = sorted(g.vertices, key=colors.__getitem__)
            if best is None or key < best:
                best, best_order = key, order
            elif key == best:
                autos.append(dict(zip(best_order, order)))
            return
        tried: list[int] = []
        for v in target:
            if tried and same_orbit(v, tried, fixed):
                continue
            tried.append(v)
            split = {u: 2 * c + (u != v) for u, c in colors.items()}
            search(_refine(g, split), fixed + [v])

    search(_refine(g, {v: 0 for v in g.vertices}), [])
    assert best is not None
    return (g.n, frozenset(best))


@functools.cache
def graphs_on(n: int) -> list[Graph]:
    """All graphs on vertex set 0..n-1, one per isomorphism class."""
    if n == 0:
        return [Graph([], [])]
    out: dict = {}
    for smaller in graphs_on(n - 1):
        old = sorted(smaller.vertices)
        for mask in range(1 << (n - 1)):
            nbrs = [old[i] for i in range(n - 1) if mask >> i & 1]
            g = Graph(range(n), list(smaller.edges) + [(v, n - 1) for v in nbrs])
            out.setdefault(canonical_form(g), g)
    return list(out.values())


def connected_graphs_on(n: int) -> list[Graph]:
    return [g for g in graphs_on(n) if len(g.components()) == 1]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(range(n), edges)


def _parts(vertices: list[int], k: int):
    """Every family of k disjoint non-empty parts of vertices, once each.

    Vertices go in order to the deleted pile, to a part already open, or
    to a new part, so parts come out ordered by their smallest vertex.
    """
    parts: list[list[int]] = []

    def rec(i: int):
        if k - len(parts) > len(vertices) - i:
            return
        if i == len(vertices):
            yield [frozenset(p) for p in parts]
            return
        v = vertices[i]
        yield from rec(i + 1)
        for p in parts:
            p.append(v)
            yield from rec(i + 1)
            p.pop()
        if len(parts) < k:
            parts.append([v])
            yield from rec(i + 1)
            parts.pop()

    return rec(0)


def _connected_part(adj, part) -> bool:
    start = next(iter(part))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in part and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(part)


def has_minor_by_partition(
    g: Graph,
    h: Graph,
    g_marked=frozenset(),
    h_marked=frozenset(),
    roots=None,
) -> bool:
    """Minor containment straight from the definition.

    Tries every family of |V(h)| disjoint connected vertex sets of g and
    every bijection onto V(h): each pattern edge needs a host edge between
    its two sets, each marked pattern vertex a marked host vertex in its
    set, each rooted pattern vertex its root in its set.
    """
    roots = roots or {}
    adj = _adj(g)
    hv = sorted(h.vertices)
    for parts in _parts(sorted(g.vertices), len(hv)):
        if not all(_connected_part(adj, p) for p in parts):
            continue
        k = len(parts)
        touch = {
            (i, j)
            for i in range(k)
            for j in range(k)
            if i != j and any(w in parts[j] for v in parts[i] for w in adj[v])
        }
        for perm in itertools.permutations(range(k)):
            at = dict(zip(hv, perm))
            if all((at[a], at[b]) in touch for a, b in h.edges) and all(
                parts[at[p]] & g_marked for p in h_marked
            ) and all(v in parts[at[p]] for p, v in roots.items()):
                return True
    return False


def connected_subsets_by_sets(g: Graph, allowed, seeds, cap):
    """The set-based connected-subset enumerator the mask kernel replaced,
    kept as the reference for its order: every connected subset of
    `allowed` with at most `cap` vertices whose seed (smallest usable id,
    or the forced root) is in `seeds`, frontier vertices decided
    include-or-ban in a fixed order."""
    for seed, others in seeds:
        usable = allowed & others

        def rec(chosen, frontier, banned):
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


def seed_plan_by_sets(allowed: set[int], root: int | None, above: int):
    """The seed plan matching connected_subsets_by_sets: the root alone,
    or every allowed id above `above` with the larger ids it may use."""
    if root is not None:
        if root not in allowed:
            return []
        return [(root, frozenset(allowed))]
    order = sorted(allowed)
    return [(v, frozenset(u for u in order if u > v)) for v in order if v > above]


def search_block_by_lists(
    g: Graph, girth: int, lower: int, budget: int
) -> tuple[int, dict[int, tuple[int, ...]]] | None:
    """The genus search the open-face bound and the list-free kernel
    replaced, kept as the reference for their answers: minimum genus of a
    non-planar 2-connected block if it is <= budget, with the rotation it
    finds first; None if it exceeds the budget.

    Depth-first search over incremental face tracings, on an explicit stack.
    Rotations are built as successor pairs over the out-darts at each vertex
    while faces are traced, so each full leaf is exactly one rotation system.
    A node is pruned when the faces still achievable cannot reach the target:
    every face of a 2-connected graph that is not an edge holds a cycle, so
    it takes at least girth darts.  The search stops at the first embedding
    of genus `lower`, a certified lower bound.
    """
    verts = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    vn, en, nd = len(verts), g.m, 2 * g.m
    vidx = {v: i for i, v in enumerate(verts)}
    # darts are numbered vertex by vertex, so the out-darts of vertex i are
    # lo[i] .. lo[i + 1] - 1 and the lowest unused dart starts the next face
    tail: list[int] = []
    head: list[int] = []
    lo = [0]
    for i, v in enumerate(verts):
        for w in g.neighbors(v):
            tail.append(i)
            head.append(vidx[w])
        lo.append(len(tail))
    dart_of = {(t, h): d for d, (t, h) in enumerate(zip(tail, head))}
    rev = [dart_of[h, t] for t, h in zip(tail, head)]
    deg = [lo[i + 1] - lo[i] for i in range(vn)]

    succ = [-1] * nd  # successor among out-darts at the same vertex
    pred = [-1] * nd
    used = [False] * (nd + 1)  # used[nd] stays False: "no dart left"
    chain_start = list(range(nd))  # valid when indexed by a chain end
    chain_end = list(range(nd))  # valid when indexed by a chain start
    chain_size = [1] * nd  # valid when indexed by a chain start

    # faces needed for genus == budget, then for each better embedding; like
    # every face count it has the parity of en - vn, so the bound below
    # needs no parity rounding
    need = en - vn + 2 - 2 * budget
    f_stop = en - vn + 2 - 2 * lower
    best_f = -1
    best_succ: list[int] | None = None

    # the current node: x is the out-dart at the vertex the open face just
    # reached, f0 the dart that opened it; cands are the darts that may
    # follow x in the rotation there, and i the next one to try
    used[0] = True
    x, f0, closed, used_cnt = rev[0], 0, 0, 1
    cands: list[int] | None = None  # None: not built yet for this node
    stack: list[tuple] = []
    while True:
        if cands is None:
            sx = chain_start[x]
            v = tail[x]
            cands = []
            for y in range(lo[v], lo[v + 1]):
                if pred[y] != -1 or (y == sx and chain_size[y] != deg[v]):
                    continue
                if y == f0:
                    cands.insert(0, y)
                elif not used[y]:
                    cands.append(y)
            i = 0
        if i == len(cands):
            if not stack:
                break
            x, f0, closed, used_cnt, sx, cands, i, y, mark = stack.pop()
            used[mark] = False
            succ[x] = -1
            pred[y] = -1
            if y != sx:
                ey = chain_end[sx]
                chain_size[sx] -= chain_size[y]
                chain_end[sx] = x
                chain_start[ey] = y
            continue
        y = cands[i]
        i += 1
        if y == f0:  # y closes the open face
            c_closed = closed + 1
            mark = used.index(False)
            if mark == nd:  # every dart lies on a face
                if c_closed >= need:
                    best_f = c_closed
                    best_succ = succ.copy()
                    best_succ[x] = y
                    if best_f >= f_stop:
                        break
                    need = best_f + 2
                continue
            c_f0 = mark
        else:
            c_closed = closed
            mark = y
            c_f0 = f0
        if c_closed + 1 + (nd - used_cnt - 1) // girth < need:
            continue
        # descend: x -> y becomes a rotation pair, mark joins the open face
        stack.append((x, f0, closed, used_cnt, sx, cands, i, y, mark))
        succ[x] = y
        pred[y] = x
        if y != sx:  # join the chains of x and y unless y closes x's cycle
            ey = chain_end[y]
            chain_end[sx] = ey
            chain_start[ey] = sx
            chain_size[sx] += chain_size[y]
        used[mark] = True
        x, f0, closed, used_cnt = rev[mark], c_f0, c_closed, used_cnt + 1
        cands = None

    if best_succ is None:
        return None
    rot: dict[int, tuple[int, ...]] = {}
    for v in range(vn):
        cyc = [lo[v]]
        d = best_succ[lo[v]]
        while d != lo[v]:
            cyc.append(d)
            d = best_succ[d]
        rot[verts[v]] = tuple(verts[head[d]] for d in cyc)
    return (2 - vn + en - best_f) // 2, rot


def search_block_in_base_order(
    g: Graph, girth: int, lower: int, budget: int, deadline: float | None
) -> tuple[int, dict[int, tuple[int, ...]]] | None:
    """Minimum genus of a non-planar 2-connected block if it is <= budget,
    with a rotation attaining it; None if it exceeds the budget.

    The kernel in its base dart order alone, with the deadline checked
    after every slice of embeddings._SLICE nodes.  min_genus searches by
    embeddings._portfolio, which starts with this order and gives the
    same genus or None.  Raises SearchTimeout on deadline.
    """
    run = embeddings._block_kernel(g, girth, lower, budget)
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return stop.value
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout


def pack_by_stream(g: Graph, h: Graph, n: int, hub: int | None = None) -> minors.PackResult:
    """The packing recursion with neither the room nor the failed-drop list
    of minors._pack, kept as the reference for its results.

    Same count test at every level, same hub order, over the same model
    stream: it takes the first model and moves on, falling back to the
    next only when the remainder fails.  A complete result must equal
    pack_disjoint's (hub None) or pack_bouquet's; an incomplete one
    carries no models, and only its flags are comparable.  Each streamed
    model is built with minors._model as it comes.
    """
    shared = 0 if hub is None else 1
    host = minors._Host(g)
    plan = minors._plan(h, frozenset(), frozenset(() if hub is None else (hub,)))

    def recurse(k: int, free: int, z: int | None, acc: list):
        if k == 0:
            return acc
        if k * (h.n - shared) + shared > free.bit_count() or k * h.m > host.edge_count(free):
            return None
        keep = 0 if z is None else 1 << host.bit[z]
        roots = {} if z is None else {hub: z}
        for masks in minors._model_stream(g, h, roots=roots, host=host, free=free, plan=plan):
            m = minors.MinorModel(*minors._model(g, h, host, plan, roots, masks))
            rest = recurse(k - 1, free & ~(host.mask(m.support()) & ~keep), z, acc + [m])
            if rest is not None:
                return rest
        return None

    hubs: list = [None]
    if hub is not None:
        hubs = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    for z in hubs:
        got = recurse(n, (1 << g.n) - 1, z, [])
        if got is not None:
            return minors.PackResult(got, complete=True, exhausted=True, hub_vertex=z)
    return minors.PackResult([], complete=False, exhausted=True)


def k2n_by_all_pairs(g: Graph, n: int) -> minors.MinorModel | None:
    """The K_{2,n} witness loop over every vertex pair in combinations
    order, kept as the reference for dichotomy._k2n_witness: the first
    pair with n internally disjoint paths with interiors gives the model."""
    for x, y in itertools.combinations(g.sorted_vertices(), 2):
        mids = dichotomy._through_paths(g, x, y)
        if len(mids) < n:
            continue
        bsets = {0: frozenset({x}), 1: frozenset({y})}
        conn = {}
        for idx, p in enumerate(mids[:n]):
            bsets[2 + idx] = frozenset(p[1:-1])
            conn[norm_edge(0, 2 + idx)] = norm_edge(p[0], p[1])
            conn[norm_edge(1, 2 + idx)] = norm_edge(p[-2], p[-1])
        return minors.MinorModel(bsets, conn)
    return None


def two_connected_by_all_pairs(g: Graph, u: frozenset, n: int):
    """dichotomy.two_connected_structures with its double-star loop over
    every vertex pair, kept as the reference for the loop that skips the
    pairs without room; the fan and ladder stages are the library's."""
    for x, y in itertools.combinations(g.sorted_vertices(), 2):
        found = dichotomy._double_star_at(g, u, x, y, n)
        if found is not None:
            return found
    for d in sorted(g.vertices, key=lambda v: (-g.degree(v), v)):
        if g.degree(d) >= n:
            found = dichotomy._fan_at(g, u, d, n)
            if found is not None:
                return found
    return dichotomy._ladder_search(g, u, n)


def core_by_exact_genus(g: Graph, gamma: int) -> Graph:
    """The critical-core loop that asks each trial for its exact genus,
    kept as the reference for decompose's yes/no trials: each edge of g,
    in sorted order, is deleted when the rest has genus exactly gamma."""
    core = g
    for e in sorted(g.edges):
        trial = core.remove_edges([e])
        r = embeddings.min_genus(trial, gamma)
        if r.status == "ok" and r.genus == gamma:
            core = trial
    return core


def max_flow_by_dicts(
    g: Graph, a: frozenset[int], b: frozenset[int]
) -> tuple[list[list[int]], set[int]]:
    """Unit-capacity vertex-split max flow between vertex sets, on
    tuple-keyed arc dicts: the flow that core._max_flow_paths replaced.

    Every vertex has capacity one, so the paths are fully disjoint and the
    min cut is a vertex separator of equal size.
    """
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    # node 2i = v_in, 2i+1 = v_out; 2n = source, 2n+1 = sink
    src, snk = 2 * n, 2 * n + 1
    big = n + 1 + len(g.edges)
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {src: [], snk: []}

    def add_arc(x: int, y: int, c: int) -> None:
        if (x, y) not in cap:
            cap[(x, y)] = 0
            cap[(y, x)] = cap.get((y, x), 0)
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
        cap[(x, y)] += c

    for i in range(n):
        add_arc(2 * i, 2 * i + 1, 1)
    for u, v in g.sorted_edges():
        iu, iv = idx[u], idx[v]
        # edge arcs carry capacity 1: a simple-graph edge is used by one path
        add_arc(2 * iu + 1, 2 * iv, 1)
        add_arc(2 * iv + 1, 2 * iu, 1)
    for v in sorted(a):
        add_arc(src, 2 * idx[v], big)
    for v in sorted(b):
        add_arc(2 * idx[v] + 1, snk, big)

    flow: dict[tuple[int, int], int] = {k: 0 for k in cap}

    def bfs_augment() -> bool:
        prev: dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == snk:
                break
            for y in adj.get(x, ()):
                if y not in prev and cap[(x, y)] - flow[(x, y)] > 0:
                    prev[y] = x
                    queue.append(y)
        if snk not in prev:
            return False
        y = snk
        while y != src:
            x = prev[y]
            flow[(x, y)] += 1
            flow[(y, x)] -= 1
            y = x
        return True

    while bfs_augment():
        pass

    # decompose the integral flow into source-sink paths
    residual_out: dict[int, list[int]] = {}
    for (x, y), f in sorted(flow.items()):
        for _ in range(max(0, f)):
            residual_out.setdefault(x, []).append(y)
    for lst in residual_out.values():
        lst.sort(reverse=True)
    raw_paths: list[list[int]] = []
    while residual_out.get(src):
        walk = [src]
        x = src
        while x != snk:
            nxt = residual_out[x].pop()
            walk.append(nxt)
            x = nxt
        raw_paths.append(walk)

    # each walk enters and leaves every vertex once: in-node, then out-node
    paths = [[verts[node // 2] for node in walk[1:-1:2]] for walk in raw_paths]

    # min cut from residual reachability
    reached = {src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in reached and cap[(x, y)] - flow[(x, y)] > 0:
                reached.add(y)
                queue.append(y)
    # a cut arc charges its head: a cut vertex arc its own vertex, a cut
    # edge arc the vertex it enters, whose unit capacity it saturates
    separator: set[int] = set()
    for (x, y), c in sorted(cap.items()):
        if c > 0 and x in reached and y not in reached and flow[(x, y)] > 0:
            if x < 2 * n and y < 2 * n:
                separator.add(verts[y // 2])
    return paths, separator


# The copy layouts that patterns.copies replaced, one formula per family,
# with the block and hub tables they read.
_SIGMA_SHARED = {1: (), 2: (), 3: (0,), 4: (0,), 5: (0, 1), 6: (0, 3), 7: (0, 1)}
_HUB_PLAIN = {1: 0, 2: 0, 3: 2, 4: 0}
_HUB_PRIMED = {2: 2, 3: 0, 4: 1}
_AUX_LAYOUTS = {
    "omegaK3": (complete_graph, (3,), None),
    "veeK3": (complete_graph, (3,), 0),
    "omegaK4": (complete_graph, (4,), None),
    "veeK4": (complete_graph, (4,), 0),
    "omegaK23": (complete_bipartite, (2, 3), None),
    "G1": (complete_bipartite, (2, 3), 0),
    "G2": (complete_bipartite, (2, 3), 2),
}


def sigma_copy_maps(i: int, n: int) -> list[dict[int, int]]:
    """Copy 0 keeps the block ids; later copies number their private
    vertices consecutively above the block."""
    shared = _SIGMA_SHARED[i]
    size = 5 if i in (1, 3, 5) else 6
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
    return maps


def copy_maps(size: int, n: int, hub: int | None = None) -> list[dict[int, int]]:
    """Copy j sends block id b to j*size + b; the hub keeps its id."""
    return [{b: b if b == hub else j * size + b for b in range(size)} for j in range(n)]


def layout_by_family(pid: PatternId):
    """(block, shared block ids, per-copy maps) of a copy-glued pattern."""
    if pid.family == "sigma":
        block = complete_graph(5) if pid.index in (1, 3, 5) else complete_bipartite(3, 3)
        return block, _SIGMA_SHARED[pid.index], sigma_copy_maps(pid.index, pid.level)
    if pid.family == "aux":
        make, args, hub = _AUX_LAYOUTS[pid.kind]
        block = make(*args)
        size = block.n
    else:
        block = theta(pid.index)
        size = block.graph.n
        hub = {"u": _HUB_PLAIN, "uprime": _HUB_PRIMED}.get(pid.family, {}).get(pid.index)
    return block, () if hub is None else (hub,), copy_maps(size, pid.level, hub)


def glued_by_family(pid: PatternId) -> Graph | MarkedGraph:
    """The union of the block's copies placed by layout_by_family's maps,
    marks carried to every copy."""
    block, _, maps = layout_by_family(pid)
    base = block.graph if isinstance(block, MarkedGraph) else block
    g = Graph([], [(m[u], m[v]) for m in maps for u, v in base.edges])
    if base is block:
        return g
    return MarkedGraph(g, frozenset(m[b] for m in maps for b in block.marked))
