"""The left-right planarity test on integer arrays.

Brandes, "The left-right planarity test" (2009), after the formulation of
de Fraysseix and Rosenstiehl.  Three depth-first searches, each on an
explicit stack so that deep graphs need no recursion:

1. Orientation.  A DFS orients every edge away from the root: tree edges
   down, back edges up to an ancestor.  Each edge e gets lowpt(e), the
   height of the lowest vertex that back edges from e onwards reach (the
   tail of e if none goes lower), lowpt2(e), the second lowest, and a
   nesting depth 2·lowpt(e), plus one if e is chordal (lowpt2(e) is
   below the tail of e).  Out-edges are then visited in order of nesting
   depth.
2. Testing.  A second DFS assigns every back edge ("return edge") a side,
   left or right, relative to a reference edge, so that no two return
   edges that must be on opposite sides are forced onto the same side.
   The constraints are kept on a stack S of conflict pairs, with these
   invariants:
   - a conflict pair holds two intervals L and R of return edges; all
     edges of one interval take the same side, and the edges of L take
     the side opposite to those of R;
   - an interval is given by its lowest return edge `low` and its highest
     `high` (by lowpoint); ref links each edge of an interval to the next
     lower one, down to `low`;
   - pairs lower on the stack hold return edges that end lower, so the
     pairs of return edges that end at a vertex u are on top when the
     search retreats over the tree edge into u, and are dropped there;
   - after an out-edge e of v has been processed, the pairs above
     bottom[e] are those holding the return edges of e's subtree.
   The graph is planar if and only if no two return edges are ever forced
   onto the same side and onto opposite sides at once.  The boolean mode
   stops here.
3. Embedding.  Following the ref links makes every side absolute (the
   side of e is side(e) times the side of ref(e)), the
   out-edges are re-sorted by signed nesting depth, and a third DFS
   places each back edge into the rotation at its ancestor, next to the
   tree edge that leads into its subtree.

Vertices are renumbered 0..n-1 and edges 0..m-1 in input order, and the
rotation is kept as a doubly linked list of half-edges: half-edge 2e sits
at the tail of edge e, 2e + 1 at its head.  Every loop visits vertices and
edges in the order networkx's LRPlanarity does, so the rotation is the
one its PlanarEmbedding gives in clockwise order, starting at the same
neighbour.
"""

from __future__ import annotations

from typing import Iterable

from .core import Edge


def lr_planarity(
    edges: Iterable[Edge], embed: bool = False
) -> dict[int, tuple[int, ...]] | None:
    """One LR run on the graph formed by edges, which must be simple: no
    loops, and no edge listed twice in either orientation.

    Returns None when the graph is not planar.  When it is planar, the
    boolean mode returns an empty dict; with embed set, the result maps
    every vertex of an edge to its neighbours in clockwise order, a
    rotation system of a plane embedding."""
    # ------------------------------------------------------------------
    # integer arrays: vertices in order of first appearance
    index: dict[int, int] = {}
    label: list[int] = []
    ends: list[int] = []  # tail ^ head of every edge
    first_end: list[int] = []  # the endpoint that appeared first
    for u, v in edges:
        iu = index.get(u)
        if iu is None:
            iu = index[u] = len(label)
            label.append(u)
        iv = index.get(v)
        if iv is None:
            iv = index[v] = len(label)
            label.append(v)
        ends.append(iu ^ iv)
        first_end.append(iu if iu < iv else iv)
    n, m = len(label), len(ends)
    if n > 2 and m > 3 * n - 6:
        return None
    # the edges at each vertex, ordered by their first endpoint and then
    # by input order, as networkx's LRPlanarity lists them
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(range(m), key=first_end.__getitem__):
        a = first_end[e]
        adj[a].append(e)
        adj[a ^ ends[e]].append(e)

    # ------------------------------------------------------------------
    # 1. orientation, lowpoints and nesting depths
    height = [-1] * n
    parent = [-1] * n  # tree edge into each vertex, -1 at a root
    tail = [-1] * m  # -1 until the edge is oriented
    lowpt = [0] * m
    lowpt2 = [0] * m
    nest = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # out-edges in orientation order
    ptr = [0] * n
    roots = []
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent[v]
            av = adj[v]
            i = ptr[v]
            descended = False
            while i < len(av):
                ei = av[i]
                i += 1
                if tail[ei] >= 0:  # oriented from its other end
                    continue
                tail[ei] = v
                out[v].append(ei)
                w = ends[ei] ^ v
                lowpt2[ei] = hv
                if height[w] < 0:  # tree edge: finish it when w is done
                    lowpt[ei] = hv
                    parent[w] = ei
                    height[w] = hv + 1
                    ptr[v] = i
                    stack.append(w)
                    descended = True
                    break
                low = lowpt[ei] = height[w]  # back edge, never chordal
                nest[ei] = 2 * low
                if e >= 0:
                    _fold(e, low, hv, lowpt, lowpt2)
            if descended:
                continue
            stack.pop()
            if e < 0:
                continue
            # the tree edge e = (u, v) is done: fold it into u's parent edge
            u = tail[e]
            hu = height[u]
            low = lowpt[e]
            nest[e] = 2 * low + (lowpt2[e] < hu)
            if parent[u] >= 0:
                _fold(parent[u], low, lowpt2[e], lowpt, lowpt2)
    head = [ends[e] ^ tail[e] for e in range(m)]
    key = nest.__getitem__
    ordered = [sorted(o, key=key) for o in out]

    # ------------------------------------------------------------------
    # 2. testing: conflict pairs [L.low, L.high, R.low, R.high], -1 = none
    S: list[list[int]] = []
    bottom = [0] * m  # height of S when the edge was entered
    low_edge = [0] * m  # the lowest return edge of each edge's subtree
    ref = [-1] * m
    side = [1] * m
    ptr = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            e = parent[v]
            ov = ordered[v]
            i = ptr[v]
            descended = False
            while i < len(ov):
                ei = ov[i]
                i += 1
                bottom[ei] = len(S)
                w = head[ei]
                if parent[w] == ei:  # tree edge: integrate it when w is done
                    ptr[v] = i
                    stack.append(w)
                    descended = True
                    break
                low_edge[ei] = ei
                S.append([-1, -1, ei, ei])
                if i == 1:
                    low_edge[e] = ei
                elif not _add_constraints(ei, e, S, bottom, lowpt, low_edge, ref):
                    return None
            if descended:
                continue
            stack.pop()
            if e < 0:
                continue
            # retreat over the tree edge e = (u, v)
            u = tail[e]
            hu = height[u]
            # drop the pairs whose return edges all end at u
            while S and _lowest(S[-1], lowpt) == hu:
                P = S.pop()
                if P[0] >= 0:
                    side[P[0]] = -1
            if S:  # trim the return edges that end at u off the top pair
                P = S[-1]
                while P[1] >= 0 and head[P[1]] == u:
                    P[1] = ref[P[1]]
                if P[1] < 0 and P[0] >= 0:  # L just emptied
                    ref[P[0]] = P[2]
                    side[P[0]] = -1
                    P[0] = -1
                while P[3] >= 0 and head[P[3]] == u:
                    P[3] = ref[P[3]]
                if P[3] < 0 and P[2] >= 0:  # R just emptied
                    ref[P[2]] = P[0]
                    side[P[2]] = -1
                    P[2] = -1
            if lowpt[e] < hu:  # e has return edges below u
                # e's side is that of a highest return edge
                hl, hr = S[-1][1], S[-1][3]
                ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr
                # integrate them at u, as for a back edge above
                pu = parent[u]
                if ordered[u][0] == e:
                    low_edge[pu] = low_edge[e]
                elif not _add_constraints(e, pu, S, bottom, lowpt, low_edge, ref):
                    return None
    if not embed:
        return {}

    # ------------------------------------------------------------------
    # 3. embedding: absolute sides, then the rotation as linked half-edges
    for e in range(m):
        if ref[e] >= 0:
            chain = []
            x = e
            while ref[x] >= 0:
                chain.append(x)
                x = ref[x]
            for x in reversed(chain):
                side[x] *= side[ref[x]]
                ref[x] = -1
        nest[e] *= side[e]
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    first = [-1] * n  # the half-edge a clockwise listing starts from
    for v in range(n):
        o = sorted(out[v], key=key)
        ordered[v] = o
        if o:
            hs = [2 * e for e in o]
            prev = hs[-1]
            for h in hs:
                cw[prev] = h
                ccw[h] = prev
                prev = h
            first[v] = hs[0]
    left_ref = [0] * n
    right_ref = [0] * n
    ptr = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            ov = ordered[v]
            i = ptr[v]
            while i < len(ov):
                ei = ov[i]
                i += 1
                w = head[ei]
                h = 2 * ei + 1  # the half-edge at w
                if parent[w] == ei:  # tree edge: w's parent goes first at w
                    f = first[w]
                    if f < 0:
                        cw[h] = ccw[h] = h
                    else:
                        _insert_before(h, f, cw, ccw)
                    first[w] = h
                    left_ref[v] = right_ref[v] = 2 * ei
                    ptr[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:  # just clockwise of w's right reference
                    _insert_before(h, cw[right_ref[w]], cw, ccw)
                else:  # just counterclockwise of w's left reference
                    if first[w] == left_ref[w]:
                        first[w] = h
                    _insert_before(h, left_ref[w], cw, ccw)
                    left_ref[w] = h
    rot: dict[int, tuple[int, ...]] = {}
    for v in range(n):
        h = start = first[v]
        nbrs = []
        while True:
            nbrs.append(label[ends[h >> 1] ^ v])
            h = cw[h]
            if h == start:
                break
        rot[label[v]] = tuple(nbrs)
    return rot


def _fold(e: int, low: int, low2: int, lowpt: list[int], lowpt2: list[int]) -> None:
    """Take the lowpoints (low, low2) of an out-edge of e's head into
    those of the tree edge e."""
    if low < lowpt[e]:
        lowpt2[e] = min(lowpt[e], low2)
        lowpt[e] = low
    elif low > lowpt[e]:
        lowpt2[e] = min(lowpt2[e], low)
    else:
        lowpt2[e] = min(lowpt2[e], low2)


def _insert_before(h: int, ref: int, cw: list[int], ccw: list[int]) -> None:
    """Put half-edge h just counterclockwise of ref in its rotation."""
    c = ccw[ref]
    ccw[ref] = h
    cw[h] = ref
    ccw[h] = c
    cw[c] = h


def _lowest(P: list[int], lowpt: list[int]) -> int:
    """The lowest lowpoint of a conflict pair's return edges."""
    if P[0] < 0:
        return lowpt[P[2]]
    if P[2] < 0:
        return lowpt[P[0]]
    return min(lowpt[P[0]], lowpt[P[2]])


def _add_constraints(
    ei: int, e: int, S: list[list[int]], bottom: list[int],
    lowpt: list[int], low_edge: list[int], ref: list[int],
) -> bool:
    """Merge the return edges of ei, an out-edge of e's head that is not
    its first, into one conflict pair with those of the earlier out-edges
    they conflict with.  False when that puts an edge on both sides."""
    pll = plh = prl = prh = -1  # the new pair P
    # every return edge of ei goes into P's right interval
    while True:
        Q = S.pop()
        if Q[0] >= 0 or Q[1] >= 0:
            Q = [Q[2], Q[3], Q[0], Q[1]]
            if Q[0] >= 0 or Q[1] >= 0:
                return False
        if lowpt[Q[2]] > lowpt[e]:
            if prl < 0 and prh < 0:
                prh = Q[3]
            else:
                ref[prl] = Q[3]
            prl = Q[2]
        else:  # returns to e's lowpoint: aligned with e's lowest return edge
            ref[Q[2]] = low_edge[e]
        if len(S) == bottom[ei]:
            break
    # the return edges of earlier out-edges that conflict with ei go left
    low = lowpt[ei]
    while S and ((S[-1][1] >= 0 and lowpt[S[-1][1]] > low)
                 or (S[-1][3] >= 0 and lowpt[S[-1][3]] > low)):
        Q = S.pop()
        if Q[3] >= 0 and lowpt[Q[3]] > low:
            Q = [Q[2], Q[3], Q[0], Q[1]]
            if Q[3] >= 0 and lowpt[Q[3]] > low:
                return False
        if prl >= 0:
            ref[prl] = Q[3]
        if Q[2] >= 0:
            prl = Q[2]
        if pll < 0 and plh < 0:
            plh = Q[1]
        else:
            ref[pll] = Q[1]
        pll = Q[0]
    if pll >= 0 or plh >= 0 or prl >= 0 or prh >= 0:
        S.append([pll, plh, prl, prh])
    return True
