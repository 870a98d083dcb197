"""Independent brute-force evaluators used only as test oracles.

Everything here is written from the definitions, sharing no code with the
package internals it cross-checks: a condition-by-condition goodness
evaluator, Type X detection by enumerating pseudoblock splits, x-blocks
from the Type X vertices and the sides they separate, Case2_2_1b's checks
by walking the tree of those x-blocks, a rainbow cycle
enumerator, and a small isomorphism tester for deduplicating sampled
cubic graphs. The one exception is `exhaustive_fallback`, which cross-checks
the fallback's search order and pruning only, so it reuses the engine's
removal check. The reference removal, `remove_one_at_a_time`, checks a
batch of cycles the way the engine's one sweep and one goodness check are
proved equal to:
one cycle at a time, each typed on its own and followed by a full
goodness check. The reference reduction builder, `build_transform_by_scan`, rebuilds the child
from a scan over every parent edge, and raises the engine's error type;
`case2_1_run_by_scan` repeats its one-edge contraction with full checks
and fresh scans, as the engine's Case2_1 runs do with derived facts.
`enumerate_cycles_by_copying` is the oracle's cycle enumerator as it was
before it walked one path in place, copying the path at every extension,
and it keeps the length cap the oracle has dropped, which
`exhaustive_fallback` lists its cycles by. `cycles_of` turns the
oracle's (vertices, edge ids) pairs into `Cycle`s for the tests that want
them, and `with_edge_ids` turns `Cycle`s back into the pairs the oracle's
cover search takes.
`exact_multicover_by_recount` is the oracle's exact-cover search as it
was before it kept each edge's count of usable candidates up to date: it
recounts them at every node, and reports how many nodes it visited. It
also keeps the second branching rule the package has dropped, on the
lowest open edge; `cdc_by_lowest_edge` and
`rainbow_decomposition_by_lowest_edge` run the oracle's two searches
under that rule.
`triangles_by_sorting` is the package's triangle listing as it was before
it walked each vertex's sorted neighbors: it sorts every edge, and reads
each edge's common neighbors above it.
`find_type_x_vertices`, `serialize_edge_list` and `color_classes` are
plain helpers that only tests call, kept here rather than in the package's
API. `parse_graph6_by_bit_list` and `serialize_graph6_by_bit_list` are the
package's graph6 codec as it was before it read and wrote the bits in
place: they build the list of all n(n-1)/2 bits, in order, and share only
the header decoder with the package.
"""
from __future__ import annotations

import itertools
import math

from cdcover.coloring import (
    EdgeColoredGraph,
    GoodnessReport,
    GoodnessVerdict,
    check_goodness,
    is_almost_rainbow_at,
)
from cdcover.decomposer import (
    FALLBACK,
    CaseVerificationError,
    FallbackResult,
    _check_removal,
)
from cdcover.graphs import Cycle, Graph, GraphError, _g6_decode_n, edge, find_bridges
from cdcover.oracle import MAX_NODES, SearchResult, enumerate_cycles


def _incident(g: EdgeColoredGraph) -> dict[int, list[tuple[int, int]]]:
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for (u, v), c in g.coloring.items():
        inc[u].append((v, c))
        inc[v].append((u, c))
    return inc


def _components_avoiding(n: int, edges, banned: int) -> list[set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {banned}
    comps = []
    for s in range(n):
        if s in seen or not adj[s]:
            continue
        stack, comp = [s], set()
        seen.add(s)
        while stack:
            a = stack.pop()
            comp.add(a)
            for b in adj[a]:
                if b not in seen and b != banned:
                    seen.add(b)
                    stack.append(b)
        comps.append(comp)
    return comps


def component_count(n: int, edges) -> int:
    """The number of components of the graph on 0..n-1 with `edges`,
    isolated vertices included: `_components_avoiding` skips those."""
    edges = list(edges)
    return (len(_components_avoiding(n, edges, -1))
            + n - len({v for e in edges for v in e}))


def type_x_by_pseudoblock_splits(g: EdgeColoredGraph) -> set[int]:
    """Type X by the definition: enumerate every split of the branches at a
    degree-4 cut vertex into two pseudoblocks and look for a monochromatic
    2+2 split."""
    inc = _incident(g)
    result = set()
    for v in range(g.n):
        if len(inc[v]) != 4:
            continue
        comps = _components_avoiding(g.n, g.coloring.keys(), v)
        branches = []
        for comp in comps:
            edges_in = [(w, c) for w, c in inc[v] if w in comp]
            if edges_in:
                branches.append(edges_in)
        if len(branches) < 2:
            continue
        k = len(branches)
        for bits in range(1, 2 ** (k - 1)):
            side1 = [b for i, b in enumerate(branches) if (bits >> i) & 1]
            side2 = [b for i, b in enumerate(branches) if not (bits >> i) & 1]
            e1 = [c for b in side1 for _, c in b]
            e2 = [c for b in side2 for _, c in b]
            if len(e1) == 2 and len(e2) == 2 and \
                    len(set(e1)) == 1 and len(set(e2)) == 1:
                result.add(v)
                break
    return result


def x_blocks_by_definition(g: EdgeColoredGraph) -> tuple[frozenset[int], ...]:
    """x-blocks by the definition: two edges at a vertex w are joined unless
    w is Type X and their far ends lie in different components of g - w.
    The x-blocks are the vertex sets of the classes of edges, ordered by
    least edge. Each Type X vertex lies in exactly two of them."""
    txv = type_x_by_pseudoblock_splits(g)
    edges = sorted(g.coloring)
    cls = {e: i for i, e in enumerate(edges)}  # edge -> its class's least edge

    def join(e: tuple[int, int], f: tuple[int, int]) -> None:
        a, b = sorted((cls[e], cls[f]))
        for x in edges:
            if cls[x] == b:
                cls[x] = a

    for w in range(g.n):
        at_w = [e for e in edges if w in e]
        sides = _components_avoiding(g.n, edges, w) if w in txv else []

        def side(e):
            far = e[0] + e[1] - w
            return next(i for i, comp in enumerate(sides) if far in comp)

        for e, f in itertools.combinations(at_w, 2):
            if w not in txv or side(e) == side(f):
                join(e, f)
    roots = sorted(set(cls.values()))
    x_blocks = tuple(frozenset(v for e in edges if cls[e] == r for v in e)
                     for r in roots)
    for c in txv:
        assert sum(c in blk for blk in x_blocks) == 2, c
    return x_blocks


def case2_2_1b_by_walking(child: EdgeColoredGraph, p, m: int) -> int | str:
    """Case2_2_1b's checks on the merged graph `child`, made by building
    the x-block tree and walking it: the joining vertex t of m's end
    x-block, or the message of the first check that fails. The nodes are
    the x-blocks by the definition, and each Type X vertex joins the two
    that hold it. The tree must be a path, m's x-block one end of it and
    v's the other, holding the flanks and y1, y2 respectively; t joins
    m's x-block to the next one along the path. Case2_2_1b makes no check
    of the flanks or of y1, y2: m is no Type X vertex and v has degree 2,
    so each holds its neighbors. This reference keeps both, so that a
    comparison with it tests that implication."""
    txv = type_x_by_pseudoblock_splits(child)
    if m in txv:
        return "merged vertex became Type X"
    blocks = x_blocks_by_definition(child)
    nbrs: dict[int, list[int]] = {i: [] for i in range(len(blocks))}
    joint = {}
    for c in txv:
        i, j = [k for k, blk in enumerate(blocks) if c in blk]
        nbrs[i].append(j)
        nbrs[j].append(i)
        joint[frozenset((i, j))] = c
    if len(joint) != len(blocks) - 1 or any(len(ns) > 2 for ns in nbrs.values()):
        return "x-block forest is not a path"
    order = [next(i for i, ns in nbrs.items() if len(ns) <= 1)]
    while len(order) < len(blocks):
        order.append(next(k for k in nbrs[order[-1]] if k not in order))
    bx = next(i for i, blk in enumerate(blocks) if m in blk)
    if bx not in (order[0], order[-1]):
        return "merged vertex not in an end x-block"
    if order[0] != bx:
        order.reverse()
    bv = next(i for i, blk in enumerate(blocks) if p.v in blk)
    if order[-1] != bv or bv == bx:
        return "v not in the opposite end x-block"
    for u in (p.w1, p.z1, p.w2, p.z2):
        if u not in blocks[bx]:
            return f"flank {u} outside end block"
    for u in (p.y1, p.y2):
        if u not in blocks[bv]:
            return f"{u} outside the v block"
    return joint[frozenset(order[:2])]


def naive_goodness(g: EdgeColoredGraph) -> tuple[str, int | None, set[int]]:
    """(verdict, bad_vertex, violated condition numbers), from the definitions."""
    inc = _incident(g)
    violated: set[int] = set()
    for v in range(g.n):
        d = len(inc[v])
        if d % 2:
            violated.add(1)
        if d > 4:
            violated.add(2)
    for a, b, c in itertools.combinations(range(g.n), 3):
        es = [(a, b), (a, c), (b, c)]
        if all(e in g.coloring for e in es):
            cols = {g.coloring[e] for e in es}
            if len(cols) == 2:
                violated.add(3)
    bads = []
    for v in range(g.n):
        if not inc[v]:
            continue
        cd = len({c for _, c in inc[v]})
        if cd == 2:
            continue
        if cd == 1 and len(inc[v]) == 2:
            bads.append(v)
        else:
            violated.add(4)
    by_color: dict[int, set[int]] = {}
    for (u, v), c in g.coloring.items():
        by_color.setdefault(c, set()).update((u, v))
    if any(len(vs) > 3 for vs in by_color.values()):
        violated.add(5)
    if 1 not in violated and 2 not in violated:
        if type_x_by_pseudoblock_splits(g):
            violated.add(6)
    if len(bads) > 1:
        violated.add(4)
        bads = []
    if not violated and len(bads) == 1:
        return "almost_good", bads[0], {4}
    if bads:
        violated.add(4)
    if violated:
        return "not_good", None, violated
    return "good", None, set()


def enumerate_rainbow_cycles(g: EdgeColoredGraph) -> list[tuple[int, ...]]:
    """All cycles with pairwise distinct edge colors, canonical.

    DFS over color-distinct paths; each cycle found once by anchoring at its
    minimum vertex with the second vertex smaller than the last.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in g.coloring:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    out = []
    for s in range(g.n):
        stack = [([s], set())]
        while stack:
            path, cols = stack.pop()
            v = path[-1]
            for w in adj[v]:
                c = g.coloring[(min(v, w), max(v, w))]
                if c in cols:
                    continue
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
                elif w > s and w not in path:
                    stack.append((path + [w], cols | {c}))
    return sorted(out, key=lambda t: (len(t), t))


def exhaustive_fallback(g: EdgeColoredGraph, max_len: int) -> FallbackResult:
    """`fallback_search` by enumerating and sorting every cycle of up to
    `max_len` vertices before testing any, with the same statuses."""
    rep = check_goodness(g)
    if not g.edges:
        return FallbackResult("absent")
    longest = max(len(c) for c in g.components)
    for cyc in enumerate_cycles_by_copying(g, max_len):
        try:
            _check_removal(g, rep, [(FALLBACK, cyc)])
        except CaseVerificationError:
            continue
        return FallbackResult("found", cyc)
    return FallbackResult("indeterminate" if max_len < longest else "absent")


def enumerate_cycles_by_copying(g: Graph, max_len: int | None = None) -> list[Cycle]:
    """`oracle.enumerate_cycles` as it was before it walked one path: a
    stack of (path, vertex set) pairs, each extension a fresh copy of both,
    and each cycle's edges left for `Cycle.edges` to compute."""
    out: list[Cycle] = []
    cap = max_len if max_len is not None else g.n
    for s in range(g.n):
        stack: list[tuple[list[int], set[int]]] = [([s], {s})]
        while stack:
            path, on_path = stack.pop()
            v = path[-1]
            for w in g.adj[v]:
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    out.append(Cycle(tuple(path)))
                elif w > s and w not in on_path and len(path) < cap:
                    stack.append((path + [w], on_path | {w}))
    return sorted(out, key=lambda c: (len(c), c.vertices))


def cycles_of(g: Graph) -> list[Cycle]:
    """Every cycle of g as a `Cycle`, in `oracle.enumerate_cycles` order."""
    return [Cycle(vertices) for vertices, _ in enumerate_cycles(g, math.inf)]


def with_edge_ids(edges, cycles) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each cycle as the (vertices, edge ids) pair `oracle._exact_multicover`
    takes, an edge's id its index in `edges`, from `Cycle.edges`."""
    index = {e: k for k, e in enumerate(edges)}
    return [(c.vertices, tuple(index[e] for e in c.edges)) for c in cycles]


def exact_multicover_by_recount(edges, cycles, demand: int,
                                branch: str = "constrained",
                                max_nodes: int | None = None,
                                ) -> tuple[SearchResult, int]:
    """`oracle._exact_multicover` as it was before it kept counts and took
    edge ids, on `Cycle`s: every
    node recounts each open edge's usable candidates, one scan of a
    candidate's edges each, and branches on the minimum of (count, edge),
    the package's rule, or with `branch="lowest"` on the lowest open edge.
    Returns the result and the nodes visited, `max_nodes + 1` when that
    budget ran out."""
    remaining = {e: demand for e in edges}
    containing = {e: [] for e in edges}
    for i, c in enumerate(cycles):
        for e in c.edges:
            if e not in containing:
                return SearchResult("absent"), 0
            containing[e].append(i)
    chosen: list[int] = []
    nodes = 0

    def usable(i: int) -> bool:
        return all(remaining[e] > 0 for e in cycles[i].edges)

    def pick_edge():
        open_edges = [e for e in edges if remaining[e] > 0]
        if not open_edges:
            return None
        if branch == "lowest":
            return open_edges[0]
        return min(open_edges,
                   key=lambda e: (sum(1 for i in containing[e] if usable(i)), e))

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise TimeoutError
        e = pick_edge()
        if e is None:
            return True
        for i in containing[e]:
            if not usable(i):
                continue
            for f in cycles[i].edges:
                remaining[f] -= 1
            chosen.append(i)
            if search():
                return True
            chosen.pop()
            for f in cycles[i].edges:
                remaining[f] += 1
        return False

    try:
        ok = search()
    except TimeoutError:
        return SearchResult("indeterminate"), nodes
    if not ok:
        return SearchResult("absent"), nodes
    return SearchResult("found", tuple(cycles[i] for i in chosen)), nodes


def cdc_by_lowest_edge(g: Graph) -> SearchResult:
    """`oracle.brute_force_cdc` branching on the lowest open edge: its
    answers on an empty or bridged graph, then the search above on the
    same candidates and node budget."""
    if not g.edges:
        return SearchResult("found", ())
    if find_bridges(g):
        return SearchResult("absent")
    return exact_multicover_by_recount(sorted(g.edges), cycles_of(g), 2,
                                       branch="lowest", max_nodes=MAX_NODES)[0]


def rainbow_candidates(g: EdgeColoredGraph) -> list[Cycle]:
    """The cycles of g that are rainbow, or almost-rainbow at its bad
    vertex: the candidates `brute_force_rainbow_decomposition` searches."""
    bad = check_goodness(g).bad_vertex
    return [c for c in cycles_of(g)
            if len({g.coloring[e] for e in c.edges}) == len(c)
            or (bad is not None and bad in c and is_almost_rainbow_at(g, c, bad))]


def rainbow_decomposition_by_lowest_edge(g: EdgeColoredGraph) -> SearchResult:
    """`oracle.brute_force_rainbow_decomposition` branching on the lowest
    open edge: its answer on an empty graph, then the search above on the
    same candidates and node budget."""
    if not g.edges:
        return SearchResult("found", ())
    return exact_multicover_by_recount(sorted(g.edges), rainbow_candidates(g), 1,
                                       branch="lowest", max_nodes=MAX_NODES)[0]


def remove_one_at_a_time(g: EdgeColoredGraph, rep: GoodnessReport, batch,
                         ) -> tuple[EdgeColoredGraph, GoodnessReport]:
    """`decomposer._check_removal` one cycle at a time, from the
    definitions: each (tag, cycle) of the batch must have all its edges in
    the current graph and be rainbow, or almost-rainbow at the current
    graph's bad vertex (one color repeated once, on the cycle's two edges
    there); then the full goodness check of what is left must be good,
    after an almost-rainbow cycle or from a good graph, else almost-good.
    Returns the remainder, rebuilt by the validating constructors, and its
    report; raises the CaseVerificationError `_check_removal` raises, with
    the tag and cycle of the first that fails, or the tag "Engine" for an
    empty batch on a graph with edges."""
    if not batch and g.edges:
        raise CaseVerificationError("Engine", "case produced no cycles")
    h, r = g, rep
    for tag, cyc in batch:
        vs = cyc.vertices
        ring = [edge(u, w) for u, w in zip(vs, vs[1:] + vs[:1])]
        cols = [h.coloring.get(e) for e in ring]
        if None in cols:
            raise CaseVerificationError(
                tag, f"cycle {vs} is not a cycle of the current graph", cyc)
        # the cycle's two edges at vs[i] are ring[i - 1] and ring[i]
        at_bad = vs.index(r.bad_vertex) if r.bad_vertex in vs else None
        almost = (at_bad is not None and len(set(cols)) == len(cols) - 1
                  and cols[at_bad] == cols[at_bad - 1])
        if len(set(cols)) < len(cols) and not almost:
            raise CaseVerificationError(
                tag, f"cycle {vs} is neither rainbow nor almost-rainbow at the "
                f"bad vertex", cyc)
        rest = h.edit(drop=ring)
        rest_rep = check_goodness(rest)
        expected = (GoodnessVerdict.GOOD
                    if r.verdict is GoodnessVerdict.GOOD or almost
                    else GoodnessVerdict.ALMOST_GOOD)
        if rest_rep.verdict is not expected:
            raise CaseVerificationError(
                tag, f"removing {vs} leaves a {rest_rep.verdict.value} graph, "
                f"expected {expected.value}", cyc)
        h, r = rest, rest_rep
    return h, r


def build_transform_by_scan(parent: EdgeColoredGraph, tag: str, *,
                            drop=(), merge=(), add=()) -> EdgeColoredGraph:
    """`decomposer._build_transform` from scratch: scan every parent edge in
    sorted order, map it into the child or reject it at the first clash,
    and build the child graph, adjacency included, from its edge set."""
    dropset = {edge(*e) for e in drop}
    absent = dropset - parent.edges
    if absent:
        raise CaseVerificationError(tag, f"dropping absent edges {sorted(absent)}")
    rep_of = {v: min(grp) for grp in merge for v in grp}
    child_cols: dict[tuple[int, int], int] = {}
    for e in sorted(parent.edges):
        if e in dropset:
            continue
        u, v = e
        cu, cv = rep_of.get(u, u), rep_of.get(v, v)
        if cu == cv:
            raise CaseVerificationError(tag, f"edge {e} collapses into a loop")
        ce = edge(cu, cv)
        if ce in child_cols:
            raise CaseVerificationError(tag, f"edge {e} would become parallel")
        child_cols[ce] = parent.coloring[e]
    for u, v, c in add:
        ce = edge(rep_of.get(u, u), rep_of.get(v, v))
        if ce in child_cols:
            raise CaseVerificationError(tag, f"added edge {(u, v)} would be parallel")
        child_cols[ce] = c
    return EdgeColoredGraph(parent.n, child_cols)


def case2_1_run_by_scan(g: EdgeColoredGraph, path,
                        ) -> tuple[EdgeColoredGraph, GoodnessReport,
                                   list[tuple[int, int, int, int]]]:
    """`decomposer.case2_1` one Case 2.1 step at a time: contract the middle
    edge of v0 v1 v2 v3 with `build_transform_by_scan`, check the child in
    full and scan a fresh copy of it, and go on along its first singular
    chain while the engine's dispatch would pick Case2_1 on it: the child is
    good, not a single cycle, has no rainbow triangle, and its first chain
    has length at least 3. Returns the last child, its report and the paths
    contracted, in order."""
    paths = []
    h = g
    while True:
        v0, v1, v2, v3 = path[:4]
        paths.append((v0, v1, v2, v3))
        h = build_transform_by_scan(h, "Case2_1", merge=[(v1, v2)],
                                    drop=[edge(v1, v2)])
        rep = check_goodness(EdgeColoredGraph(h.n, h.coloring))
        single = (connected_ignoring_isolated(h.n, h.edges)
                  and all(len(nbrs) in (0, 2) for nbrs in h.adj))
        chains = h.singular_chains
        if (rep.verdict is not GoodnessVerdict.GOOD or single
                or h.rainbow_triangle is not None
                or not chains or chains[0][0] < 3):
            return h, rep, paths
        path = chains[0][1]


def connected_ignoring_isolated(n: int, edges) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    live = [v for v in range(n) if adj[v]]
    if not live:
        return True
    seen = {live[0]}
    stack = [live[0]]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return all(v in seen for v in live)


def triangles_by_sorting(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles as sorted vertex triples, lexicographically ordered:
    for each edge (u, v) in sorted order, the neighbors w > v of u that
    are neighbors of v."""
    out = []
    for u, v in sorted(g.edges):
        for w in g.adj[u]:
            if w > v and w in g.adj[v]:
                out.append((u, v, w))
    return out


def find_type_x_vertices(g: EdgeColoredGraph) -> frozenset[int]:
    """The Type X cut vertices from the graph's own Type X search; an
    accessor, not an oracle."""
    return frozenset(g.type_x_sides)


def serialize_edge_list(g: Graph) -> str:
    """g in the `n N` / `u v` text that `parse_edge_list` reads."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def color_classes(g: EdgeColoredGraph) -> dict[int, frozenset]:
    """Each color's edges, by color."""
    by_color: dict[int, set] = {}
    for e, c in g.coloring.items():
        by_color.setdefault(c, set()).add(e)
    return {c: frozenset(es) for c, es in sorted(by_color.items())}


# ---------------------------------------------------------------------------
# graph6 by the list of all n(n-1)/2 bits


def parse_graph6_by_bit_list(text: str) -> Graph:
    """One graph6 line, read through the list of all its body bits."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = s.encode("ascii")
    n, off = _g6_decode_n(data)
    nbits = n * (n - 1) // 2
    body = data[off:]
    if len(body) != (nbits + 5) // 6:
        raise GraphError(f"graph6 body of {len(body)} bytes for n={n}")
    bits = []
    for b in body:
        if not (63 <= b <= 126):
            raise GraphError(f"out-of-range character {b}")
        x = b - 63
        bits.extend((x >> k) & 1 for k in range(5, -1, -1))
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.add((u, v))
            idx += 1
    return Graph(n, frozenset(edges))


def serialize_graph6_by_bit_list(g: Graph) -> str:
    """g as graph6, through the list of all its body bits."""
    n = g.n
    if n <= 62:
        head = [63 + n]
    else:
        head = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        body.append(63 + x)
    return bytes(head + body).decode("ascii")


# ---------------------------------------------------------------------------
# isomorphism for small cubic graphs


def _invariant(g: Graph) -> tuple:
    counts = [0, 0, 0]  # triangles, squares, pentagons
    # cycle counts up to length 5 by brute paths from each anchor
    for s in range(g.n):
        stack = [([s])]
        while stack:
            path = stack.pop()
            v = path[-1]
            for w in g.adj[v]:
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    counts[len(path) - 3] += 1
                elif w > s and w not in path and len(path) < 5:
                    stack.append(path + [w])
    return (g.n, g.m, tuple(counts))


def _isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    order = _bfs_order(g)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        anchors = [(u, mapping[u]) for u in g.adj[v] if u in mapping]
        if anchors:
            cands = set(h.adj[anchors[0][1]])
            for _, hu in anchors[1:]:
                cands &= set(h.adj[hu])
            cands -= used
        else:
            cands = set(range(h.n)) - used
        for t in sorted(cands):
            if h.degree(t) != g.degree(v):
                continue
            ok = all((min(mapping[u], t), max(mapping[u], t)) in h.edges
                     for u in g.adj[v] if u in mapping)
            if not ok:
                continue
            mapping[v] = t
            used.add(t)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(t)
        return False

    return extend(0)


def _bfs_order(g: Graph) -> list[int]:
    seen, order = set(), []
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


class IsoDeduper:
    """Collects isomorphism-class representatives of small graphs."""

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[Graph]] = {}

    def add(self, g: Graph) -> bool:
        """True if g was a new class."""
        key = _invariant(g)
        reps = self.buckets.setdefault(key, [])
        for r in reps:
            if _isomorphic(g, r):
                return False
        reps.append(g)
        return True

    @property
    def classes(self) -> list[Graph]:
        return [g for reps in self.buckets.values() for g in reps]
