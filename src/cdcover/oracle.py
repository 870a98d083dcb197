"""Ground-truth generators and brute-force solvers.

These certify the main algorithm on small instances: exhaustive simple-cycle
enumeration, exact-cover backtracking for cycle double covers (per-edge
demand 2) and rainbow decompositions (demand 1), and a pairing-model sampler
for random cubic bridgeless graphs.

Both oracles require a budget in seconds (`math.inf` for none), one deadline
for the enumeration and the cover search, which also stops after MAX_NODES
nodes, read as it starts; either limit answers `indeterminate`.
"""
from __future__ import annotations

import random
import time

from .coloring import EdgeColoredGraph, check_goodness, is_almost_rainbow_at
from .graphs import Cycle, Graph, GraphError, _Record, edge, find_bridges, is_connected

# samples the pairing model draws before `random_cubic_bridgeless` gives up
MAX_REJECTIONS = 20000
# search nodes an exhaustive search visits before it answers `indeterminate`
MAX_NODES = 2_000_000


class GeneratorConfig(_Record):
    def __init__(self, vertex_count: int, seed: int) -> None:
        if vertex_count < 4 or vertex_count % 2:
            raise GraphError(
                f"cubic graphs need an even vertex count >= 4, got {vertex_count}")
        self._set(vertex_count=vertex_count, seed=seed)


class SearchResult(_Record):
    """Outcome of a budgeted exhaustive search.

    `indeterminate` means the budget ran out: distinct from `absent`, so a
    timeout is never mistaken for a proof of nonexistence.
    """

    def __init__(self, status: str,  # "found" | "absent" | "indeterminate"
                 cycles: tuple[Cycle, ...] | None = None) -> None:
        self._set(status=status, cycles=cycles)

    @property
    def found(self) -> bool:
        return self.status == "found"


def enumerate_cycles(g: Graph, deadline: float,
                     ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All simple cycles of g, as (vertices, edge ids) pairs sorted by
    (length, vertices).

    An edge's id is its index in `sorted(g.edges)`. Each cycle is walked
    once, as (s, a, ..., b) with s its minimum vertex and a < b its two
    neighbours on the cycle, so its vertex tuple is already canonical, the
    tuple `Cycle(vertices)` keeps. For each start s and each first step a,
    in ascending order, one backtracking walk extends a single path through
    vertices above s, with a per-vertex `on_path` flag and a stack of
    neighbour iterators, and backs off in place. It records each edge's id
    as it goes, from a table of (w, id of edge(v, w)) built once; id i of a
    cycle names the edge joining vertices i and i+1, the edge
    `Cycle(vertices).edges[i]`.

    The walk only closes through a *closer*, a neighbour of s above a, and
    two cuts drop only paths that cannot close. The largest neighbour of s
    above s has no closer, so no walk starts there. A count of the closers
    not on the path falls when one is appended and rises when it is
    popped; at 0 the path stops growing, as every closer it could end at
    is on it. The closing test at the path's end does not read the count,
    so the path that takes the last free closer still closes.

    Raises TimeoutError once `time.monotonic()` passes `deadline`, read
    every few hundred extensions.
    """
    steps_per_check = 256
    index = {e: k for k, e in enumerate(sorted(g.edges))}
    nbrs = [tuple((w, index[edge(v, w)]) for w in ws) for v, ws in enumerate(g.adj)]
    on_path = [False] * g.n
    closer = [False] * g.n
    found: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    countdown = steps_per_check
    for s in range(g.n):
        # s stays flagged once its walks end, so later walks skip every
        # vertex below their start by the same test as the path's own
        on_path[s] = True
        firsts = [(w, e) for w, e in nbrs[s] if w > s]
        for w, _ in firsts:
            closer[w] = True
        free = len(firsts)
        for a, first in firsts[:-1]:
            closer[a] = False
            free -= 1
            path, ids = [s, a], [first]
            on_path[a] = True
            stack = [iter(nbrs[a])]
            while stack:
                for w, e in stack[-1]:
                    if w == s:
                        if closer[path[-1]]:
                            found.append((len(path), tuple(path), (*ids, e)))
                    elif free and not on_path[w]:
                        countdown -= 1
                        if not countdown:
                            countdown = steps_per_check
                            if time.monotonic() > deadline:
                                raise TimeoutError
                        path.append(w)
                        ids.append(e)
                        on_path[w] = True
                        if closer[w]:
                            free -= 1
                        stack.append(iter(nbrs[w]))
                        break
                else:
                    stack.pop()
                    v = path.pop()
                    on_path[v] = False
                    ids.pop()
                    if closer[v]:
                        free += 1
        if firsts:
            closer[firsts[-1][0]] = False
    found.sort()  # vertex tuples are distinct, so no two id tuples are compared
    return [(vertices, ids) for _, vertices, ids in found]


def _exact_multicover(m: int, cycles: list[tuple[tuple[int, ...], tuple[int, ...]]],
                      demand: int, deadline: float) -> SearchResult:
    """Backtracking cover of each of m edges exactly `demand` times by
    cycles, given as `enumerate_cycles` lists them: (vertices, edge ids)
    pairs, the ids in 0..m-1.

    A cycle may be chosen again while its edges have demand left, so each
    candidate is listed once. A set of candidates is one int, bit i for
    candidate i: `through[k]` is the set of candidates through edge k.
    `remaining[k]` is the demand left on edge k, and a node's `usable` set,
    the candidates with no full edge, is its argument, so backtracking
    restores it through the call stack.

    A node counts each open edge's usable candidates as
    `(through[k] & usable).bit_count()` and branches on the first open edge
    with the fewest, the minimum of (usable count, id); both callers number
    the edges in sorted order, so that is the minimum of (usable count,
    edge), the edge a recount would pick. It tries that edge's usable
    candidates from the lowest bit up. Taking candidate i lowers
    `remaining` on its edges and, for each edge k that reaches 0, clears
    `through[k]` from the usable set of the child. Only the members of the
    cover it returns become `Cycle`s.
    """
    cands = [ids for _, ids in cycles]
    through = [0] * m
    for i, ids in enumerate(cands):
        bit = 1 << i
        for k in ids:
            through[k] |= bit
    remaining = [demand] * m
    max_nodes = MAX_NODES
    closed = len(cycles) + 1  # above every count, for an edge with no demand left
    chosen: list[int] = []
    nodes = [0]

    def search(usable: int) -> bool:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise TimeoutError
        if nodes[0] % 64 == 0 and time.monotonic() > deadline:
            raise TimeoutError
        counts = [(t & usable).bit_count() if left else closed
                  for t, left in zip(through, remaining)]
        fewest = min(counts, default=closed)
        if fewest == closed:
            return True
        options = through[counts.index(fewest)] & usable
        while options:
            low = options & -options
            options ^= low
            i = low.bit_length() - 1
            child = usable
            for k in cands[i]:
                remaining[k] -= 1
                if not remaining[k]:
                    child &= ~through[k]
            chosen.append(i)
            if search(child):
                return True
            chosen.pop()
            for k in cands[i]:
                remaining[k] += 1
        return False

    try:
        ok = search((1 << len(cycles)) - 1)
    except TimeoutError:
        return SearchResult("indeterminate")
    finally:
        # `search` calls itself through its closure cell, a reference
        # cycle: empty the cell, so that its lists are freed on return
        del search
    if not ok:
        return SearchResult("absent")
    return SearchResult("found", tuple(Cycle(cycles[i][0]) for i in chosen))


def brute_force_cdc(g: Graph, time_budget: float) -> SearchResult:
    """Exhaustive search for a cycle double cover (cycles may repeat).

    Intended for small graphs; returns `indeterminate` when `time_budget`
    seconds, which bound the cycle enumeration too, or MAX_NODES search
    nodes run out. Every enumerated cycle is a candidate, by its edge ids;
    only the members of a found cover become `Cycle`s. Each cycle is
    listed once and may fill both slots of its edges. Listing it twice
    changes no answer: every open edge's `bit_count` of usable candidates
    doubles, so each node branches on the same edge, and a copy's subtree
    is its original's, so the first cover is the same. It only explores
    each failed subtree twice, so it differs only by running out of budget
    sooner.
    """
    deadline = time.monotonic() + time_budget
    if find_bridges(g):
        return SearchResult("absent")  # a bridge lies on no cycle
    try:
        cycles = enumerate_cycles(g, deadline)
    except TimeoutError:
        return SearchResult("indeterminate")
    return _exact_multicover(g.m, cycles, 2, deadline)


def brute_force_rainbow_decomposition(g: EdgeColoredGraph,
                                      time_budget: float) -> SearchResult:
    """Exhaustive search for a partition of E into rainbow cycles.

    Returns `indeterminate` when `time_budget` seconds, which bound the
    cycle enumeration too, or MAX_NODES search nodes run out. A cycle is a
    rainbow candidate when its edge ids name distinct colors, read from
    one list of colors by id. On an almost-good input, one member may be
    almost-rainbow at the bad vertex b; a cycle through b becomes a `Cycle`
    for `is_almost_rainbow_at`, and otherwise only the members of a found
    decomposition do. The demand of 1 per edge admits at most one such
    candidate: b has degree 2 and its two edges share a color, so no
    rainbow cycle uses them, and every almost-rainbow candidate uses both.
    """
    deadline = time.monotonic() + time_budget
    bad = check_goodness(g).bad_vertex
    try:
        cycles = enumerate_cycles(g, deadline)
    except TimeoutError:
        return SearchResult("indeterminate")
    colors = [g.coloring[e] for e in sorted(g.edges)]
    candidates = [
        (vertices, ids) for vertices, ids in cycles
        if len({colors[k] for k in ids}) == len(ids)
        or (bad is not None and bad in vertices
            and is_almost_rainbow_at(g, Cycle(vertices), bad))]
    return _exact_multicover(len(colors), candidates, 1, deadline)


def random_cubic_bridgeless(cfg: GeneratorConfig) -> Graph:
    """Sample a random cubic bridgeless graph by the pairing model.

    Three stubs per vertex are matched by a Fisher-Yates shuffle of the stub
    list (consecutive pairs form edges); samples with self-loops, parallel
    edges, disconnection, or bridges are rejected. Deterministic for a given
    seed: the only randomness is `Random.randrange` on the stated shuffle.
    """
    rng = random.Random(cfg.seed)
    n = cfg.vertex_count
    for _ in range(MAX_REJECTIONS):
        stubs = [v for v in range(n) for _ in range(3)]
        for i in range(len(stubs) - 1, 0, -1):
            j = rng.randrange(i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        pairs = [(stubs[k], stubs[k + 1]) for k in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        edges = {edge(u, v) for u, v in pairs}
        if len(edges) != len(pairs):
            continue
        g = Graph(n, frozenset(edges))
        if not is_connected(g):
            continue
        if find_bridges(g):
            continue
        return g
    raise GraphError(
        f"pairing sampler exhausted {MAX_REJECTIONS} rejections at n={n}")
