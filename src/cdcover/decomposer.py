"""Inductive rainbow cycle decomposition of good / almost-good colored graphs.

The engine peels one batch of cycles at a time from each connected component,
dispatching on local structure:

  * a component that is a single cycle, its one singular chain, is
    emitted directly;
  * a rainbow triangle is always safe to remove;
  * an almost-good component reduces through its bad vertex (Case1_1 when
    the bad vertex's neighbors are adjacent, Case1_2 otherwise);
  * an all-Type-II component yields a greedy color-avoiding cycle;
  * a singular path of length >= 3 contracts Type I edges, as long as the
    next dispatch would contract again, in one reduction (Case2_1);
  * otherwise a Type I vertex flanked by Type II vertices drives the
    Case2_2 family, splitting on how the flanking neighborhoods overlap.

A reduction builds a strictly smaller good or almost-good colored graph,
the child, with a rule that lifts the child's cycles back to the parent.
A child is built by drops, merges and adds on the parent's vertex ids: a
merged group keeps its least id, and a merged-away vertex, or one whose
edges are all dropped, stays, isolated. So every child, like every
peel's remainder, is one local `edit` of its parent, and the lift
rewrites only the child cycles through the vertices the reduction changed,
and hands every other one up as it is, a cycle of the parent. No child's
goodness is checked in full; each case derives its child's report by a
lemma in the coloring module docstring. Contracting an edge inside a
singular path of a good graph keeps it good unless that closes a
two-colored triangle, so Case2_1 derives the report, and the child's
components, rainbow triangle and singular chains, from the parent's.
Applied step by step, the lemma lets one Case2_1 reduction contract a
whole run of the paper's one-edge steps, each along the first singular
chain the last one left, until the next dispatch would pick another case:
the run has one child, one lift and one verification of its lifted
cycles. The other reduction lemmas show that every other child meets
conditions 1-5, the Type X contraction lemma that a contraction's child,
Case1_1's, Case1_2's, Case2_2_2b's or Case2_2_2c's, has no Type X vertex
either, and the rewired-child lemma the same of Case2_2_2a's rewired
child, so each is good with no search. Each lemma-good child is made one
way, by `_good_reduction`, which fills its components and its empty Type
X map, and lifts it by `_contraction_lift`s. Case2_2_1b's child, the end
x-block of a merged graph whose only defect is Type X, needs no search
either: the end-block path lemma puts the merged vertex in an end x-block,
and the end-block lemma proves it almost-good at the vertex that joins it
to the rest, and gives it the same two facts.
The engine's state is a graph and its bad vertex, `bad`, or None when
the graph is good: the one defect a good or almost-good graph may have.
A reduction refuses nothing its parent's goodness proves. A case's
hypothesis is in its signature: Case1_1 and Case1_2 take the bad vertex,
and every other case a good graph, with no report; the dispatch's branch
that reaches it, which each public case checks at most once; and, for a
Case2_2 subcase, the shape `extract_case2_2_pattern` read. The pattern
the case reads off follows from these by the lemma's own argument, so no case
re-checks a degree, a color or an overlap, nor the one configuration that
would break a lemma, which no good or almost-good parent has, nor a loop
or parallel edge in its child. What is left are the four wrong-case
guards; the Type X search of Case2_2_1's merged child refuses nothing,
as it picks the subcase. Only the one entry, `decompose`, checks a graph
in full, the root, and only it and `_verified_trace` read a
`GoodnessReport`. The engine is one loop over an explicit stack of
frames: a reduction's child is peeled on a frame above its waiting
parent, so the depth of the reduction tree costs no Python recursion.
The waiting frame keeps the reduction's lift and not its child, which is
freed once its own frame takes its first batch. Every removal, a lift's
batch like any other, is verified by `_check_removal`: one linear sweep
types the batch's cycles, which by the typing lemma in the coloring
module docstring settles conditions 1-5 of what the batch leaves, and its
bad vertex, and one `removal_leaves_type_x` settles condition 6, or none
when the batch leaves nothing. That check runs a Type X search only when
the one-arc removal lemma does not settle condition 6:
for a batch of several cycles, or one cycle whose degree-4 vertices lie
on two or more arcs. By the removal lemma in the coloring module
docstring, this accepts exactly the batches whose cycles pass the checks
one at a time. So a direct peel, one cycle and no child, has no check of its own.
A lift refuses nothing its input proves: the input is the child's
partition into checked cycles, so a vertex of degree 2k in the child lies
on exactly k of them, and a rainbow one through a vertex of two colors
uses one edge of each, and by the split lemma Case2_2_2a's child puts
v and w on different cycles. So each lift is checked once, by the check
of its batch, and refuses nothing.
The check returns a `_Checked` record of the batch, the remainder and its
bad vertex, or raises. A case, lift or fallback search that must check a
batch to choose it hands the engine that record, which is applied as it is. Any
failed verification falls back to a shortest-first search for a safely
removable cycle. If that also fails, the nearest waiting parent runs the
search on its own graph, and so on outward; past the root the run ends in
a serializable, replayable CaseFailure instead of an unverified answer.
The output covers the root, so one sweep certifies it there, and the lemma
gives each step's report.
"""
from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence

from .coloring import (
    GOOD_REPORT,
    EdgeColoredGraph,
    GoodnessReport,
    almost_good_at,
    check_goodness,
    is_almost_rainbow_at,
    parse_colored_edge_list,
    removal_leaves_type_x,
    serialize_colored_edge_list,
    split_components,
    x_block,
)
from .graphs import Cycle, Edge, _Record, edge

BASE_CYCLE = "BaseCycle"
RAINBOW_TRIANGLE = "RainbowTriangle"
ALL_TYPE_II = "AllTypeII"
CASE_1_1 = "Case1_1"
CASE_1_2 = "Case1_2"
CASE_2_1 = "Case2_1"
CASE_2_2_1A = "Case2_2_1a"
CASE_2_2_1B = "Case2_2_1b"
CASE_2_2_2A = "Case2_2_2a"
CASE_2_2_2B = "Case2_2_2b"
CASE_2_2_2C = "Case2_2_2c"
CASE_2_2_2D = "Case2_2_2d"
FALLBACK = "Fallback"

CASE_TAGS = frozenset({
    BASE_CYCLE, RAINBOW_TRIANGLE, ALL_TYPE_II, CASE_1_1, CASE_1_2, CASE_2_1,
    CASE_2_2_1A, CASE_2_2_1B, CASE_2_2_2A, CASE_2_2_2B, CASE_2_2_2C,
    CASE_2_2_2D, FALLBACK,
})


class DecomposeError(ValueError):
    """Precondition violation on a decomposition entry point."""


class CaseVerificationError(DecomposeError):
    """A case's pattern or postcondition failed its runtime verification;
    `problem` is the message without the case's tag."""

    def __init__(self, case: str, message: str, cycle: Cycle | None = None):
        self.case = case
        self.problem = message
        self.cycle = cycle
        super().__init__(f"{case}: {message}")


class _EngineFailure(Exception):
    """Internal: no case and no fallback made progress; carries diagnostics,
    with the bad vertex of `graph`, or None when it is good."""

    def __init__(self, case: str, graph: EdgeColoredGraph, message: str,
                 cycle: Cycle | None, bad: int | None):
        self.case = case
        self.graph = graph
        self.message = message
        self.cycle = cycle
        self.bad = bad
        super().__init__(message)


# ---------------------------------------------------------------------------
# reductions


def _build_transform(parent: EdgeColoredGraph, *,
                     drop: Iterable[Edge] = (),
                     merge: Iterable[Sequence[int]] = (),
                     add: Iterable[tuple[int, int, int]] = (),
                     ) -> EdgeColoredGraph:
    """Build the child graph for a reduction on the parent's vertex ids
    from three edits: `drop` parent edges, `merge` groups of vertices, and
    `add` colored edges. A merge group becomes its least vertex, and the
    group's other vertices, like a vertex whose edges are all dropped,
    stay in range(n) with no edges.

    `add` endpoints may name any member of a merge group. Only the edges at
    merged vertices move, so the child is one `edit` of the parent. Each
    case's reduction lemma in the coloring module docstring shows that its
    edits make no loop and no parallel edge, so none is looked for."""
    rep_of = {v: min(grp) for grp in merge for v in grp}
    dropset = {edge(*e) for e in drop}
    moved = {edge(x, w) for x in rep_of for w in parent.adj[x]} - dropset
    new = {edge(rep_of.get(u, u), rep_of.get(v, v)): parent.coloring[(u, v)]
           for u, v in moved}
    new.update((edge(rep_of.get(u, u), rep_of.get(v, v)), c) for u, v, c in add)
    return parent.edit(drop=dropset | moved, add=new)


# ---------------------------------------------------------------------------
# trace types


class TraceStep(_Record):
    def __init__(self, case: str, cycle: Cycle, goodness: GoodnessReport) -> None:
        self._set(case=case, cycle=cycle, goodness=goodness)

    def to_json(self) -> dict:
        return {"case": self.case, "cycle": list(self.cycle.vertices),
                "goodness": self.goodness.to_json()}


class CaseFailure(_Record):
    """Replayable evidence that some case (and the fallback) failed.
    `prescribed` is the run's prescribed cycle when `graph_text` is the
    run's input, so that a replay is the run that failed."""

    def __init__(self, case: str, graph_text: str, message: str,
                 cycle: Cycle | None, goodness: GoodnessReport | None,
                 prescribed: Cycle | None) -> None:
        self._set(case=case, graph_text=graph_text, message=message,
                  cycle=cycle, goodness=goodness, prescribed=prescribed)

    def to_json(self) -> dict:
        out = {"status": "case_failure", "case": self.case,
               "graph": self.graph_text, "message": self.message,
               "cycle": list(self.cycle.vertices) if self.cycle else None,
               "goodness": self.goodness.to_json() if self.goodness else None}
        if self.prescribed is not None:
            out["prescribed"] = list(self.prescribed.vertices)
        return out


class DecompositionTrace(_Record):
    def __init__(self, steps: tuple[TraceStep, ...],
                 cycles: tuple[Cycle, ...] | None,  # set on success, almost-rainbow first
                 failure: CaseFailure | None = None) -> None:
        self._set(steps=steps, cycles=cycles, failure=failure)

    @property
    def success(self) -> bool:
        return self.failure is None

    def to_json(self) -> dict:
        out: dict = {"steps": [s.to_json() for s in self.steps]}
        if self.success:
            out["outcome"] = {"status": "success",
                              "cycles": [list(c.vertices) for c in self.cycles]}
        else:
            out["outcome"] = self.failure.to_json()
        return out


class CasePattern:
    """Bound local labels for the Case2_2 family, all ints.

    v is Type I with neighbors x1, x2 (both Type II); alpha/beta are the
    colors at v, doubled at x1/x2 toward y1/y2; gamma/delta are the second
    colors at x1/x2, toward {w1, z1} and {w2, z2}. Only
    `extract_case2_2_pattern` builds one, already labelled as its shape's
    subcase reads it, so no subcase relabels it.
    """

    __slots__ = ("v", "x1", "x2", "alpha", "beta", "y1", "y2",
                 "w1", "w2", "z1", "z2", "gamma", "delta")

    def __init__(self, v, x1, x2, alpha, beta, y1, y2, w1, w2, z1, z2, gamma, delta):
        self.v, self.x1, self.x2, self.alpha, self.beta = v, x1, x2, alpha, beta
        self.y1, self.y2, self.w1, self.w2, self.z1, self.z2 = y1, y2, w1, w2, z1, z2
        self.gamma, self.delta = gamma, delta


class CaseReduction:
    """A case's smaller graph plus its lift rule.

    The engine decomposes `child`, which has the parent's vertex ids and
    which the case's lemma proves good, or almost-good at the vertex
    `bad`, and hands the tagged cycles to `lift`, which turns them into
    tagged cycles of the parent (possibly covering only part of the
    parent, in which case the engine keeps peeling the remainder). The
    engine removes the lifted batch by `_check_removal`, unless the lift
    returns the `_Checked` of its own call of it.
    """

    __slots__ = ("child", "lift", "bad")

    def __init__(self, child: EdgeColoredGraph,
                 lift: Callable[[list[tuple[str, Cycle]]],
                                list[tuple[str, Cycle]] | _Checked],
                 bad: int | None) -> None:
        self.child, self.lift, self.bad = child, lift, bad


# ---------------------------------------------------------------------------
# small helpers


def _require(cond: bool, case: str, message: str) -> None:
    """Refuse under the case `case`, with the constant text `message`,
    unless `cond` holds."""
    if not cond:
        raise CaseVerificationError(case, message)


def _rotate_to(seq: Sequence[int], v: int) -> list[int]:
    i = list(seq).index(v)
    return list(seq[i:]) + list(seq[:i])


def _lift_through(c: Cycle, m: int,
                  expansion: Callable[[int, int], list[int]]) -> Cycle:
    """Lift a child cycle through special vertex m.

    Rotates the cycle to [m, a, ..., b] and replaces m by expansion(a, b), a
    parent path whose last vertex is adjacent to a and whose first is
    adjacent to b. The child has the parent's vertex ids, so a ... b stays.
    """
    rest = _rotate_to(c.vertices, m)[1:]
    return Cycle(tuple(expansion(rest[0], rest[-1]) + rest))


def _oriented(mid: list[int], near: Collection[int]) -> Callable[[int, int], list[int]]:
    """An expansion for `_lift_through`: the path `mid`, whose last vertex is
    adjacent to the vertices of `near`, turned to end next to a."""
    return lambda a, b: mid if a in near else mid[::-1]


def _good_reduction(g: EdgeColoredGraph, child: EdgeColoredGraph, gone: Collection[int],
                    lifts: Sequence[Callable[[list[tuple[str, Cycle]]],
                                             list[tuple[str, Cycle]]]]) -> CaseReduction:
    """The reduction of g to `child`, which a lemma in the coloring module
    docstring proves good, with g's components less the vertices `gone`
    as its components, so it has no bad vertex, with no search.
    Both cut facts are filled here: those components and the empty Type X
    map. Its lift applies the `_contraction_lift`s in `lifts` in order."""
    child.__dict__["components"] = tuple(comp - gone for comp in g.components)
    child.__dict__["type_x_sides"] = {}

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]]:
        for step in lifts:
            sub = step(sub)
        return sub

    return CaseReduction(child, lift, None)


def _contraction(g: EdgeColoredGraph, tag: str,
                 expansions: Sequence[Callable[[int, int], list[int]]],
                 merge: Sequence[int], **build) -> CaseReduction:
    """Merge the connected set `merge` into one vertex m = min(merge) of a
    good child, with `build`'s drops and adds, and lift it by
    `_contraction_lift`, under the case `tag`. The case's reduction lemma
    in the coloring module docstring proves that the child meets
    conditions 1-5 with no vertex of color degree 1, and the Type X
    contraction lemma there that it has no Type X vertex; contracting a
    connected set keeps each component connected, so `_good_reduction`
    makes it, with the merged-away vertices gone."""
    m = min(merge)
    return _good_reduction(g, _build_transform(g, merge=[merge], **build),
                           set(merge) - {m}, [_contraction_lift(tag, expansions, m)])


def _contraction_lift(tag: str,
                      expansions: Sequence[Callable[[int, int], list[int]]],
                      m: int,
                      ) -> Callable[[list[tuple[str, Cycle]]], list[tuple[str, Cycle]]]:
    """The lift of a child in which a contraction made vertex m: it expands
    the i-th child cycle through m by `expansions[i]` and hands every other
    cycle up as it is, since a child cycle that avoids m is a cycle of the
    parent. m has degree 2k in the child, for k expansions, so it lies on
    exactly k of the child's cycles. m may also be Case2_2_2a's rewired w
    or v, a vertex of degree 2 that the lift puts x1 and x2 back around."""

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]]:
        through: list[Cycle] = []
        rest: list[tuple[str, Cycle]] = []
        for t, c in sub:
            if m in c.vertices:
                through.append(c)
            else:
                rest.append((t, c))
        return [(tag, _lift_through(c, m, exp))
                for c, exp in zip(through, expansions)] + rest

    return lift


def _all_type2(g: EdgeColoredGraph) -> bool:
    """Whether g is connected and every vertex with edges is Type II: degree
    4, two colors, each on two of its edges. `decompose` asks it of a
    graph with a prescribed cycle before it checks the graph's goodness;
    on a good component, the dispatch reads the same from `type1`."""
    comps = g.components
    if len(comps) != 1 or len(g.coloring) != 2 * len(comps[0]):
        return False  # not every vertex with edges has degree 4
    for v in comps[0]:
        cols = g.colors_at(v)
        if not (len(cols) == 4 and len(set(cols)) == 2
                and all(cols.count(c) == 2 for c in set(cols))):
            return False
    return True


class _Checked:
    """A batch [(tag, cycle), ...] that `_check_removal`, the only place
    one is made, accepted for removal from a graph, with what the removal
    leaves, `rest`, and its bad vertex, `bad`, or None when it is good."""

    __slots__ = ("batch", "rest", "bad")

    def __init__(self, batch: Sequence[tuple[str, Cycle]], rest: EdgeColoredGraph,
                 bad: int | None) -> None:
        self.batch, self.rest, self.bad = batch, rest, bad


def _check_removal(h: EdgeColoredGraph, bad: int | None,
                   batch: Sequence[tuple[str, Cycle]]) -> _Checked:
    """Validate removing a batch [(tag, cycle), ...] from h, which is good,
    or almost-good at `bad`; raises a CaseVerificationError with the tag
    and cycle of the culprit if it fails, or with the tag "Engine" for an
    empty batch on a graph that still has edges.

    One sweep types the cycles in order: each edge is in h and in no
    earlier cycle, and each cycle is rainbow, but one may be almost-rainbow
    at the bad vertex; the first that fails is the culprit. By the typing
    lemma in the coloring module docstring, what the batch leaves then
    meets conditions 1-5, with the bad vertex `bad` while no cycle passes
    through it and none from that cycle on. So one `removal_leaves_type_x`
    of what it leaves, none if it leaves nothing, settles the rest: by the
    removal lemma there, this accepts exactly what checking one cycle at a
    time accepts. If that finds a Type X vertex, the batch's last cycle is
    the culprit.
    """
    coloring = h.coloring
    if not batch and coloring:
        raise CaseVerificationError("Engine", "case produced no cycles")
    seen: set[Edge] = set()
    for tag, cyc in batch:
        cols = set()
        for e in cyc.edges:
            if e in seen or e not in coloring:
                raise CaseVerificationError(
                    tag, f"cycle {cyc.vertices} is not a cycle of the current graph",
                    cyc)
            seen.add(e)
            cols.add(coloring[e])
        if len(cols) < len(cyc):
            if bad is None or bad not in cyc or not is_almost_rainbow_at(h, cyc, bad):
                raise CaseVerificationError(
                    tag, f"cycle {cyc.vertices} is neither rainbow nor "
                    f"almost-rainbow at the bad vertex", cyc)
            # b has degree 2, so no later cycle of the batch meets it
            bad = None
    if len(seen) == len(coloring):
        return _Checked(batch, EdgeColoredGraph(h.n, {}), None)
    rest = h.edit(drop=seen)
    if removal_leaves_type_x(rest, h, [cyc for _, cyc in batch]):
        tag, cyc = batch[-1]
        raise CaseVerificationError(
            tag, f"removing {cyc.vertices} leaves a not_good graph, expected "
            f"{'good' if bad is None else 'almost_good'}", cyc)
    return _Checked(batch, rest, bad)


# ---------------------------------------------------------------------------
# greedy cycle in an all-Type-II graph


def _all_type2_cycle(g: EdgeColoredGraph) -> Cycle:
    """The greedy color-avoiding walk's cycle on a good all-Type-II graph.

    From the least vertex, step to the least neighbor by an unused color;
    the start counts once the path has 3 vertices. Color classes are
    triangles, so no vertex repeats, and stuck at cur, cur's color alpha
    other than its arrival color was used on the edge joining its two
    alpha-neighbors: the path after that edge is the cycle, of at least 3
    vertices, as cur's arrival edge is not of color alpha."""
    start = min(g.components[0])
    path = [start]
    at: dict[int, int] = {}  # used color -> index of the path edge using it
    while True:
        cur = path[-1]
        nxt = next((w for w in g.adj[cur] if g.color(cur, w) not in at
                    and (w != start or len(path) >= 3)), None)
        if nxt == start:
            return Cycle(tuple(path))
        if nxt is None:
            arrive = g.color(path[-2], cur)
            alpha = next(c for c in g.colors_at(cur) if c != arrive)
            return Cycle(tuple(path[at[alpha] + 1:]))
        at[g.color(cur, nxt)] = len(path) - 1
        path.append(nxt)


# ---------------------------------------------------------------------------
# Case 1: almost-good


def case1_1(g: EdgeColoredGraph, v: int) -> CaseReduction:
    """Bad vertex with adjacent neighbors: contract the monochromatic triangle.

    The two child cycles through the merged vertex lift by inserting the
    path x1-v-x2 (giving the one almost-rainbow cycle) and the edge x1-x2.
    g is almost-good at v; the child is good, by the pair lemma and the
    Type X contraction lemma in the coloring module docstring. The case
    checks only that x1 ~ x2, the dispatch's branch: g's goodness and the
    branch prove the rest of the lemma's pattern (see the Case1_1
    paragraph there).
    """
    tag = CASE_1_1
    x1, x2 = sorted(g.adj[v])
    _require(g.has_edge(x1, x2), tag, "neighbors not adjacent")
    side1 = [w for w in g.adj[x1] if w not in (v, x2)]
    return _contraction(
        g, tag, (_oriented([x2, v, x1], side1), _oriented([x2, x1], side1)),
        merge=(v, x1, x2), drop=[edge(v, x1), edge(v, x2), edge(x1, x2)])


def case1_2(g: EdgeColoredGraph, v: int) -> CaseReduction:
    """Bad vertex with non-adjacent Type I neighbors: contract one bad edge.

    The child cycle through the merged vertex subdivides back into the
    almost-rainbow cycle through v; everything else lifts unchanged. g is
    almost-good at v; the child is good, by the edge lemma and the Type X
    contraction lemma in the coloring module docstring. The case checks
    only that x1 and x2 are not adjacent, the dispatch's branch: by that
    lemma, x1 and x2 then have degree 2, and no almost-good parent closes
    a two-colored triangle (m, x2, y1).
    """
    tag = CASE_1_2
    x1, x2 = sorted(g.adj[v])
    _require(not g.has_edge(x1, x2), tag, "neighbors adjacent; wrong case")
    y1 = next(w for w in g.adj[x1] if w != v)
    # the merged vertex splits back into x1-v; x1 attaches toward y1
    return _contraction(g, tag, (_oriented([v, x1], (y1,)),),
                        merge=(v, x1), drop=[edge(v, x1)])


# ---------------------------------------------------------------------------
# Case 2.1: a singular path of length >= 3


def case2_1(g: EdgeColoredGraph) -> CaseReduction:
    """Contract the middle edge of the singular path v0 v1 v2 v3 that opens
    g's first singular chain, and go on while the next dispatch would pick
    Case2_1 again: while the contracted graph has no rainbow triangle and
    its first singular chain still has length at least 3, contract that
    chain's first inner edge. Each step is the paper's one-edge Case 2.1;
    the run is one reduction.

    g is good, and the case checks only that the first chain has length at
    least 3, the dispatch's branch. A step with lo, hi = min and max of
    v1, v2 drops lo-hi and gives hi's other edge to lo with its color,
    leaving hi isolated. By the contraction lemma in the coloring module
    docstring, each step's child is good, as no good parent has a chord
    v0v3 of color c(v0v1) or c(v2v3), and g's components, rainbow
    triangle and singular chains carry over from step to step. So each
    step's path, the first four vertices of the first chain, needs no
    check of its own: they are distinct, as a chain of length 3 that
    closes is a triangle through two Type I vertices, so rainbow, and
    the run stops at one. The child is one `edit` of g. It gets its
    rainbow triangle and singular chains here, and its components and
    empty Type X map from `_good_reduction`, whose lift applies the
    steps' one-edge `_contraction_lift`s, innermost first: each splits
    its merged vertex lo back into v1 v2, turned so that v1 meets v0, as
    the paper's one-edge step does.
    """
    tag = CASE_2_1
    chains = list(g.singular_chains)
    _require(bool(chains) and chains[0][0] >= 3, tag, "singular path too short")
    base_adj, base_colors = g.adj, g.coloring
    adj: dict[int, tuple[int, ...]] = {}  # the neighbor tuples a step changed
    added: dict[Edge, int] = {}  # edges the run added, with their colors
    dropped: set[Edge] = set()  # edges of g the run dropped
    tri = g.rainbow_triangle
    steps: list[tuple[int, int, int, int]] = []

    def nbrs(x: int) -> tuple[int, ...]:
        return adj[x] if x in adj else base_adj[x]

    def color(u: int, v: int) -> int:
        e = edge(u, v)
        return added[e] if e in added else base_colors[e]

    while True:
        length, seq = chains.pop(0)
        v0, v1, v2, v3 = seq[:4]
        lo, hi = min(v1, v2), max(v1, v2)
        out = v3 if hi == v2 else v0
        moved = color(hi, out)
        for e in ((lo, hi), edge(hi, out)):
            if added.pop(e, None) is None:
                dropped.add(e)
        added[edge(lo, out)] = moved
        adj[lo] = (v0, v3) if v0 < v3 else (v3, v0)
        adj[hi] = ()
        adj[out] = tuple(sorted([lo if w == hi else w for w in nbrs(out)]))
        steps.append((v0, v1, v2, lo))

        if v3 in nbrs(v0):  # the step closed the triangle (v0, lo, v3)
            closed = Cycle((v0, lo, v3))
            if tri is None or closed.vertices < tri.vertices:
                tri = closed
        # the chain keeps its ends, and its second vertex becomes lo, no
        # greater than before, so it still reads least from v0
        insort(chains, (length - 1, (v0, lo, *seq[3:])),
               key=lambda c: (-c[0], c[1]))
        if tri is not None or chains[0][0] < 3:
            break

    child = g.edit(drop=dropped, add=added)
    # fill the child's cached properties with the facts carried to it
    child.__dict__["rainbow_triangle"] = tri
    child.__dict__["singular_chains"] = tuple(chains)
    return _good_reduction(
        g, child, {v1 + v2 - lo for _, v1, v2, lo in steps},
        [_contraction_lift(tag, (_oriented([v2, v1], (v0,)),), lo)
         for v0, v1, v2, lo in reversed(steps)])


# ---------------------------------------------------------------------------
# Case 2.2: Type I vertex flanked by Type II vertices


def extract_case2_2_pattern(g: EdgeColoredGraph) -> tuple[str, CasePattern]:
    """Bind the labels around the minimum Type I vertex, as the subcase
    of their overlap shape reads them: (a) w1 == w2, (b) y1 == y2, (c) y1
    == w2 with the rest disjoint, (d) y1 == w2 and y2 == w1, else
    "disjoint". x1 < x2 but in a shape c seen from x2; w1, w2 are the
    least of their pairs unless the shape names them.

    The one check is that g has a Type I vertex, which the dispatch's
    branch, a good graph not all Type II, gives. The rest of the pattern
    follows from goodness and the branch: a Type I flank would lie on a
    chain of length 3, so each flank is Type II, each of its colors on two
    edges by condition 5; the flanks are not adjacent, or (v, x1, x2) would
    be a two-colored triangle or the rainbow one the dispatch takes
    first; and gamma != delta, or gamma would span x1, x2, w1 and z1."""
    _require(bool(g.type1), "Case2_2", "no Type I vertex")
    v = min(g.type1)
    x1, x2 = sorted(g.adj[v])
    sides = []
    for x in (x1, x2):
        a = g.color(v, x)
        others = [w for w in g.adj[x] if w != v]
        y = next(w for w in others if g.color(x, w) == a)
        rest = sorted(w for w in others if w != y)
        sides.append((x, a, y, rest, g.color(x, rest[0])))
    (_, _, y1, s1, _), (_, _, y2, s2, _) = sides
    shared = sorted(set(s1) & set(s2))
    if not shared and y1 != y2 and y2 in s1 and y1 not in s2:
        sides.reverse()  # shape c seen from x2
    (x1, alpha, y1, s1, gamma), (x2, beta, y2, s2, delta) = sides
    if shared:
        shape, w1, w2 = "a", shared[0], shared[0]
    elif y1 == y2:
        shape, w1, w2 = "b", s1[0], s2[0]
    elif y1 in s2:
        shape, w1, w2 = ("d", y2, y1) if y2 in s1 else ("c", s1[0], y1)
    else:
        shape, w1, w2 = "disjoint", s1[0], s2[0]
    (z1,), (z2,) = set(s1) - {w1}, set(s2) - {w2}
    return shape, CasePattern(v, x1, x2, alpha, beta, y1, y2, w1, w2, z1, z2,
                              gamma, delta)


def case2_2_1(g: EdgeColoredGraph, p: CasePattern) -> CaseReduction:
    """Disjoint flanking neighborhoods: reroute v and merge the flanks.

    Child construction: drop the four alpha/beta edges, connect v directly
    to y1 and y2, and merge x1 with x2 into m = min(x1, x2). g is good.
    By the merge lemma in the coloring module docstring the child meets
    conditions 1-5, so its only possible defect is a Type X cut vertex,
    and it is good when `type_x_sides` is empty. If the child is good,
    child cycles avoiding both v and m lift unchanged and the two or
    three that meet them are put back explicitly; if not, the
    reduction's child is instead the end x-block of the merged graph, an
    almost-good graph, and one of its cycles through m detours through v
    (subcase b). Every lift puts m back by one detour, `_v_detour`.
    """
    child = _build_transform(
        g, drop=[edge(p.y1, p.x1), edge(p.x1, p.v), edge(p.v, p.x2), edge(p.x2, p.y2)],
        add=[(p.y1, p.v, p.alpha), (p.v, p.y2, p.beta)],
        merge=[(p.x1, p.x2)])
    m = min(p.x1, p.x2)
    if not child.type_x_sides:
        return CaseReduction(child, _case2_2_1a_lift(g, p, m), None)
    return _case2_2_1b(g, p, child, m)


def _v_detour(p: CasePattern) -> Callable[[int, int], list[int]]:
    """The expansion that puts Case 2.2.1's merged vertex m back: the path
    x2-v-x1, turned so that x1 meets the gamma side {w1, z1}. A rainbow
    child cycle through m leaves it by one gamma and one delta edge, so
    this is a cycle of the parent through v."""
    return _oriented([p.x2, p.v, p.x1], (p.w1, p.z1))


def _case2_2_1a_lift(g, p, m):
    """Lift a good merged child whose merged vertex is m, of degree 4, on
    two child cycles; v, of degree 2, is on one. If v's avoids m, the lift
    leaves an x-cycle in the good g and returns the `_Checked` of the first
    detour that passes: each detour it tries is one removal check of the
    whole batch, which by the removal lemma accepts what removing the other
    cycles and then the detour would."""
    tag = CASE_2_2_1A

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]] | _Checked:
        out = [(t, c) for t, c in sub if m not in c and p.v not in c]
        d1 = next(c for _, c in sub if p.v in c)
        xcycles = [c for _, c in sub if m in c and c is not d1]
        if len(xcycles) == 2:
            # v's cycle avoids the merged vertex: lift one x-cycle through v
            return _detour_x_cycle(g, p, m, tag, out, xcycles,
                                   "both x-cycle detours failed")
        out.extend((tag, c) for c in _recombine_two_meeters(p, d1, xcycles[0], m))
        return out

    return lift


def _detour_x_cycle(g, p, m, tag: str, kept: list[tuple[str, Cycle]],
                    xcycles: list[Cycle], failure: str) -> _Checked:
    """The `_Checked` of the first of `xcycles`, child cycles through the
    merged vertex m, whose detour through v, `_v_detour`, passes one
    removal check from the good g with the `kept` batch. If none does,
    raise with `failure` and the last detour's problem."""
    detour = _v_detour(p)
    last = None
    for cand in xcycles:
        try:
            return _check_removal(g, None, kept + [(tag, _lift_through(cand, m, detour))])
        except CaseVerificationError as err:
            last = err.problem
    raise CaseVerificationError(tag, f"{failure}: {last}")


def _recombine_two_meeters(p, d1: Cycle, d2: Cycle, m: int) -> list[Cycle]:
    """Split the two cycles that sweep the whole pattern, d1 through v and
    d2 through the merged vertex m, into rainbow cycles of the parent
    covering the same edges. d1 runs v y2 ... s m t ... y1, and splits at m
    into two cycles if t is on the gamma side, else turns into one; d2
    detours through v."""
    seq = _rotate_to(d1.vertices, p.v)
    if seq[1] != p.y2:
        seq = [seq[0]] + list(reversed(seq[1:]))
    xi = seq.index(m)
    q2 = seq[1:xi]          # y2 ... s
    q1 = seq[xi + 1:]       # t ... y1
    third = _lift_through(d2, m, _v_detour(p))
    if q1[0] in (p.w1, p.z1):
        return [Cycle(tuple([p.x1] + q1)), Cycle(tuple([p.x2] + list(reversed(q2)))),
                third]
    return [Cycle(tuple([p.x1] + list(reversed(q2)) + [p.x2] + q1)), third]


def _case2_2_1b(g, p, child, m) -> CaseReduction:
    """Reduce to the merged graph's end x-block at the merged vertex m; lift
    by detouring one of its cycles through m via v. The merged graph
    `child` of the good g has at least one Type X vertex, the keys of its
    `type_x_sides`.

    By the end-block path lemma in the coloring module docstring, m is no
    Type X vertex, and every Type X vertex separates v from m, so the
    x-block tree is the path from m's x-block to v's. m's x-block is then
    an end of it, holding exactly one Type X vertex, the joining vertex t,
    and by the end-block lemma there it is almost-good at t. So the end
    block, which an x-block's edges join, is one component with no Type
    X vertex, and both facts are filled where it is made."""
    tag = CASE_2_2_1B
    bx = x_block(child, m)
    (t,) = bx & child.type_x_sides.keys()
    end = child.edit(drop=[e for e in child.coloring if e[0] not in bx or e[1] not in bx])
    end.__dict__["components"] = (bx,)
    end.__dict__["type_x_sides"] = {}

    def lift(sub: list[tuple[str, Cycle]]) -> _Checked:
        # m has degree 4 in the end block and t degree 2, so m lies on two
        # child cycles and t on one: at least one of m's avoids t. As m !=
        # t, such a candidate was typed rainbow, and detours as the
        # three-meeter lift's x-cycle does.
        candidates = [c for _, c in sub if m in c and t not in c]
        return _detour_x_cycle(g, p, m, tag, [], candidates,
                               "detour cycle failed verification")

    return CaseReduction(end, lift, t)


def _case2_2_2a(g: EdgeColoredGraph, p: CasePattern):
    """Shared gamma/delta neighbor w: try the direct rectangle through w,
    else rewire both flanks away and reduce. g is good. By the rectangle
    lemma in the coloring module docstring, a
    refused rectangle has w, y1, y2, z1 and z2 of Type I and disjoint
    sides {y1, z1} and {y2, z2}; by the rewire and rewired-child lemmas
    there, the rewired child is then good and connected on g's vertices
    less x1 and x2. The lift puts x1 and x2 back around v, then w, by
    `_contraction_lift`s, and by the split lemma there no child cycle
    passes through both. `p` is shape a's, with w1 == w2."""
    tag = CASE_2_2_2A
    w = p.w1
    try:
        return _check_removal(g, None, [(tag, Cycle((p.x1, p.v, p.x2, w)))])
    except CaseVerificationError:
        pass  # the rectangle leaves a Type X vertex: rewire

    child = _build_transform(
        g, drop=[edge(x, q) for x in (p.x1, p.x2) for q in g.adj[x]],
        add=[(p.y1, w, p.alpha), (p.y2, w, p.beta),
             (p.z1, p.v, p.gamma), (p.z2, p.v, p.delta)])
    return _good_reduction(g, child, {p.x1, p.x2}, [
        _contraction_lift(tag, (_oriented([p.x1, p.v, p.x2], (p.z2,)),), p.v),
        _contraction_lift(tag, (_oriented([p.x1, w, p.x2], (p.y2,)),), w)])


def _case2_2_2b(g: EdgeColoredGraph, p: CasePattern) -> CaseReduction:
    """Shared alpha/beta neighbor y: contract the rectangle x1-y-x2-v.
    g is good; the child is good, by the pair lemma and the Type X
    contraction lemma in the coloring module docstring. `p` is shape b's,
    with y1 == y2, and y is Type I by fact (i) there, as it sees alpha
    and beta, whose classes span three vertices each."""
    tag = CASE_2_2_2B
    y = p.y1
    return _contraction(
        g, tag, (_v_detour(p), _oriented([p.x2, y, p.x1], (p.w1, p.z1))),
        merge=(p.v, p.x1, y, p.x2),
        drop=[edge(p.v, p.x1), edge(p.x1, y), edge(y, p.x2), edge(p.x2, p.v)])


def _case2_2_2c(g: EdgeColoredGraph, p: CasePattern) -> CaseReduction:
    """y1 == w2: contract the rectangle x1-y1-x2-v, folding delta into beta.

    The merged vertex has degree 4, gamma toward w1, z1 and beta toward y2,
    z2, so it lies on two child cycles, and each, rainbow, uses one of its
    gamma edges and one of its beta edges; the one toward y2 expands
    through y1, the one toward z2 through v. g is good; the child is
    good, by the recolored rectangle lemma and the Type X contraction
    lemma in the coloring module docstring. `p` is
    shape c's: y1 == w2, Type I by fact (i), and {w1, z1} misses {y2, z2};
    and no good parent has the edge y2z2 that would close a two-colored
    triangle (m, y2, z2).
    """
    tag = CASE_2_2_2C
    gamma_side = {p.w1, p.z1}

    def expand(a: int, b: int) -> list[int]:
        beta_end = b if a in gamma_side else a
        mid = [p.x2, p.y1, p.x1] if beta_end == p.y2 else [p.x2, p.v, p.x1]
        return mid if a in gamma_side else mid[::-1]

    return _contraction(
        g, tag, (expand, expand), merge=(p.v, p.x1, p.y1, p.x2),
        drop=[edge(p.v, p.x1), edge(p.x1, p.y1), edge(p.y1, p.x2), edge(p.x2, p.v),
              edge(p.x2, p.z2)],
        add=[(p.x2, p.z2, p.beta)])


def _case2_2_2d(g: EdgeColoredGraph, p: CasePattern) -> list[tuple[str, Cycle]]:
    """Doubly-shared neighbors: the rectangle x1-y1-x2-y2 is rainbow. Its
    colors alpha, delta, beta, gamma differ: x1 and x2 are Type II, the
    pattern has alpha != beta and gamma != delta, and fact (i) of the
    coloring module docstring gives the rest. `p` is shape d's, with
    y1 == w2 and y2 == w1."""
    return [(CASE_2_2_2D, Cycle((p.x1, p.y1, p.x2, p.y2)))]


# ---------------------------------------------------------------------------
# fallback search


class FallbackResult:
    """A search's outcome; a found cycle comes with the `_Checked` its
    removal check returned."""

    __slots__ = ("status", "cycle", "checked")

    def __init__(self, status: str,  # "found" | "absent" | "indeterminate"
                 cycle: Cycle | None = None, checked: _Checked | None = None) -> None:
        self.status, self.cycle, self.checked = status, cycle, checked


def _color_pruned_cycles(g: EdgeColoredGraph, length: int,
                         spare: int | None) -> Iterator[Cycle]:
    """Canonical cycles of exactly `length` vertices, in sorted order, that
    repeat no color except at most one repeat of `spare`.

    A path starts at its minimum vertex s, and its second vertex a is kept
    smaller than its last, a *closer*: a neighbor of s above a. So each
    cycle is met once, already in `Cycle` form. The DFS takes start vertices
    and neighbors in ascending order, so equal-length cycles come out sorted
    by their vertices. A path is dropped as soon as an edge repeats a color
    it may not. Two cuts drop only paths that cannot close: no path starts
    by s's largest neighbor above s, which has no closer, and a path with
    every closer on it stops growing. The closing test does not ask for a
    closer off the path, so the path that takes the last one still closes.
    """
    adj = g.adj
    coloring = g.coloring
    for s in range(g.n):
        above = [w for w in adj[s] if w > s]
        for i, a in enumerate(above[:-1]):
            closers = set(above[i + 1:])
            free = len(closers)  # closers not on the path
            path = [s, a]
            on_path = {s, a}
            c = coloring[(s, a)]
            used = {c}
            # per path edge: the color it added to `used`, or None for the repeat
            added: list[int | None] = [c]
            spent = False  # the one repeat of `spare` is taken
            frames = [iter(adj[a])]
            while frames:
                w = next(frames[-1], None)
                v = path[-1]
                if w is None:
                    frames.pop()
                    path.pop()
                    on_path.discard(v)
                    if v in closers:
                        free += 1
                    c = added.pop()
                    if c is None:
                        spent = False
                    else:
                        used.discard(c)
                    continue
                c = coloring[(v, w) if v < w else (w, v)]
                repeat = c in used
                if repeat and (c != spare or spent):
                    continue
                if len(path) == length:
                    if w == s and v in closers:
                        yield Cycle(tuple(path))
                    continue
                if not free or w < s or w in on_path:
                    continue
                path.append(w)
                on_path.add(w)
                if w in closers:
                    free -= 1
                if repeat:
                    spent = True
                    added.append(None)
                else:
                    used.add(c)
                    added.append(c)
                frames.append(iter(adj[w]))


def _fallback_cap(g: EdgeColoredGraph) -> int:
    """The longest cycle `fallback_search` tries: any under 64 edges, else 24 vertices."""
    return max(len(c) for c in g.components) if len(g.coloring) < 64 else 24


def fallback_search(g: EdgeColoredGraph, bad: int | None) -> FallbackResult:
    """Lazy hunt for one safely removable cycle, shortest first.

    On a good graph, `bad` None: a rainbow cycle whose removal stays good.
    On a graph almost-good at `bad`: additionally an almost-rainbow cycle
    through it whose removal is good. Lengths are tried one at a time from 3 up,
    and the cycles of one length in order of their vertices, so the first
    cycle accepted is the first in (length, vertices) order among all simple
    cycles; nothing longer is generated. The DFS is pruned by color: a path
    that repeats a color (on an almost-good graph, any color but the bad
    vertex's, or that one twice) can only close into a cycle the removal
    check rejects. The search works out its own cap, `_fallback_cap(g)`,
    and tries no longer cycle; when the cap is below g's longest
    component, exhausting it yields "indeterminate" rather than "absent".
    The engine removes a found cycle by the result's `checked`, without
    checking it again.
    """
    if not g.coloring:
        return FallbackResult("absent")
    longest = max(len(c) for c in g.components)
    cap = min(_fallback_cap(g), longest)
    # the bad vertex has degree 2 and one color: the only color an
    # almost-rainbow cycle may repeat
    spare = None if bad is None else g.colors_at(bad)[0]
    for length in range(3, cap + 1):
        for cyc in _color_pruned_cycles(g, length, spare):
            try:
                checked = _check_removal(g, bad, [(FALLBACK, cyc)])
            except CaseVerificationError:
                continue
            return FallbackResult("found", cyc, checked)
    return FallbackResult("indeterminate" if cap < longest else "absent")


# ---------------------------------------------------------------------------
# the engine


def _dispatch(comp: EdgeColoredGraph, bad: int | None):
    """Pick the applicable case for the connected comp, good or almost-good
    at `bad`; returns a direct batch, a `_Checked` one or a CaseReduction.
    A Case2_2 graph goes by its pattern's shape, from
    `extract_case2_2_pattern`, through one table to its subcase."""
    if len(comp.coloring) == len(comp.components[0]):
        # degrees 2 and 4 and as many edges as vertices: every degree is 2,
        # so comp is one cycle, and its one singular chain is the cycle,
        # closed if comp is good, or b ... b if comp is almost-good at b
        return [(BASE_CYCLE, Cycle(comp.singular_chains[0][1][:-1]))]
    tri = comp.rainbow_triangle
    if tri is not None:
        return [(RAINBOW_TRIANGLE, tri)]
    if bad is not None:
        x1, x2 = sorted(comp.adj[bad])
        if comp.has_edge(x1, x2):
            return case1_1(comp, bad)
        return case1_2(comp, bad)
    if not comp.type1:
        # a good component's degree-4 vertices are Type II, as a 3+1 split
        # of two colors breaks condition 5, so with no Type I vertex all are
        return [(ALL_TYPE_II, _all_type2_cycle(comp))]
    chains = comp.singular_chains
    if chains and chains[0][0] >= 3:
        return case2_1(comp)
    shape, pat = extract_case2_2_pattern(comp)
    # built per call, so that a patched module attribute is the one called
    return {"disjoint": case2_2_1, "a": _case2_2_2a, "b": _case2_2_2b,
            "c": _case2_2_2c, "d": _case2_2_2d}[shape](comp, pat)


class _Frame:
    """A graph being peeled, its bad vertex, or None when it is good, and
    the list its cycles go to; `pending` is the lift of a reduction
    waiting on its child's list."""

    __slots__ = ("graph", "bad", "out", "pending")

    def __init__(self, graph: EdgeColoredGraph, bad: int | None,
                 out: list[tuple[str, Cycle]]) -> None:
        self.graph, self.bad, self.out = graph, bad, out
        self.pending: tuple[Callable, list[tuple[str, Cycle]]] | None = None

    def take(self, checked: _Checked) -> None:
        """Apply a checked removal: keep its remainder and bad vertex, and
        list its cycles."""
        self.graph, self.bad = checked.rest, checked.bad
        self.out.extend(checked.batch)


def _advance(stack: list[_Frame]) -> None:
    """Take one step on the top frame: finish it, split it into one frame
    per component (in order, sharing its list), lift its child's cycles, or
    dispatch, pushing a frame for a reduction's child. A component's bad
    vertex follows from the component lemma in the coloring module
    docstring."""
    fr = stack[-1]
    if fr.pending is not None:
        lift, sub = fr.pending
        fr.pending = None
        step = lift(sub)
    else:
        if not fr.graph.coloring:
            stack.pop()
            return
        parts = split_components(fr.graph)
        if len(parts) > 1:
            stack.pop()
            b = fr.bad
            stack.extend(_Frame(part, b if b in part.components[0] else None, fr.out)
                         for part in reversed(parts))
            return
        step = _dispatch(fr.graph, fr.bad)
        if isinstance(step, CaseReduction):
            # the frame keeps the lift alone, so that the child is freed
            # once its own frame takes its first batch
            fr.pending = (step.lift, [])
            stack.append(_Frame(step.child, step.bad, fr.pending[1]))
            return
    fr.take(step if isinstance(step, _Checked)
            else _check_removal(fr.graph, fr.bad, step))


def _recover(stack: list[_Frame], err: CaseVerificationError | _EngineFailure) -> None:
    """Remove a fallback cycle where a step failed.

    A CaseVerificationError is the top frame's own; an _EngineFailure
    unwinds past the frames above the nearest frame waiting on a reduction,
    which drops the reduction. The frame that takes the failure runs the
    fallback on its own graph, removing the cycle it finds as checked; if it
    finds none, its own failure unwinds in turn, and past the root it ends
    the run.
    """
    while True:
        if isinstance(err, _EngineFailure):
            stack.pop()
            while stack and stack[-1].pending is None:
                stack.pop()
            if not stack:
                raise err
            stack[-1].pending = None
        fr = stack[-1]
        fb = fallback_search(fr.graph, fr.bad)
        if fb.status == "found":
            fr.take(fb.checked)
            return
        err = _EngineFailure(
            err.case, fr.graph,
            f"case failed ({err}); fallback search returned {fb.status}",
            err.cycle, fr.bad)


def _verified_trace(root: EdgeColoredGraph, rep: GoodnessReport,
                    tagged: list[tuple[str, Cycle]]) -> DecompositionTrace:
    """Certify `tagged` on `root`, whose report is `rep`, by `_check_removal`,
    and check that it covers the root; an output that does is proved by the
    typing sweep alone, with no goodness check. By the removal lemma in
    the coloring module docstring, each step leaves a graph almost-good at
    the bad vertex b, with report `rep`, while b's cycle is left, and good
    from that cycle on; b's cycle is listed first in `cycles`. A failure
    raises with `root` and b."""
    b = rep.bad_vertex
    try:
        rest = _check_removal(root, b, tagged).rest if tagged else root
    except CaseVerificationError as err:
        raise _EngineFailure(err.case, root, f"replay verification failed: {err}",
                             err.cycle, b) from err
    if rest.coloring:
        raise _EngineFailure("Engine", root, "cycles do not cover every edge", None, b)
    at = next((i for i, (_, c) in enumerate(tagged) if b in c), len(tagged))
    steps = tuple(TraceStep(tag, cyc, rep if i < at else GOOD_REPORT)
                  for i, (tag, cyc) in enumerate(tagged))
    ordered = tagged[at:at + 1] + tagged[:at] + tagged[at + 1:]
    return DecompositionTrace(steps, tuple(c for _, c in ordered))


def decompose(g: EdgeColoredGraph, prescribed: Cycle | None = None) -> DecompositionTrace:
    """Decompose a good or almost-good colored graph into rainbow cycles.

    On success the returned cycles partition the edges, all rainbow except
    at most one almost-rainbow cycle (listed first) when the input was
    almost-good. A `prescribed` cycle of an all-Type-II g, for a line
    graph the projection of a base-graph cycle, is removed first, as an
    AllTypeII step, so it is one of the cycles.

    The one entry: check g in full, remove `prescribed` by
    `_check_removal`, peel what is left onto one list in one loop over a
    stack of frames, then certify the list on g. A bad argument raises; a
    refusal of `prescribed`, a failure that unwinds past g's frame, or one
    of the certificate becomes the trace's CaseFailure, never an
    unverified answer. A failure whose graph is g carries `prescribed`.
    """
    if prescribed is not None:
        if not isinstance(prescribed, Cycle) or not prescribed.is_cycle_of(g):
            raise DecomposeError("prescribed cycle is not a cycle of the graph")
        if not _all_type2(g):
            raise DecomposeError("line graph is not an all-Type-II graph")
    rep = check_goodness(g)
    if not rep.ok:
        raise DecomposeError(
            f"input is {rep.verdict.value}: "
            f"{[v.to_json() for v in rep.violations][:4]}")
    top = _Frame(g, rep.bad_vertex, [])
    stack = [top]
    try:
        if prescribed is not None:
            try:
                top.take(_check_removal(g, top.bad, [(ALL_TYPE_II, prescribed)]))
            except CaseVerificationError as err:
                raise _EngineFailure(
                    err.case, g, f"prescribed cycle removal failed: {err.problem}",
                    err.cycle, rep.bad_vertex) from err
        while stack:
            try:
                _advance(stack)
            except CaseVerificationError as err:
                _recover(stack, err)
        return _verified_trace(g, rep, top.out)
    except _EngineFailure as f:
        return DecompositionTrace(
            (), None,
            CaseFailure(f.case, serialize_colored_edge_list(f.graph), f.message, f.cycle,
                        GOOD_REPORT if f.bad is None else almost_good_at(f.bad),
                        prescribed if f.graph is g else None))


def replay_case_failure(failure: dict) -> DecompositionTrace:
    """Re-run decomposition on a `case_failure` object as
    `CaseFailure.to_json` writes it: on its `graph`, edge-list text, with
    its `prescribed` cycle if it has one. The engine has no settings, so
    the replay searches with the same fallback cap rule as the run that
    failed. A malformed object raises DecomposeError."""
    if not isinstance(failure, dict) or not isinstance(failure.get("graph"), str):
        raise DecomposeError('a case failure holds its "graph" as edge-list text')
    prescribed = failure.get("prescribed")
    if prescribed is not None and not (
            isinstance(prescribed, list) and all(type(v) is int for v in prescribed)):
        raise DecomposeError('a case failure\'s "prescribed" is a list of vertex ids')
    try:
        g = parse_colored_edge_list(failure["graph"])
        cycle = None if prescribed is None else Cycle(tuple(prescribed))
    except ValueError as err:
        raise DecomposeError(f"malformed case failure: {err}") from None
    return decompose(g, cycle)
