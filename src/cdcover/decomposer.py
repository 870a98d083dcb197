"""Inductive rainbow cycle decomposition of good / almost-good colored graphs.

The engine peels one batch of cycles at a time from each connected component,
dispatching on local structure:

  * a component that is a single cycle is emitted directly;
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
The child keeps the parent's vertex ids: a merged group keeps its least id,
and a deleted or merged-away vertex stays, isolated. So every child, like
every peel's remainder, is one local `edit` of its parent, and the lift
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
conditions 1-5, once its case has rejected the one local configuration
that would break them, so its report is its Type X search's. Case2_2_1b's
child, the end x-block of a merged graph whose only defect is Type X,
needs no search: the end-block lemma proves it almost-good at the vertex
that joins it to the rest. Only the one entry, `decompose`, checks a graph in
full: the root. The engine is one loop over an explicit stack of frames: a
reduction's child is peeled on a frame above its waiting parent, so the
depth of the reduction tree costs no Python recursion. Every removal, a
lift's batch like any other, is verified by `_check_removal`: one linear
sweep types the batch's cycles, and one `report_after_removal` checks what
the batch leaves, or none when it leaves nothing. By the removal lemma in
the coloring module docstring, this accepts exactly the batches whose
cycles pass the checks one at a time. So a direct peel, one cycle and no
child, has no check of its own. The check returns a `_Checked` record of
the batch, the remainder and its report, or raises. A case, lift or
fallback search that must check a batch to choose it hands the engine
that record, which is applied as it is. Any failed verification falls
back to a shortest-first search for a safely removable cycle. If that also
fails, the nearest waiting parent runs the search on its own graph, and so
on outward; past the root the run ends in a serializable, replayable
CaseFailure instead of an unverified answer. The output covers the root,
so one sweep certifies it there, and the lemma gives each step's report.
"""
from __future__ import annotations

from bisect import insort
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .coloring import (
    GOOD_REPORT,
    EdgeColoredGraph,
    GoodnessReport,
    GoodnessVerdict,
    almost_good_at,
    check_goodness,
    is_almost_rainbow_at,
    parse_colored_edge_list,
    report_after_removal,
    report_from_type_x,
    serialize_colored_edge_list,
    split_components,
    x_block_decomposition,
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
    """Internal: no case and no fallback made progress; carries diagnostics."""

    def __init__(self, case: str, graph: EdgeColoredGraph, message: str,
                 cycle: Cycle | None, report: GoodnessReport | None):
        self.case = case
        self.graph = graph
        self.message = message
        self.cycle = cycle
        self.report = report
        super().__init__(message)


# ---------------------------------------------------------------------------
# reductions


def _build_transform(parent: EdgeColoredGraph, kind: str, *,
                     drop: Iterable[Edge] = (),
                     merge: Iterable[Sequence[int]] = (),
                     delete: Iterable[int] = (),
                     add: Iterable[tuple[int, int, int]] = (),
                     recolor: Iterable[tuple[Edge, int]] = (),
                     ) -> EdgeColoredGraph:
    """Build the child graph for a reduction on the parent's vertex ids: a
    merge group becomes its least vertex, and the group's other vertices and
    the deleted ones stay in range(n) with no edges.

    `add` endpoints may name any member of a merge group. The child must
    stay simple; a clash is reported as a verification error, never merged
    silently. Only the edges at merged or deleted vertices and the recolored
    ones move, so the child is one `edit` of the parent.
    """
    dropset = {edge(*e) for e in drop}
    absent = dropset - parent.edges
    if absent:
        raise CaseVerificationError(kind, f"dropping absent edges {sorted(absent)}")
    deleted = set(delete)
    rep_of = {v: min(grp) for grp in merge for v in grp}
    recolor_map = {edge(*e): c for e, c in recolor}
    coloring = parent.coloring
    moved = {edge(x, w) for x in deleted.union(rep_of) for w in parent.graph.adj[x]}
    moved.update(e for e in recolor_map if e in coloring)
    moved -= dropset
    gone = dropset | moved
    # A moved edge lands on itself or at a merge group's least vertex, whose
    # parent edges all move, so no kept edge clashes with one: scanning the
    # moved edges in sorted order rejects the edge a scan of all would.
    new: dict[Edge, int] = {}
    for e in sorted(moved):
        u, v = e
        if u in deleted or v in deleted:
            raise CaseVerificationError(
                kind, f"surviving edge {e} touches a deleted vertex")
        cu, cv = rep_of.get(u, u), rep_of.get(v, v)
        if cu == cv:
            raise CaseVerificationError(kind, f"edge {e} collapses into a loop")
        ce = edge(cu, cv)
        if ce in new:
            raise CaseVerificationError(kind, f"edge {e} would become parallel")
        new[ce] = recolor_map.get(e, coloring[e])
    for u, v, c in add:
        ce = edge(rep_of.get(u, u), rep_of.get(v, v))
        if ce in new or (ce in coloring and ce not in gone):
            raise CaseVerificationError(kind, f"added edge {(u, v)} would be parallel")
        new[ce] = c
    return parent.edit(drop=gone, add=new)


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
    colors at x1/x2, toward {w1, z1} and {w2, z2}.
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
    whose goodness report `report` the case has already computed, and hands
    the tagged cycles to `lift`, which turns them into tagged cycles of the
    parent (possibly covering only part of the parent, in which case the
    engine keeps peeling the remainder). The engine removes the lifted
    batch by `_check_removal`, unless the lift returns the `_Checked` of
    its own call of it.
    """

    __slots__ = ("child", "lift", "report")

    def __init__(self, child: EdgeColoredGraph,
                 lift: Callable[[list[tuple[str, Cycle]]],
                                list[tuple[str, Cycle]] | _Checked],
                 report: GoodnessReport) -> None:
        self.child, self.lift, self.report = child, lift, report


# ---------------------------------------------------------------------------
# small helpers


def _require(cond: bool, case: str, message: str) -> None:
    if not cond:
        raise CaseVerificationError(case, message)


def _require_verdict(rep: GoodnessReport, case: str, verdict: GoodnessVerdict,
                     bad: int | None = None) -> None:
    """Refuse a parent whose report `rep` is not the hypothesis of the
    case's lemma: `verdict`, with the bad vertex `bad`."""
    if rep.verdict is not verdict or rep.bad_vertex != bad:
        got = rep.verdict.value + ("" if rep.bad_vertex is None else f" at {rep.bad_vertex}")
        want = verdict.value + ("" if bad is None else f" at {bad}")
        raise CaseVerificationError(case, f"parent is {got}, the lemma needs {want}")


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


def _contraction(g: EdgeColoredGraph, tag: str, kind: str, noun: str,
                 expansions: Sequence[Callable[[int, int], list[int]]],
                 merge: Sequence[int], **build) -> CaseReduction:
    """Merge the vertices of `merge` (with `build`'s other edits) into one
    vertex m = min(merge) of a child that must be good, lifted by
    `_contraction_lift`. The caller's reduction lemma in the coloring module
    docstring proves that the child meets conditions 1-5 with no vertex of
    color degree 1, so its report is its Type X search's."""
    child = _build_transform(g, kind, merge=[merge], **build)
    crep = report_from_type_x(child)
    _require(crep.verdict is GoodnessVerdict.GOOD, tag,
             f"contracted graph is {crep.verdict.value}")
    return CaseReduction(
        child, _contraction_lift(tag, noun, expansions, min(merge)), crep)


def _contraction_lift(tag: str, noun: str,
                      expansions: Sequence[Callable[[int, int], list[int]]],
                      m: int,
                      ) -> Callable[[list[tuple[str, Cycle]]], list[tuple[str, Cycle]]]:
    """The lift of a child in which a contraction made vertex m: it expands
    the i-th child cycle through m by `expansions[i]` and hands every other
    cycle up as it is, since a child cycle that avoids m is a cycle of the
    parent."""
    k = len(expansions)

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]]:
        through = [c for _, c in sub if m in c]
        _require(len(through) == k, tag,
                 f"expected {k} child {'cycle' if k == 1 else 'cycles'} "
                 f"through the {noun}, got {len(through)}")
        out = [(tag, _lift_through(c, m, exp)) for c, exp in zip(through, expansions)]
        out.extend((t, c) for t, c in sub if m not in c)
        return out

    return lift


def _single_cycle(g: EdgeColoredGraph) -> Cycle | None:
    """The graph's unique cycle, when its edges form exactly one."""
    comps = g.components
    if len(comps) != 1:
        return None
    comp = comps[0]
    adj = g.graph.adj
    if len(g.edges) != len(comp) or any(len(adj[v]) != 2 for v in comp):
        return None
    # a connected 2-regular graph is one cycle
    start = min(comp)
    seq = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            return Cycle(tuple(seq))
        seq.append(nxt)
        prev, cur = cur, nxt


def _all_type2(g: EdgeColoredGraph) -> bool:
    """Whether g is connected and every vertex with edges is Type II: degree
    4, two colors, each on two of its edges."""
    comps = g.components
    if len(comps) != 1 or len(g.edges) != 2 * len(comps[0]):
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
    leaves, `rest`, and its report."""

    __slots__ = ("batch", "rest", "report")

    def __init__(self, batch: Sequence[tuple[str, Cycle]], rest: EdgeColoredGraph,
                 report: GoodnessReport) -> None:
        self.batch, self.rest, self.report = batch, rest, report


def _check_removal(h: EdgeColoredGraph, rep: GoodnessReport,
                   batch: Sequence[tuple[str, Cycle]]) -> _Checked:
    """Validate removing a batch [(tag, cycle), ...] from h, whose report
    is `rep`; raises a CaseVerificationError with the tag and cycle of the
    culprit if it fails, or with the tag "Engine" for an empty batch on a
    graph that still has edges.

    One sweep types the cycles in order: each edge is in h and in no
    earlier cycle, and each cycle is rainbow, but one may be almost-rainbow
    at the bad vertex; the first that fails is the culprit. Then one
    `report_after_removal` of what the batch leaves, none if it leaves
    nothing: by the removal lemma in the coloring module docstring, this
    accepts exactly what checking one cycle at a time accepts. If that
    check fails, the batch's last cycle is the culprit, and the remainder
    is not_good when the check returns no report.
    """
    coloring = h.coloring
    if not batch and coloring:
        raise CaseVerificationError("Engine", "case produced no cycles")
    bad = rep.bad_vertex
    almost = False
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
            # b has degree 2, so at most one cycle of the batch meets it
            if bad is None or bad not in cyc or not is_almost_rainbow_at(h, cyc, bad):
                raise CaseVerificationError(
                    tag, f"cycle {cyc.vertices} is neither rainbow nor "
                    f"almost-rainbow at the bad vertex", cyc)
            almost = True
    if rep.ok and len(seen) == len(coloring):
        return _Checked(batch, h.restrict_edges(()), GOOD_REPORT)
    cycles = [cyc for _, cyc in batch]
    rest = h.edit(drop=seen)
    rest_rep = report_after_removal(rest, h, rep, cycles)
    got = GoodnessVerdict.NOT_GOOD if rest_rep is None else rest_rep.verdict
    expected = (GoodnessVerdict.GOOD
                if rep.verdict is GoodnessVerdict.GOOD or almost
                else GoodnessVerdict.ALMOST_GOOD)
    if got is not expected:
        tag, cyc = batch[-1]
        raise CaseVerificationError(
            tag, f"removing {cyc.vertices} leaves a {got.value} "
            f"graph, expected {expected.value}", cyc)
    return _Checked(batch, rest, rest_rep)


# ---------------------------------------------------------------------------
# greedy cycle in an all-Type-II graph


def _all_type2_cycle(g: EdgeColoredGraph) -> Cycle:
    """The greedy color-avoiding walk's cycle on a good all-Type-II graph.

    From the least vertex, step to the least neighbor by an unused color;
    the start counts once the path has 3 vertices. Color classes are
    triangles, so no vertex repeats, and stuck at cur, cur's color alpha
    other than its arrival color was used on the edge joining its two
    alpha-neighbors: the path after that edge is the cycle."""
    start = min(g.components[0])
    path = [start]
    at: dict[int, int] = {}  # used color -> index of the path edge using it
    while True:
        cur = path[-1]
        nxt = next((w for w in g.graph.adj[cur] if g.color(cur, w) not in at
                    and (w != start or len(path) >= 3)), None)
        if nxt == start:
            return Cycle(tuple(path))
        if nxt is None:
            arrive = g.color(path[-2], cur)
            alpha = next(c for c in g.colors_at(cur) if c != arrive)
            j = at.get(alpha)
            _require(j is not None and len(path) - j - 1 >= 3, ALL_TYPE_II,
                     f"color {alpha} at {cur} closes no cycle of the walk")
            return Cycle(tuple(path[j + 1:]))
        at[g.color(cur, nxt)] = len(path) - 1
        path.append(nxt)


# ---------------------------------------------------------------------------
# Case 1: almost-good


def case1_1(g: EdgeColoredGraph, rep: GoodnessReport, v: int) -> CaseReduction:
    """Bad vertex with adjacent neighbors: contract the monochromatic triangle.

    The two child cycles through the merged vertex lift by inserting the
    path x1-v-x2 (giving the one almost-rainbow cycle) and the edge x1-x2.
    `rep` is g's report, which must be almost-good at v; the child's
    report is its Type X search's, by the pair lemma in the coloring
    module docstring.
    """
    tag = CASE_1_1
    _require_verdict(rep, tag, GoodnessVerdict.ALMOST_GOOD, v)
    _require(g.graph.degree(v) == 2, tag, f"bad vertex {v} must have degree 2")
    x1, x2 = sorted(g.graph.adj[v])
    alpha = g.color(v, x1)
    _require(g.color(v, x2) == alpha, tag, "bad vertex colors disagree")
    _require(g.graph.has_edge(x1, x2), tag, "neighbors not adjacent")
    _require(g.color(x1, x2) == alpha, tag,
             "triangle at the bad vertex is not monochromatic")
    side1 = [w for w in g.graph.adj[x1] if w not in (v, x2)]
    side2 = [w for w in g.graph.adj[x2] if w not in (v, x1)]
    _require(len(side1) == 2 and len(side2) == 2, tag,
             "bad vertex neighbors are not Type II")
    beta = {g.color(x1, w) for w in side1}
    gamma = {g.color(x2, w) for w in side2}
    _require(len(beta) == 1 and len(gamma) == 1 and beta != gamma, tag,
             "flanking color pairs are malformed")
    _require(not (set(side1) & set(side2)), tag,
             "flanking neighborhoods overlap (rainbow triangle missed)")

    return _contraction(
        g, tag, "ContractTriangle", "merged vertex",
        (_oriented([x2, v, x1], side1), _oriented([x2, x1], side1)),
        merge=(v, x1, x2), drop=[edge(v, x1), edge(v, x2), edge(x1, x2)])


def case1_2(g: EdgeColoredGraph, rep: GoodnessReport, v: int) -> CaseReduction:
    """Bad vertex with non-adjacent Type I neighbors: contract one bad edge.

    The child cycle through the merged vertex subdivides back into the
    almost-rainbow cycle through v; everything else lifts unchanged. `rep`
    is g's report, which must be almost-good at v; the child's report is
    its Type X search's, by the edge lemma in the coloring module docstring.
    """
    tag = CASE_1_2
    _require_verdict(rep, tag, GoodnessVerdict.ALMOST_GOOD, v)
    _require(g.graph.degree(v) == 2, tag, f"bad vertex {v} must have degree 2")
    x1, x2 = sorted(g.graph.adj[v])
    alpha = g.color(v, x1)
    _require(g.color(v, x2) == alpha, tag, "bad vertex colors disagree")
    _require(not g.graph.has_edge(x1, x2), tag, "neighbors adjacent; wrong case")
    for x in (x1, x2):
        _require(g.graph.degree(x) == 2, tag,
                 f"neighbor {x} of the bad vertex is not Type I")
    y1 = next(w for w in g.graph.adj[x1] if w != v)
    y2 = next(w for w in g.graph.adj[x2] if w != v)
    _require(y1 != x2 and y2 != x1, tag, "degenerate flank")
    # the one configuration in which the edge lemma's child breaks a
    # condition: the triangle (m, x2, y1) with two colors
    _require(y1 != y2 or g.color(x1, y1) != g.color(x2, y2), tag,
             f"contracted graph is {GoodnessVerdict.NOT_GOOD.value}")

    # the merged vertex splits back into x1-v; x1 attaches toward y1
    return _contraction(g, tag, "ContractEdge", "merged vertex",
                        (_oriented([v, x1], (y1,)),),
                        merge=(v, x1), drop=[edge(v, x1)])


# ---------------------------------------------------------------------------
# Case 2.1: a singular path of length >= 3


def case2_1(g: EdgeColoredGraph, rep: GoodnessReport,
            path: Sequence[int]) -> CaseReduction:
    """Contract the middle edge of a singular path v0 v1 v2 v3, and go on
    while the next dispatch would pick Case2_1 again: while the contracted
    graph has no rainbow triangle and its first singular chain still has
    length at least 3, contract that chain's first inner edge. Each step is
    the paper's one-edge Case 2.1; the run is one reduction.

    `rep` is g's report, which must be good. A step with lo, hi = min and
    max of v1, v2 drops lo-hi and gives hi's other edge to lo with its
    color, leaving hi isolated. By the contraction lemma in the coloring
    module docstring, each step's child is good unless v0 ~ v3 and c(v0v3)
    is c(v0v1) or c(v2v3), which is rejected, and g's components, rainbow
    triangle and singular chains carry over from step to step. Each step
    checks its path against the changed adjacency and colors only; the
    child is one `edit` of g, with the three facts filled in, and its lift
    (`_run_lift`) subdivides the merged vertices back.
    """
    tag = CASE_2_1
    _require_verdict(rep, tag, GoodnessVerdict.GOOD)
    base_adj, base_colors = g.graph.adj, g.coloring
    adj: dict[int, tuple[int, ...]] = {}  # the neighbor tuples a step changed
    added: dict[Edge, int] = {}  # edges the run added, with their colors
    dropped: set[Edge] = set()  # edges of g the run dropped
    tri = g.rainbow_triangle
    chains = list(g.singular_chains)
    steps: list[tuple[int, int, int, int]] = []

    def nbrs(x: int) -> tuple[int, ...]:
        return adj[x] if x in adj else base_adj[x]

    def color(u: int, v: int) -> int:
        e = edge(u, v)
        return added[e] if e in added else base_colors[e]

    while True:
        _require(len(path) >= 4, tag, "singular path too short")
        v0, v1, v2, v3 = path[0], path[1], path[2], path[3]
        _require(len({v0, v1, v2, v3}) == 4, tag, "singular path vertices repeat")
        for t in (v1, v2):
            ts = nbrs(t)
            _require(len(ts) == 2 and color(t, ts[0]) != color(t, ts[1]),
                     tag, f"interior vertex {t} is not Type I")
        _require(v0 in nbrs(v1) and v2 in nbrs(v1) and v3 in nbrs(v2), tag,
                 f"{(v0, v1, v2, v3)} is not a path of the graph")
        chord = v3 in nbrs(v0)
        if chord:
            _require(color(v0, v3) not in (color(v0, v1), color(v2, v3)), tag,
                     f"contracted graph is {GoodnessVerdict.NOT_GOOD.value}")

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

        if chord:
            closed = Cycle((v0, lo, v3))
            if tri is None or closed.vertices < tri.vertices:
                tri = closed
        i = next(i for i, (_, seq) in enumerate(chains) if hi in seq)
        length, seq = chains.pop(i)
        seq = tuple([x for x in seq if x != hi])
        # hi is neither end of its chain, so the chain keeps its ends and
        # only needs turning to its least reading
        insort(chains, (length - 1, min(seq, seq[::-1])),
               key=lambda c: (-c[0], c[1]))
        if tri is not None or chains[0][0] < 3:
            break
        path = chains[0][1]

    child = g.edit(drop=dropped, add=added)
    gone = {v1 + v2 - lo for _, v1, v2, lo in steps}
    # fill the child's cached properties with the facts carried to it
    child.__dict__["components"] = tuple(comp - gone for comp in g.components)
    child.__dict__["rainbow_triangle"] = tri
    child.__dict__["singular_chains"] = tuple(chains)
    return CaseReduction(child, _run_lift(steps), GOOD_REPORT)


def _run_lift(steps: Sequence[tuple[int, int, int, int]],
              ) -> Callable[[list[tuple[str, Cycle]]], list[tuple[str, Cycle]]]:
    """The lift of a run of Case2_1 steps, each given as (v0, v1, v2, lo)
    with lo its merged vertex: the composition of the steps'
    `_contraction_lift`s, innermost first, in one pass over the child's
    cycles. Going back from the last step, the one cycle through lo gets lo
    replaced by v1 v2, turned so that v1 meets v0, and moves to the front;
    every cycle no step rewrites is handed up as it is."""
    tag = CASE_2_1
    run = {v for _, v1, v2, _ in steps for v in (v1, v2)}

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]]:
        seqs: dict[int, list[int]] = {}  # index in sub -> vertices, as lifted
        holders: dict[int, list[int]] = {}  # run vertex -> indices through it
        for i, (_, c) in enumerate(sub):
            hit = run.intersection(c.vertices)
            if hit:
                seqs[i] = list(c.vertices)
                for v in hit:
                    holders.setdefault(v, []).append(i)
        front: list[int] = []
        for v0, v1, v2, lo in reversed(steps):
            through = holders.get(lo, [])
            _require(len(through) == 1, tag,
                     f"expected 1 child cycle through the merged vertex, "
                     f"got {len(through)}")
            i = through[0]
            seq = seqs[i]
            p = seq.index(lo)
            seq[p:p + 1] = [v2, v1] if seq[(p + 1) % len(seq)] == v0 else [v1, v2]
            holders.setdefault(v1 + v2 - lo, []).append(i)
            if i in front:
                front.remove(i)
            front.insert(0, i)
        out = [(tag, Cycle(tuple(seqs[i]))) for i in front]
        lifted = set(front)
        out.extend(item for i, item in enumerate(sub) if i not in lifted)
        return out

    return lift


# ---------------------------------------------------------------------------
# Case 2.2: Type I vertex flanked by Type II vertices


def extract_case2_2_pattern(g: EdgeColoredGraph) -> CasePattern:
    """Bind the local labels around the minimum Type I vertex."""
    tag = "Case2_2"
    _require(bool(g.type1), tag, "no Type I vertex")
    v = min(g.type1)
    x1, x2 = sorted(g.graph.adj[v])
    alpha, beta = g.color(v, x1), g.color(v, x2)
    sides = []
    for x, a in ((x1, alpha), (x2, beta)):
        _require(g.graph.degree(x) == 4, tag, f"flank {x} is not Type II")
        others = [w for w in g.graph.adj[x] if w != v]
        ys = [w for w in others if g.color(x, w) == a]
        _require(len(ys) == 1, tag, f"flank {x} lacks a second edge of the v color")
        rest = [w for w in others if g.color(x, w) != a]
        cols = {g.color(x, w) for w in rest}
        _require(len(rest) == 2 and len(cols) == 1, tag,
                 f"flank {x} second color pair malformed")
        sides.append((ys[0], sorted(rest), cols.pop()))
    (y1, (w1, z1), gamma), (y2, (w2, z2), delta) = sides
    _require(y1 not in (v, x2) and y2 not in (v, x1), tag, "degenerate pattern")
    _require(x2 not in (y1, w1, z1) and x1 not in (y2, w2, z2), tag,
             "flanks adjacent; rainbow triangle missed")
    _require(gamma != delta and alpha != beta, tag, "color degeneracy")
    return CasePattern(v, x1, x2, alpha, beta, y1, y2, w1, w2, z1, z2,
                       gamma, delta)


def _swap_sides(p: CasePattern) -> CasePattern:
    return CasePattern(p.v, p.x2, p.x1, p.beta, p.alpha, p.y2, p.y1,
                       p.w2, p.w1, p.z2, p.z1, p.delta, p.gamma)


def _with_w(p: CasePattern, w1: int, w2: int) -> CasePattern:
    """p relabelled so that w1 and w2 are the given members of {w1, z1} and
    {w2, z2}, and z1 and z2 the others."""
    z1 = p.z1 if w1 == p.w1 else p.w1
    z2 = p.z2 if w2 == p.w2 else p.w2
    return CasePattern(p.v, p.x1, p.x2, p.alpha, p.beta, p.y1, p.y2,
                       w1, w2, z1, z2, p.gamma, p.delta)


def normalize_case2_2(p: CasePattern) -> tuple[str, CasePattern]:
    """Resolve the overlap shape, renaming labels so each subcase sees its
    canonical form: (a) w1 == w2, (b) y1 == y2, (c) y1 == w2 with the rest
    disjoint, (d) y1 == w2 and y2 == w1, else the disjoint case."""
    s1, s2 = {p.w1, p.z1}, {p.w2, p.z2}
    shared = sorted(s1 & s2)
    if shared:
        return "a", _with_w(p, shared[0], shared[0])
    if p.y1 == p.y2:
        return "b", p
    y1_in = p.y1 in s2
    y2_in = p.y2 in s1
    if y1_in and y2_in:
        return "d", _with_w(p, p.y2, p.y1)
    if y2_in and not y1_in:
        p = _swap_sides(p)
        y1_in = True
    if y1_in:
        return "c", _with_w(p, p.w1, p.y1)
    return "disjoint", p


def case2_2_1(g: EdgeColoredGraph, rep: GoodnessReport, p: CasePattern,
              ) -> CaseReduction:
    """Disjoint flanking neighborhoods: reroute v and merge the flanks.

    Child construction: drop the four alpha/beta edges, connect v directly
    to y1 and y2, and merge x1 with x2 into m = min(x1, x2). g must be good,
    and `rep` is its report. By the merge lemma in the coloring module
    docstring the child meets conditions 1-5, so its only possible defect
    is a Type X cut vertex, and its report is its Type X search's. If the
    child is good, child cycles avoiding both v and m lift unchanged and
    the leftover one-or-two meeting cycles recombine explicitly; if not,
    the reduction's child is instead the end x-block of the merged graph,
    an almost-good graph, and one of its cycles through m detours through
    v (subcase b).
    """
    child = _build_transform(
        g, "MergeVertices",
        drop=[edge(p.y1, p.x1), edge(p.x1, p.v), edge(p.v, p.x2), edge(p.x2, p.y2)],
        add=[(p.y1, p.v, p.alpha), (p.v, p.y2, p.beta)],
        merge=[(p.x1, p.x2)])
    m = min(p.x1, p.x2)
    crep = report_from_type_x(child)
    if crep.verdict is GoodnessVerdict.GOOD:
        return CaseReduction(child, _case2_2_1a_lift(g, rep, p, child, m), crep)
    return _case2_2_1b(g, rep, p, child, crep, m)


def _case2_2_1a_lift(g, rep, p, child, m):
    """Lift a good merged child whose merged vertex is m. If it leaves an
    x-cycle in g, the lift returns the `_Checked` of the first detour that
    passes: each detour it tries is one removal check of the whole batch,
    which by the removal lemma accepts what removing the other cycles and
    then the detour would. `rep` is g's report."""
    tag = CASE_2_2_1A

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]] | _Checked:
        out: list[tuple[str, Cycle]] = []
        meeters: list[Cycle] = []
        for t, c in sub:
            if m in c or p.v in c:
                meeters.append(c)
            else:
                out.append((t, c))

        with_v = [c for c in meeters if p.v in c]
        _require(len(with_v) == 1, tag,
                 f"expected exactly one child cycle through v, got {len(with_v)}")
        d1 = with_v[0]

        if len(meeters) == 3:
            # v's cycle avoids the merged vertex: lift one x-cycle through v
            _require(m not in d1, tag, "three meeting cycles but v-cycle uses x")
            xcycles = [c for c in meeters if c is not d1]
            _require(all(m in c for c in xcycles), tag, "meeting cycle misses x")
            return _detour_x_cycle(g, rep, p, m, tag, out, xcycles,
                                   "both x-cycle detours failed")

        _require(len(meeters) == 2, tag,
                 f"unexpected meeting-cycle count {len(meeters)}")
        _require(m in d1, tag, "two meeting cycles but v-cycle avoids x")
        d2 = next(c for c in meeters if c is not d1)
        _require(m in d2 and p.v not in d2, tag, "second meeting cycle malformed")
        out.extend((tag, c) for c in _recombine_two_meeters(p, d1, d2, m, child))
        return out

    return lift


def _detour_x_cycle(g, rep, p, m, tag: str, kept: list[tuple[str, Cycle]],
                    xcycles: list[Cycle], failure: str) -> _Checked:
    """The `_Checked` of the first of `xcycles`, child cycles through the
    merged vertex m, whose detour through v (x2-v-x1, x1 on the gamma side)
    passes one removal check from g with the `kept` batch. If none does,
    raise with `failure` and the last detour's problem. `rep` is g's
    report."""
    detour = _oriented([p.x2, p.v, p.x1], (p.w1, p.z1))
    last = None
    for cand in xcycles:
        try:
            return _check_removal(g, rep, kept + [(tag, _lift_through(cand, m, detour))])
        except CaseVerificationError as err:
            last = err.problem
    raise CaseVerificationError(tag, f"{failure}: {last}")


def _recombine_two_meeters(p, d1: Cycle, d2: Cycle, m: int, child) -> list[Cycle]:
    """Split the two cycles that sweep the whole pattern, through v and
    through the merged vertex m, into explicit rainbow cycles of the parent
    covering the same edges."""
    tag = CASE_2_2_1A
    seq = _rotate_to(d1.vertices, p.v)
    _require({seq[1], seq[-1]} == {p.y1, p.y2}, tag, "v-cycle misses y1/y2")
    if seq[1] != p.y2:
        seq = [seq[0]] + list(reversed(seq[1:]))
    xi = seq.index(m)
    _require(2 <= xi <= len(seq) - 3, tag, "merged vertex adjacent to a y")
    s, t = seq[xi - 1], seq[xi + 1]
    q2 = seq[1:xi]          # y2 ... s
    q1 = seq[xi + 1:]       # t ... y1
    col_s = child.coloring[edge(m, s)]
    col_t = child.coloring[edge(m, t)]
    _require({col_s, col_t} == {p.gamma, p.delta}, tag, "x-cycle colors broken")

    p3 = _rotate_to(d2.vertices, m)[1:]     # a ... b
    a, b = p3[0], p3[-1]

    # t on the gamma side: two cycles plus the v detour; else one large one
    w1p, w2p = (t, s) if col_t == p.gamma else (s, t)
    z1p = p.z1 if w1p == p.w1 else p.w1
    z2p = p.z2 if w2p == p.w2 else p.w2
    _require({a, b} == {z1p, z2p}, tag,
             "second cycle does not use the leftover flank edges")
    p3_seq = p3 if a == z2p else list(reversed(p3))
    small = Cycle(tuple([p.x1, p.v, p.x2] + p3_seq))
    if col_t == p.gamma:
        return [Cycle(tuple([p.x1] + q1)), Cycle(tuple([p.x2] + list(reversed(q2)))),
                small]
    return [Cycle(tuple([p.x1] + list(reversed(q2)) + [p.x2] + q1)), small]


def _case2_2_1b(g, rep_g, p, child, crep, m) -> CaseReduction:
    """Reduce to the merged graph's end x-block at the merged vertex m; lift
    by detouring one of its cycles through m via v. `crep` is the merged
    graph's report; its violations, all of condition 6, name its Type X
    vertices, of which there is at least one.

    An x-block's degree in the x-block tree is the number of Type X
    vertices it holds (see the coloring module docstring). So the tree is
    a path when no x-block holds three, m's x-block is an end when it holds
    one, which is the joining vertex t, and v's is the other end when it is
    another x-block that holds one. By the end-block lemma in the same
    docstring, the end x-block is almost-good at t."""
    tag = CASE_2_2_1B
    txv = {viol.witness for viol in crep.violations}
    _require(m not in txv, tag, "merged vertex became Type X")
    blocks = x_block_decomposition(child)
    _require(all(len(b & txv) < 3 for b in blocks), tag, "x-block forest is not a path")
    bx = next(b for b in blocks if m in b)
    _require(len(bx & txv) == 1, tag, "merged vertex not in an end x-block")
    bv = next(b for b in blocks if p.v in b)
    _require(bv is not bx and len(bv & txv) == 1, tag,
             "v not in the opposite end x-block")
    for u in (p.w1, p.z1, p.w2, p.z2):
        _require(u in bx, tag, f"flank {u} outside end block")
    for u in (p.y1, p.y2):
        _require(u in bv, tag, f"{u} outside the v block")
    (t,) = bx & txv
    end = child.restrict_edges(e for e in child.edges if e[0] in bx and e[1] in bx)

    def lift(sub: list[tuple[str, Cycle]]) -> _Checked:
        xcycles = [c for _, c in sub if m in c]
        _require(len(xcycles) == 2, tag,
                 f"expected 2 cycles through the merged vertex, got {len(xcycles)}")
        candidates = [c for c in xcycles if t not in c]
        _require(candidates, tag, "both x-cycles pass through the joining vertex")
        # The end block is almost-good at t and m != t, so a candidate was
        # typed rainbow: it leaves m by one gamma edge, toward w1 or z1, and
        # one delta edge, and detours as the three-meeter lift's x-cycle does.
        return _detour_x_cycle(g, rep_g, p, m, tag, [], candidates,
                               "detour cycle failed verification")

    return CaseReduction(end, lift, almost_good_at(t))


def _case2_2_2a(g: EdgeColoredGraph, rep: GoodnessReport, p: CasePattern):
    """Shared gamma/delta neighbor w: try the direct rectangle through w,
    else rewire both flanks away and reduce. g must be good, and `rep` is
    its report; the rewired child's report is its Type X search's, by the
    rewire lemma in the coloring module docstring."""
    tag = CASE_2_2_2A
    w = p.w1
    _require(w == p.w2, tag, "shape a needs w1 == w2")
    try:
        return _check_removal(g, rep, [(tag, Cycle((p.x1, p.v, p.x2, w)))])
    except CaseVerificationError as err:
        problem = err.problem

    # the direct cycle creates a Type X vertex; the derived structure must
    # then have w and all of y1, y2, z1, z2 of Type I with disjoint sides
    for u in (w, p.y1, p.y2, p.z1, p.z2):
        _require(u in g.type1, tag,
                 f"rewire precondition: vertex {u} is not Type I ({problem})")
    _require(not ({p.y1, p.z1} & {p.y2, p.z2}), tag,
             f"rewire precondition: sides overlap ({problem})")

    drop = [edge(p.x1, q) for q in g.graph.adj[p.x1]]
    drop += [edge(p.x2, q) for q in g.graph.adj[p.x2]]
    child = _build_transform(
        g, "RewireDetour",
        drop=sorted(set(drop)),
        delete=[p.x1, p.x2],
        add=[(p.y1, w, p.alpha), (p.y2, w, p.beta),
             (p.z1, p.v, p.gamma), (p.z2, p.v, p.delta)])
    crep = report_from_type_x(child)
    _require(crep.verdict is GoodnessVerdict.GOOD, tag,
             f"rewired graph is {crep.verdict.value}")

    def lift(sub: list[tuple[str, Cycle]]) -> list[tuple[str, Cycle]]:
        cy = [c for _, c in sub if p.y1 in c]
        _require(len(cy) == 1, tag, "expected one child cycle through y1")
        cy = cy[0]
        _require(w in cy, tag, "y1 cycle misses w")
        _require(p.v not in cy, tag, "y1 cycle passes through v; rewire lift invalid")
        cz = [c for _, c in sub if p.v in c]
        _require(len(cz) == 1, tag, "expected one child cycle through v")
        cz = cz[0]

        out = [(tag, _lift_through(cy, w, _oriented([p.x1, w, p.x2], (p.y2,)))),
               (tag, _lift_through(cz, p.v, _oriented([p.x1, p.v, p.x2], (p.z2,))))]
        out.extend((t, c) for t, c in sub if p.y1 not in c and p.v not in c)
        return out

    return CaseReduction(child, lift, crep)


def _case2_2_2b(g: EdgeColoredGraph, rep: GoodnessReport,
                p: CasePattern) -> CaseReduction:
    """Shared alpha/beta neighbor y: contract the rectangle x1-y-x2-v.
    `rep` is g's report, which must be good; the child's report is its
    Type X search's, by the pair lemma in the coloring module docstring."""
    tag = CASE_2_2_2B
    _require_verdict(rep, tag, GoodnessVerdict.GOOD)
    y = p.y1
    _require(y == p.y2, tag, "shape b needs y1 == y2")
    _require(g.graph.degree(y) == 2, tag, "shared y must be Type I")
    gamma_side = (p.w1, p.z1)
    return _contraction(
        g, tag, "ContractRectangle", "rectangle",
        (_oriented([p.x2, p.v, p.x1], gamma_side),
         _oriented([p.x2, y, p.x1], gamma_side)),
        merge=(p.v, p.x1, y, p.x2),
        drop=[edge(p.v, p.x1), edge(p.x1, y), edge(y, p.x2), edge(p.x2, p.v)])


def _case2_2_2c(g: EdgeColoredGraph, rep: GoodnessReport,
                p: CasePattern) -> CaseReduction:
    """y1 == w2: contract the rectangle x1-y1-x2-v, folding delta into beta.

    A child cycle through the merged vertex must use one of its two beta
    edges; the one toward y2 expands through y1, the one toward z2 through v.
    `rep` is g's report, which must be good; the child's report is its Type
    X search's, by the recolored rectangle lemma in the coloring module
    docstring.
    """
    tag = CASE_2_2_2C
    _require_verdict(rep, tag, GoodnessVerdict.GOOD)
    _require(p.y1 == p.w2, tag, "shape c needs y1 == w2")
    _require(g.graph.degree(p.y1) == 2, tag, "shared vertex must be Type I")
    _require(not ({p.w1, p.z1} & {p.y2, p.z2}), tag, "shape c sides overlap")
    # the one configuration in which the lemma's child breaks a condition:
    # the triangle (m, y2, z2) with two colors
    _require(not g.graph.has_edge(p.y2, p.z2), tag,
             f"contracted graph is {GoodnessVerdict.NOT_GOOD.value}")
    gamma_side = {p.w1, p.z1}
    seen_beta: set[int] = set()  # the lift runs once per reduction

    def expand(a: int, b: int) -> list[int]:
        beta_end = b if a in gamma_side else a
        _require(beta_end in (p.y2, p.z2), tag,
                 "rectangle cycle lacks a beta-side edge")
        _require(beta_end not in seen_beta, tag,
                 "both rectangle cycles use the same beta edge")
        seen_beta.add(beta_end)
        mid = [p.x2, p.y1, p.x1] if beta_end == p.y2 else [p.x2, p.v, p.x1]
        return mid if a in gamma_side else mid[::-1]

    return _contraction(
        g, tag, "ContractRectangle", "rectangle", (expand, expand),
        merge=(p.v, p.x1, p.y1, p.x2),
        drop=[edge(p.v, p.x1), edge(p.x1, p.y1), edge(p.y1, p.x2), edge(p.x2, p.v)],
        recolor=[(edge(p.x2, p.z2), p.beta)])


def _case2_2_2d(p: CasePattern) -> list[tuple[str, Cycle]]:
    """Doubly-shared neighbors: the rectangle x1-y1-x2-y2 is rainbow. Its
    colors alpha, delta, beta, gamma differ: x1 and x2 are Type II, the
    pattern has alpha != beta and gamma != delta, and fact (i) of the
    coloring module docstring gives the rest."""
    _require(p.y1 == p.w2 and p.y2 == p.w1, CASE_2_2_2D, "shape d labels wrong")
    return [(CASE_2_2_2D, Cycle((p.x1, p.y1, p.x2, p.y2)))]


# ---------------------------------------------------------------------------
# fallback search


class FallbackResult:
    """A search's outcome; a found cycle comes with the `_Checked` its
    removal check returned, which `==` ignores."""

    __slots__ = ("status", "cycle", "checked")

    def __init__(self, status: str,  # "found" | "absent" | "indeterminate"
                 cycle: Cycle | None = None, checked: _Checked | None = None) -> None:
        self.status, self.cycle, self.checked = status, cycle, checked

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.status, self.cycle) == (other.status, other.cycle)


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
    adj = g.graph.adj
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
    return max(len(c) for c in g.components) if len(g.edges) < 64 else 24


def fallback_search(g: EdgeColoredGraph, rep: GoodnessReport) -> FallbackResult:
    """Lazy hunt for one safely removable cycle, shortest first.

    On a good graph: a rainbow cycle whose removal stays good. On an
    almost-good graph: additionally an almost-rainbow cycle through the bad
    vertex whose removal is good. Lengths are tried one at a time from 3 up,
    and the cycles of one length in order of their vertices, so the first
    cycle accepted is the first in (length, vertices) order among all simple
    cycles; nothing longer is generated. The DFS is pruned by color: a path
    that repeats a color (on an almost-good graph, any color but the bad
    vertex's, or that one twice) can only close into a cycle the removal
    check rejects. The search works out its own cap, `_fallback_cap(g)`,
    and tries no longer cycle; when the cap is below g's longest
    component, exhausting it yields "indeterminate" rather than "absent".
    `rep` is g's goodness report. The engine removes a found cycle by the
    result's `checked`, without checking it again.
    """
    if not rep.ok:
        raise DecomposeError("fallback requires a good or almost-good graph")
    if not g.edges:
        return FallbackResult("absent")
    longest = max(len(c) for c in g.components)
    cap = min(_fallback_cap(g), longest)
    # the bad vertex has degree 2 and one color: the only color an
    # almost-rainbow cycle may repeat
    spare = None if rep.bad_vertex is None else g.colors_at(rep.bad_vertex)[0]
    for length in range(3, cap + 1):
        for cyc in _color_pruned_cycles(g, length, spare):
            try:
                checked = _check_removal(g, rep, [(FALLBACK, cyc)])
            except CaseVerificationError:
                continue
            return FallbackResult("found", cyc, checked)
    return FallbackResult("indeterminate" if cap < longest else "absent")


# ---------------------------------------------------------------------------
# the engine


def _dispatch(comp: EdgeColoredGraph, rep: GoodnessReport):
    """Pick the applicable case; returns a direct batch, a `_Checked` one
    or a CaseReduction."""
    base = _single_cycle(comp)
    if base is not None:
        return [(BASE_CYCLE, base)]
    tri = comp.rainbow_triangle
    if tri is not None:
        return [(RAINBOW_TRIANGLE, tri)]
    if rep.verdict is GoodnessVerdict.ALMOST_GOOD:
        v = rep.bad_vertex
        x1, x2 = sorted(comp.graph.adj[v])
        if comp.graph.has_edge(x1, x2):
            return case1_1(comp, rep, v)
        return case1_2(comp, rep, v)
    if _all_type2(comp):
        return [(ALL_TYPE_II, _all_type2_cycle(comp))]
    chains = comp.singular_chains
    if chains and chains[0][0] >= 3:
        return case2_1(comp, rep, chains[0][1])
    pat = extract_case2_2_pattern(comp)
    shape, pat = normalize_case2_2(pat)
    if shape == "disjoint":
        return case2_2_1(comp, rep, pat)
    if shape == "d":
        return _case2_2_2d(pat)
    return {"a": _case2_2_2a, "b": _case2_2_2b, "c": _case2_2_2c}[shape](comp, rep, pat)


class _Frame:
    """A graph being peeled, its report and the list its cycles go to;
    `pending` is a reduction waiting on its child's list."""

    __slots__ = ("graph", "rep", "out", "pending")

    def __init__(self, graph: EdgeColoredGraph, rep: GoodnessReport,
                 out: list[tuple[str, Cycle]]) -> None:
        self.graph, self.rep, self.out = graph, rep, out
        self.pending: tuple[CaseReduction, list[tuple[str, Cycle]]] | None = None

    def take(self, checked: _Checked) -> None:
        """Apply a checked removal: keep its remainder and report, and
        list its cycles."""
        self.graph, self.rep = checked.rest, checked.report
        self.out.extend(checked.batch)


def _advance(stack: list[_Frame]) -> None:
    """Take one step on the top frame: finish it, split it into one frame
    per component (in order, sharing its list), lift its child's cycles, or
    dispatch, pushing a frame for a reduction's child. A component's report
    follows from the component lemma in the coloring module docstring."""
    fr = stack[-1]
    if fr.pending is not None:
        red, sub = fr.pending
        fr.pending = None
        step = red.lift(sub)
    else:
        if not fr.graph.edges:
            stack.pop()
            return
        parts = split_components(fr.graph)
        if len(parts) > 1:
            stack.pop()
            b = fr.rep.bad_vertex
            stack.extend(_Frame(part, fr.rep if b in part.components[0] else GOOD_REPORT,
                                fr.out) for part in reversed(parts))
            return
        step = _dispatch(fr.graph, fr.rep)
        if isinstance(step, CaseReduction):
            fr.pending = (step, [])
            stack.append(_Frame(step.child, step.report, fr.pending[1]))
            return
    fr.take(step if isinstance(step, _Checked)
            else _check_removal(fr.graph, fr.rep, step))


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
        fb = fallback_search(fr.graph, fr.rep)
        if fb.status == "found":
            fr.take(fb.checked)
            return
        err = _EngineFailure(
            err.case, fr.graph,
            f"case failed ({err}); fallback search returned {fb.status}",
            err.cycle, fr.rep)


def _verified_trace(root: EdgeColoredGraph, rep: GoodnessReport,
                    tagged: list[tuple[str, Cycle]]) -> DecompositionTrace:
    """Certify `tagged` on `root`, whose report is `rep`, by `_check_removal`,
    and check that it covers the root; an output that does is proved by the
    typing sweep alone, with no goodness check. By the removal lemma in
    the coloring module docstring, each step leaves a graph almost-good at
    the bad vertex b, with report `rep`, while b's cycle is left, and good
    from that cycle on; b's cycle is listed first in `cycles`. A failure
    raises with `root`, `rep`."""
    try:
        rest = _check_removal(root, rep, tagged).rest if tagged else root
    except CaseVerificationError as err:
        raise _EngineFailure(err.case, root, f"replay verification failed: {err}",
                             err.cycle, rep) from err
    if rest.edges:
        raise _EngineFailure("Engine", root, "cycles do not cover every edge", None, rep)
    at = next((i for i, (_, c) in enumerate(tagged) if rep.bad_vertex in c),
              len(tagged))
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
        if not isinstance(prescribed, Cycle) or not prescribed.is_cycle_of(g.graph):
            raise DecomposeError("prescribed cycle is not a cycle of the graph")
        if not _all_type2(g):
            raise DecomposeError("line graph is not an all-Type-II graph")
    rep = check_goodness(g)
    if not rep.ok:
        raise DecomposeError(
            f"input is {rep.verdict.value}: "
            f"{[v.to_json() for v in rep.violations][:4]}")
    top = _Frame(g, rep, [])
    stack = [top]
    try:
        if prescribed is not None:
            try:
                top.take(_check_removal(g, rep, [(ALL_TYPE_II, prescribed)]))
            except CaseVerificationError as err:
                raise _EngineFailure(
                    err.case, g, f"prescribed cycle removal failed: {err.problem}",
                    err.cycle, rep) from err
        while stack:
            try:
                _advance(stack)
            except CaseVerificationError as err:
                _recover(stack, err)
        return _verified_trace(g, rep, top.out)
    except _EngineFailure as f:
        return DecompositionTrace(
            (), None,
            CaseFailure(f.case, serialize_colored_edge_list(f.graph),
                        f.message, f.cycle, f.report,
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
