"""Edge-colored graphs and the good / almost-good condition suite.

A colored graph is *good* when: (1) all degrees are even, (2) max degree is
at most 4, (3) every triangle is rainbow or monochromatic, (4) every
nonisolated vertex sees exactly two colors, (5) each color class spans at
most three vertices, and (6) there is no cut vertex of Type X. *Almost-good*
relaxes (4): exactly one nonisolated vertex (the "bad vertex") has color
degree 1, and that vertex has degree 2.

A cut vertex of Type X is a degree-4 cut vertex whose four edges split as two
monochromatic pairs into two different sides of the cut. In an even graph a
degree-4 cut vertex has two of its edges on each side (an odd count would
make one of them a bridge, and even graphs have none). One lowpoint
depth-first search (Tarjan 1972) finds the sides: a vertex u separates the
DFS subtree of its child c when no edge leaves that subtree for a proper
ancestor of u, and u's neighbors on that side are exactly those discovered
inside c's subtree, a contiguous range of discovery times. The search
(`graphs.lowpoint_search`) starts one DFS tree at the least vertex of each
edge-bearing component, so the trees' vertex sets are the components, in
order of least vertex; `_cut_search` reads both from one search, and the
graph caches both.

Conditions 1, 2, 3 and 5 are hereditary under removing edge-disjoint
cycles: degrees fall by 2 at a vertex per cycle through it and stay even
and at most 4, and triangles and the vertex spans of color classes only
shrink. So the remainder of a good or almost-good graph needs condition 4
re-checked only at the cycles' vertices, and condition 6 from one DFS;
`report_after_removal` does that.

A remainder's components come from its own Type X search, which its
goodness check runs.

The component lemma: each edge-bearing component of a good graph is
good; of a graph almost-good at b, b's component is almost-good at b and
the others are good. Conditions 1-5 are local (a vertex's edges, a
triangle, a color class), and a component has these as the graph does, or
fewer. A cut vertex of a component has the same sides in the graph, as no
other component meets it, so it is Type X in both or in neither. So the
decomposer gives each component of a split its report unchecked
(`decomposer._advance`).

The removal lemma checks a batch of cycles by what it leaves. Let H be
good, or almost-good at b, and C1, ..., Ck edge-disjoint cycles of H, all
rainbow except at most one, almost-rainbow at b: one color repeated, on
its two edges at b. Let H_i be H minus C1, ..., Ci, and call it right when
it is good, if H is good or b's cycle is among C1, ..., Ci, and
almost-good otherwise. If R = H_k is right, so is every H_i. Conditions
1, 2, 3 and 5 are hereditary. A degree-4 vertex of H_i has all its edges
of H, so two colors. A degree-2 one has both edges in R, where it sees two
colors or is b, or on one later cycle, whose colors there differ except
at b. A degree-4 cut vertex u of H_i with its four edges in R is a cut
vertex of R with the same pairs, R being a subgraph, so not Type X; else a
later cycle runs through u within one side, so that side's pair is the
cycle's two edges at u, which differ in color, as b has degree 2. So H_i
is good or almost-good at b, and b sees one color exactly while its edges
are in H_i: H_i is right. Conversely, checking one cycle at a time ends
in R. So one sweep that types the cycles, with the bad vertex b until its
cycle, and one check that R is right accept exactly the batches that
per-cycle checks accept (`decomposer._check_removal`). A batch that
covers H leaves R empty, which is right, since b's cycle is then in the
batch, so it needs no goodness check. The engine's output covers the
root, so the lemma certifies the whole run in one sweep and gives each
step's report without a goodness check: the root's, almost-good at b,
while b's cycle is left, and good from that cycle on
(`decomposer._verified_trace`).

Contracting an edge inside a singular path keeps a good graph good unless it
closes a two-colored triangle. Let v0 v1 v2 v3 be a path of a good graph on
four distinct vertices whose inner vertices v1 and v2 are Type I, let
a = c(v0v1) and b = c(v2v3), and let the child merge v1 and v2 into one
vertex m, dropping the edge v1v2. Then a != b, since otherwise color a
would span v0, v1, v2 and v3, against condition 5; and the color of v1v2 is
on no other edge, for the same reason. So degrees and the vertex spans of
the remaining colors do not change, and m sees the two colors a and b. The
parent has no triangle through v1 or v2 (their neighbors are v0, v2 and
v1, v3, and v0 != v3), so the only new triangle is (v0, m, v3), and it
exists only when v0 ~ v3. The Type X vertices do not change either: the
child is the parent with one degree-2 vertex suppressed, which changes
neither the cut vertices of degree 4 nor how their edges, with their
colors, split into sides. So the child is good unless v0 ~ v3 and
c(v0v3) is a or b, when (v0, m, v3) breaks condition 3; the decomposer's
Case2_1 derives its child's report this way (`decomposer.case2_1`). That
exception does not arise on a good parent, though. If c(v0v3) = a, v3 can
have no edges beyond v2v3 and v0v3: a second edge of color a, or two more
of color b, would make that color span four vertices. So the cycle
v0 v1 v2 v3 meets the rest of the graph at v0 alone, and v0 either sees one
color or is a Type X cut vertex. The case c(v0v3) = b is symmetric.

The same contraction fixes three of the facts the decomposer's dispatch
scans for. Let hi = max(v1, v2); the child keeps the parent's vertex ids,
with m = min(v1, v2) and hi left isolated. Contracting an edge keeps each
component connected, so the child's components are the parent's without
hi. The triangles are the parent's plus (v0, m, v3) when v0 ~ v3, which is
rainbow on a good parent (a != b, and c(v0v3) is neither); so the child's
least rainbow triangle is the lesser of the parent's and that one. Colors
at a vertex do not change except that m sees a and b, so the Type I
vertices are the parent's without hi, and the maximal chains through them
(`singular_chains`) are the parent's, except that the chain through v1 and
v2 loses hi and is one edge shorter.

The lemma applies step by step. On a good parent it proves the child
good, so the child meets its hypotheses in turn: along a run of
contractions, each along the first singular chain the last one left, every
graph is good, and each step carries the three facts from its parent to
its child. Case2_1 contracts such a run in one reduction and stops where
the next dispatch would pick another case: a contraction has closed a
rainbow triangle (v0, m, v3), or the first chain has become shorter than
3. It reads the three facts from the graph it starts on, updates them at
each step, and fills them into the run's last child (`decomposer.case2_1`).

The reduction lemmas. The other reductions build their child by one
`decomposer._build_transform` of a parent H that is good (Case2_2_1,
Case2_2_2a, 2b, 2c) or almost-good at the case's vertex v (Case1_1,
Case1_2); Case2_2_1b then keeps an end x-block of Case2_2_1's child, by
the end-block lemma below. By the lemma for its case, the child meets
conditions 1-5, and no vertex sees one color, except in one local
configuration that the case rejects before it builds. So the child's full
report is its Type X search's (`report_from_type_x`). The labels are the
case's. In the Case2_2 family (`decomposer.CasePattern`), v is Type I
with colors alpha and beta; x1 pairs alpha, to v and y1, with gamma, to
w1 and z1; x2 pairs beta, to v and y2, with delta, to w2 and z2. Two facts
recur. (i) A class of color c that spans three vertices spans no fourth,
so an edge with an end outside that span is not of color c. In the
Case2_2 family, alpha spans v, x1 and y1, so its class is the two edges
vx1, x1y1, as v has degree 2; likewise beta. (ii) A vertex whose edges
keep their colors, whatever their other ends become, still meets
conditions 1, 2 and 4.

The pair lemma. Let H meet conditions 1-5, with its bad vertex, if any,
in a set S. Let the child merge S into m = min S and drop the edges inside
S, where the edges that leave S are a pair xa, xb of one color c and a
pair x'a', x'b' of another color c'. Here x and x' are in S, a, b, a' and
b' are four distinct vertices, and no other vertex of S sees c or c'. Then
the child meets conditions 1-5, and no vertex sees one color. Every vertex
outside S keeps its colors by (ii), and m has degree 4 and sees c and c'.
The class of c spans m, a and b in place of x, a and b, and m did not see
c unless m = x. The same holds for c', and every other class only loses
edges. A triangle through m is either (m, a, b), which needs a ~ b, so
(x, a, b) was a monochromatic triangle of H and the new one keeps its
colors, or one like (m, a, a'). Edge aa' is not of color c by (i), as a'
is outside c's span x, a, b, and not c' either, so that triangle is
rainbow.

Case1_1 contracts the monochromatic triangle S = {v, x1, x2} at the bad
vertex v. The case checks that x1's other two edges have one color, beta,
and x2's one color, gamma, with beta != gamma, and that the two pairs have
no common end. v sees only alpha, the triangle's color, and x2 sees alpha
and gamma, so no other vertex of S sees beta. Likewise no other vertex
sees gamma, and the pair lemma applies. Case2_2_2b contracts the rectangle
S = {v, x1, y, x2}, where y = y1 = y2 is Type I, so v and y see alpha and
beta only. The pairs are x1's gamma pair and x2's delta pair, which have
no common end, or the shape would be a. gamma is not alpha, as x1 sees two
colors. It is not beta, by (i), since x1 is outside beta's span v, x2, y.
It is not delta, which the pattern checks. So x2 does not see gamma, and
likewise x1 does not see delta: the pair lemma applies.

The merge lemma (Case2_2_1, the disjoint shape). The child replaces the
path y1 x1 v x2 y2 by y1 v y2 and merges x1 and x2 into m. So alpha's
class becomes {y1v} and beta's {vy2}, and y1, v and y2 keep their colors.
What is left at x1 and x2 is their gamma and delta pairs, and
{w1, z1} and {w2, z2} do not meet in this shape. x2 does not see gamma,
which is neither beta (by (i): x1 is outside v, x2, y2) nor delta, and
likewise x1 does not see delta. So the pair lemma's argument holds for m.
The one other new triangle is (v, y1, y2), when y1 ~ y2. Its third edge
is not alpha by (i), as y2 is outside v, x1, y1, nor beta likewise, so it
is rainbow. So the merged child of a good graph is good or fails
condition 6 alone; then Case2_2_1b's end-block lemma below applies.

The recolored rectangle lemma (Case2_2_2c, where y1 = w2 is Type I).
Let S = {v, x1, y1, x2} be the rectangle, with edge x2z2 recolored from
delta to beta. beta's class is {vx2, x2y2}, and delta's is {x2y1, x2z2},
by (i) and since y1 has degree 2. So the child's beta class is {my2, mz2},
which spans three vertices, and its delta class is empty. z2 had one
delta edge and did not see beta, as it is outside v, x2, y2, so it still
sees two colors. y2 keeps its colors, and (ii) covers the rest. Then the
pair lemma's argument holds, with x1's gamma pair and beta at m, except
for the triangle (m, y2, z2) when y2 ~ z2. Then (x2, y2, z2) was a
triangle of H with colors beta and delta, so rainbow, and the new one
has beta twice and a third color. The case rejects that configuration. A
good H never has it. y2 sees beta once and z2 sees delta once, so each
has degree 2: three edges of its other color would make that color span
four vertices. So x2, v, y1, y2 and z2 have no neighbors but each other
and x1, and x1 separates its alpha pair from its gamma pair: it is a
Type X cut vertex.

The edge lemma (Case1_2). H is almost-good at v, and v's neighbors x1 and
x2 have degree 2 and are not adjacent. Let y1 and y2 be their other
neighbors. The child merges v and x1 into m and drops vx1. So m has
degree 2, with m x2 of color alpha and m y1 of color a1 = c(x1y1), which
is not alpha, as x1 sees two colors. alpha's class is {vx1, vx2}, by (i)
and since x1 is not adjacent to x2, and it becomes {mx2}. a1's class
spans m in place of x1, as v sees only alpha. (ii) covers every other
vertex, and v, the one vertex of color degree 1, is merged. The one
triangle through m is (m, x2, y1), when y1 = y2. Its colors are alpha, a1
and a2 = c(x2y2), which is not alpha either, so it is rainbow unless
a1 = a2. The case rejects that configuration. An almost-good H never has
it: y = y1 = y2 then sees a1 on its edges to x1 and x2. With degree 2, y
is a second vertex of color degree 1. With degree 4, the cycle v x1 y x2
meets the rest at y alone, which makes y a Type X cut vertex.

The rewire lemma (Case2_2_2a, where w = w1 = w2). The case checks that w,
y1, y2, z1 and z2 are Type I and that {y1, z1} and {y2, z2} do not meet.
The child deletes x1 and x2 with their edges and adds y1w (alpha), y2w
(beta), z1v (gamma) and z2v (delta). So y1, y2, z1 and z2 keep their
colors, v sees gamma and delta, and w sees alpha and beta. alpha's and
beta's classes become one edge each. So do gamma's and delta's, which were
{x1w, x1z1} and {x2w, x2z2} by (i), as w has degree 2. Each new triangle
passes through v or w. (v, z1, z2), when z1 ~ z2, has a third edge of
neither gamma (z2 is outside x1, w, z1) nor delta (likewise), so it is
rainbow. The same holds for (w, y1, y2). So the rewired child of a good
graph is good or fails condition 6 alone.

The Type X search, which sorts u's neighbors by side, gives the x-blocks
too. Join two edges when they share a vertex, except that at a Type X
vertex u only the two edges of each side are joined; the x-blocks are the vertex sets of the classes of edges
(`x_block_decomposition`). These are the blocks (maximal 2-connected
subgraphs) merged at every cut vertex that is not Type X, and each Type X
vertex lies in exactly two of them. A block's edges at u are one side pair,
since the block minus u stays connected; so a block lies in one class.
Blocks that meet at a cut vertex that is not Type X are joined there. And
nothing joins the two sides of u: two edges joined at a vertex w != u lie
on w's side, and at u the two pairs are never joined.

In a connected even graph the x-blocks form a tree whose edges are the
Type X vertices, each joining the two x-blocks it lies in. The tree is
connected, as the graph is and x-blocks meet only at Type X vertices. Each
of its edges u is a bridge: every x-block lies within one side of u (one
that holds u has one side pair there, and any other is connected without
u), u's two x-blocks lie on different sides, and only u joins the sides.
So an x-block's degree in the tree is the number of Type X vertices it
holds. When there is at least one, every x-block holds one or more, the
tree is a path exactly when none holds three or more, and its two ends are
then the x-blocks that hold exactly one (`decomposer._case2_2_1b`).

The end-block lemma: let G be connected, with conditions 1-5 holding and
no vertex of color degree 1, and let B be an x-block of G holding exactly
one Type X vertex t. Then G restricted to B is almost-good at t. Every
other vertex of B is not Type X, so it lies in no other x-block and has all
its edges in B: conditions 1, 2 and 4 hold there as they do in G, and
conditions 3 and 5 only get easier in a subgraph. t keeps one of its two
side pairs, which is monochromatic, so t is B's only vertex of color degree
1, and it has degree 2. A Type X vertex u of B has degree 4 in B, so u != t
and all of u's edges are in B. B meets the rest of G only at t, so u is a
cut vertex of G with the same pairs, so a Type X vertex of G in B other
than t, and there is none. So Case2_2_1b gives its end x-block this report without a goodness
check.
"""
from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .graphs import (Cycle, Edge, Graph, GraphError, _Record, check_edge, edge,
                     lowpoint_search, read_edge_lines)


class ColoredGraphError(ValueError):
    """Malformed colored-graph input or an illegal operation."""


class EdgeColoredGraph(_Record):
    """A graph plus a total edge coloring by integer color ids.

    Treated as immutable; all transformations return new instances.
    """

    def __init__(self, graph: Graph, coloring: Mapping[Edge, int]) -> None:
        missing = graph.edges - set(coloring)
        extra = set(coloring) - graph.edges
        if missing or extra:
            raise ColoredGraphError(
                f"coloring must be total: missing {sorted(missing)}, "
                f"extra {sorted(extra)}")
        self._set(graph=graph, coloring=coloring)

    def __hash__(self) -> int:
        # the base's hash would hash the coloring dict; this one agrees
        # with its ==, which compares graph and coloring
        return hash((self.graph, frozenset(self.coloring.items())))

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "EdgeColoredGraph":
        coloring = {}
        for u, v, c in triples:
            e = edge(u, v)
            if e in coloring and coloring[e] != c:
                raise ColoredGraphError(f"edge {e} given two colors")
            coloring[e] = c
        return cls(Graph(n, frozenset(coloring)), coloring)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self) -> frozenset[Edge]:
        return self.graph.edges

    def color(self, u: int, v: int) -> int:
        return self.coloring[edge(u, v)]

    def colors_at(self, v: int) -> tuple[int, ...]:
        return tuple(self.coloring[edge(v, w)] for w in self.graph.adj[v])

    def edit(self, drop: Iterable[Edge],
             add: Mapping[Edge, int] | None = None) -> "EdgeColoredGraph":
        """This graph minus the edges of `drop`, which must all be present,
        plus the new canonical edges of `add` with their colors. Only the
        endpoints of changed edges get new neighbor tuples, and only those
        that gained a neighbor are sorted again.

        Only the edges of `add` are validated, as `Graph` validates an edge:
        the kept edges are this graph's, already valid, and every edge gets
        a color by construction. So the child skips both constructors'
        checks, which would cost O(m)."""
        coloring = dict(self.coloring)
        lost: dict[int, list[int]] = {}
        absent = []
        for e in drop:
            if coloring.pop(e, None) is None:
                absent.append(e)
            u, v = e
            lost.setdefault(u, []).append(v)
            lost.setdefault(v, []).append(u)
        if absent:
            raise ColoredGraphError(f"cannot remove absent edges {sorted(absent)}")
        gained: dict[int, list[int]] = {}
        for e, c in (add or {}).items():
            check_edge(e, self.n)
            if e in coloring:
                raise ColoredGraphError(f"cannot add present edge {e}")
            coloring[e] = c
            u, v = e
            gained.setdefault(u, []).append(v)
            gained.setdefault(v, []).append(u)
        adj = list(self.graph.adj)
        for x, ws in lost.items():
            adj[x] = tuple([w for w in adj[x] if w not in ws])
        for x, ws in gained.items():
            adj[x] = tuple(sorted([*adj[x], *ws]))
        graph = object.__new__(Graph)
        object.__setattr__(graph, "n", self.n)
        object.__setattr__(graph, "edges", frozenset(coloring))
        graph.__dict__["adj"] = tuple(adj)  # fills the cached property
        child = object.__new__(EdgeColoredGraph)
        object.__setattr__(child, "graph", graph)
        object.__setattr__(child, "coloring", coloring)
        return child

    def restrict_edges(self, keep: Iterable[Edge]) -> "EdgeColoredGraph":
        kept = {edge(*e) for e in keep}
        absent = kept - self.graph.edges
        if absent:
            raise ColoredGraphError(f"cannot keep absent edges {sorted(absent)}")
        return EdgeColoredGraph(Graph(self.n, frozenset(kept)),
                                {e: self.coloring[e] for e in kept})

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Vertex sets of the edge-bearing connected components, by min
        vertex: the trees of the lowpoint search that the Type X search
        (`_cut_search`) reads, which also fills `type_x_sides` when every
        degree is even."""
        even = not any(len(nbrs) & 1 for nbrs in self.graph.adj)
        return _cut_search(self, type_x=even)[0]

    @cached_property
    def type_x_sides(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Each cut vertex of Type X, mapped to its two pairs of neighbors
        by side. The degrees must be even; this is not checked."""
        return _cut_search(self, type_x=True)[1]

    @cached_property
    def type1(self) -> frozenset[int]:
        """The Type I vertices: degree 2, with two different colors."""
        coloring = self.coloring
        type1 = []
        for v, nbrs in enumerate(self.graph.adj):
            if len(nbrs) == 2:
                a, b = nbrs
                if coloring[(v, a) if v < a else (a, v)] != \
                        coloring[(v, b) if v < b else (b, v)]:
                    type1.append(v)
        return frozenset(type1)

    @cached_property
    def rainbow_triangle(self) -> Cycle | None:
        """The lexicographically least triangle with three distinct colors."""
        for u, v, w in triangles(self.graph):
            if len({self.color(u, v), self.color(v, w), self.color(u, w)}) == 3:
                return Cycle((u, v, w))
        return None

    @cached_property
    def singular_chains(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Every maximal chain through Type I vertices as (length, vertices),
        ordered by (-length, vertices).

        An open chain runs between two vertices that are not Type I (they may
        be one vertex) and is oriented to its lexicographically least
        reading. A closed chain is a cycle of Type I vertices, given as its
        `Cycle` form with the first vertex repeated at the end; its length is
        the cycle's.
        """
        type1 = self.type1
        adj = self.graph.adj
        chains = []
        seen: set[int] = set()
        for t in sorted(type1):
            if t in seen:
                continue
            right, closed = _singular_walk(adj, type1, t, adj[t][0])
            if closed:
                chain = [t] + right  # all Type I, a full cycle
                seen.update(chain)
                cyc = Cycle(tuple(chain))
                seq = cyc.vertices + (cyc.vertices[0],)
            else:
                left, _ = _singular_walk(adj, type1, t, adj[t][1])
                fwd = tuple(list(reversed(left)) + [t] + right)
                seen.update(v for v in fwd if v in type1)
                seq = min(fwd, fwd[::-1])
            chains.append((len(seq) - 1, seq))
        chains.sort(key=lambda c: (-c[0], c[1]))
        return tuple(chains)


class ColorClass(_Record):
    def __init__(self, color: int, edges: frozenset[Edge],
                 vertices: frozenset[int]) -> None:
        self._set(color=color, edges=edges, vertices=vertices)


def color_classes(g: EdgeColoredGraph) -> dict[int, ColorClass]:
    """Partition of the edges by color, with the vertex span of each class."""
    by_color: dict[int, set[Edge]] = {}
    for e, c in g.coloring.items():
        by_color.setdefault(c, set()).add(e)
    return {
        c: ColorClass(c, frozenset(es),
                      frozenset(v for e in es for v in e))
        for c, es in sorted(by_color.items())
    }


class GoodnessVerdict(enum.Enum):
    GOOD = "good"
    ALMOST_GOOD = "almost_good"
    NOT_GOOD = "not_good"


class Violation(_Record):
    """One failed goodness condition with a concrete witness.

    `kind` is one of "vertex", "triangle", "color"; `witness` is the vertex
    id, the sorted vertex triple, or the color id respectively.
    """

    def __init__(self, condition: int, kind: str, witness: object) -> None:
        self._set(condition=condition, kind=kind, witness=witness)

    def to_json(self) -> dict:
        w = self.witness
        return {"condition": self.condition, "kind": self.kind,
                "witness": list(w) if isinstance(w, tuple) else w}


class GoodnessReport(_Record):
    def __init__(self, verdict: GoodnessVerdict, bad_vertex: int | None,
                 violations: tuple[Violation, ...]) -> None:
        self._set(verdict=verdict, bad_vertex=bad_vertex, violations=violations)

    @property
    def ok(self) -> bool:
        return self.verdict is not GoodnessVerdict.NOT_GOOD

    def to_json(self) -> dict:
        return {"verdict": self.verdict.value,
                "bad_vertex": self.bad_vertex,
                "violations": [v.to_json() for v in self.violations]}


GOOD_REPORT = GoodnessReport(GoodnessVerdict.GOOD, None, ())


def almost_good_at(v: int) -> GoodnessReport:
    """The report of a graph almost-good at v: its one violation is v's
    condition 4."""
    return GoodnessReport(GoodnessVerdict.ALMOST_GOOD, v, (Violation(4, "vertex", v),))


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles as sorted vertex triples, lexicographically ordered."""
    out = []
    for u, v in sorted(g.edges):
        for w in g.adj[u]:
            if w > v and w in g.adj[v]:
                out.append((u, v, w))
    return sorted(out)


def check_goodness(g: EdgeColoredGraph) -> GoodnessReport:
    """Evaluate all six goodness conditions; failures are data, not errors.

    Conditions 1, 2, 4 and 5 come from one sweep over the vertices: degree
    and the colors at the vertex. Condition 3 reads `triangles`, as
    `rainbow_triangle` does. Condition 6 takes one lowpoint DFS. For the
    degrees a good graph allows, the whole check is linear in the size of
    the graph. What a removal leaves is checked by `report_after_removal`
    instead.
    """
    adj = g.graph.adj
    coloring = g.coloring
    violations: list[Violation] = []
    bad_candidates: list[int] = []
    span: dict[int, int] = {}  # color -> number of vertices it touches
    even_ok = True
    for v, nbrs in enumerate(adj):
        d = len(nbrs)
        if not d:
            continue
        if d % 2:
            violations.append(Violation(1, "vertex", v))
            even_ok = False
        if d > 4:
            violations.append(Violation(2, "vertex", v))
            even_ok = False
        cols = [coloring[(v, w) if v < w else (w, v)] for w in nbrs]
        distinct = set(cols)
        for c in distinct:
            span[c] = span.get(c, 0) + 1
        if len(distinct) != 2:
            if len(distinct) == 1 and d == 2:
                bad_candidates.append(v)
            else:
                violations.append(Violation(4, "vertex", v))
    for a, b, c in triangles(g.graph):
        if len({coloring[(a, b)], coloring[(b, c)], coloring[(a, c)]}) == 2:
            violations.append(Violation(3, "triangle", (a, b, c)))
    violations.extend(Violation(5, "color", c) for c, k in span.items() if k > 3)

    if even_ok:
        violations.extend(report_from_type_x(g).violations)

    if len(bad_candidates) == 1 and not violations:
        return almost_good_at(bad_candidates[0])
    violations.extend(Violation(4, "vertex", v) for v in bad_candidates)
    violations.sort(key=_report_order)
    if violations:
        return GoodnessReport(GoodnessVerdict.NOT_GOOD, None, tuple(violations))
    return GOOD_REPORT


def _report_order(x: Violation) -> tuple[int, str]:
    # every (condition, witness) occurs once, so this fixes the order
    return x.condition, str(x.witness)


def report_from_type_x(g: EdgeColoredGraph) -> GoodnessReport:
    """The report of an even graph that meets conditions 1-5 with no vertex
    of color degree 1, from one Type X search: good, or not good with one
    condition-6 violation per Type X vertex, in `check_goodness`'s order.
    `check_goodness` takes its condition 6 from here, and a reduction whose
    child meets the other five by a lemma of the module docstring takes
    the child's whole report."""
    found = sorted((Violation(6, "vertex", v) for v in g.type_x_sides),
                   key=_report_order)
    if found:
        return GoodnessReport(GoodnessVerdict.NOT_GOOD, None, tuple(found))
    return GOOD_REPORT


def report_after_removal(g: EdgeColoredGraph, parent: EdgeColoredGraph,
                         prep: GoodnessReport, cycles: Sequence[Cycle],
                         ) -> GoodnessReport | None:
    """The report of g, parent minus the edge-disjoint `cycles`, when g is
    good or almost-good, else None; `prep` is parent's report, which must
    be good or almost-good.

    Conditions 1, 2, 3 and 5 still hold (see the module docstring), so only
    condition 4 at the cycles' vertices and condition 6 are checked: this
    costs O(sum |C|) plus one Type X search.
    """
    if not prep.ok:
        raise ColoredGraphError("a removal's report needs a good or almost-good parent")
    if g.n != parent.n or len(g.edges) != len(parent.edges) - sum(map(len, cycles)):
        raise ColoredGraphError(f"graph is not its parent minus the cycles "
                                f"{[c.vertices for c in cycles]}")
    adj = g.graph.adj
    coloring = g.coloring
    # off the cycles nothing changed, so the parent's bad vertex stays bad
    b = prep.bad_vertex
    bad = [] if b is None or any(b in c for c in cycles) else [b]
    for v in (v for c in cycles for v in c.vertices):
        nbrs = adj[v]
        # each cycle took two edges; two left show one or two colors
        if nbrs:
            x, y = nbrs
            if coloring[edge(v, x)] == coloring[edge(v, y)]:
                bad.append(v)
    if len(bad) > 1 or g.type_x_sides:
        return None
    return almost_good_at(bad[0]) if bad else GOOD_REPORT


# ---------------------------------------------------------------------------
# cut structure


def _require_even(g: EdgeColoredGraph) -> None:
    odd = [v for v, nbrs in enumerate(g.graph.adj) if len(nbrs) % 2]
    if odd:
        raise ColoredGraphError(f"Type X detection requires an even graph; "
                                f"odd-degree vertices {odd}")


def _cut_search(g: EdgeColoredGraph, type_x: bool,
                ) -> tuple[tuple[frozenset[int], ...],
                           dict[int, tuple[tuple[int, ...], ...]] | None]:
    """The Type X search, read from one `graphs.lowpoint_search` of g.
    Returns the search's trees as vertex sets, which are `components`, and,
    when `type_x` is set, `type_x_sides`; it fills both into g's cache. Only
    the Type X grouping needs even degrees.

    For each degree-4 vertex u that separates the subtrees of some children
    c (low[c] >= disc[u]), u's neighbors fall into one group per such
    subtree, by whether their discovery time lies in [disc[c], last[c]],
    plus one group of the rest. One group means u is no cut vertex (a DFS
    root with one child); else, in an even graph, there are two groups of
    two, and u is Type X when both pairs are monochromatic.
    """
    adj = g.graph.adj
    disc, _, last, trees, split = lowpoint_search(adj)
    components = g.__dict__["components"] = tuple(map(frozenset, trees))
    if not type_x:
        return components, None

    coloring = g.coloring
    result = {}
    for u, kids in split.items():
        if len(adj[u]) != 4:
            continue
        groups: dict[int, list[int]] = {}
        for w in adj[u]:
            dw = disc[w]
            side = next((k for k in kids if disc[k] <= dw <= last[k]), -1)
            groups.setdefault(side, []).append(w)
        if len(groups) == 1:
            continue
        if len(groups) != 2 or any(len(ws) != 2 for ws in groups.values()):
            # cannot happen in an even graph; surface it rather than guess
            raise ColoredGraphError(
                f"degree-4 cut vertex {u} splits {sorted(groups.values())} "
                f"across components in an even graph")
        if all(coloring[edge(u, a)] == coloring[edge(u, b)]
               for a, b in groups.values()):
            result[u] = tuple(tuple(ws) for ws in groups.values())
    g.__dict__["type_x_sides"] = result
    return components, result


def split_components(g: EdgeColoredGraph) -> list[EdgeColoredGraph]:
    """One colored graph per edge-bearing component (vertex ids preserved).

    A graph with a single edge-bearing component is returned itself, not
    copied.
    """
    comps = g.components
    if len(comps) == 1:
        return [g]
    out = []
    for comp in comps:
        keep = [e for e in g.edges if e[0] in comp]
        out.append(g.restrict_edges(keep))
    return out


def x_block_decomposition(g: EdgeColoredGraph) -> tuple[frozenset[int], ...]:
    """The vertex sets of the x-blocks of a connected even colored graph,
    ordered by least edge, from the Type X search (see the module docstring).
    """
    if len(g.components) != 1:
        raise ColoredGraphError("x-block decomposition requires a connected graph")
    _require_even(g)
    sides = g.type_x_sides
    adj = g.graph.adj
    seen: set[Edge] = set()
    x_blocks = []
    for first in sorted(g.edges):
        if first in seen:
            continue
        seen.add(first)
        verts = set(first)
        ends = [first, first[::-1]]  # (u, w): join the edges at u with uw
        while ends:
            u, w = ends.pop()
            pairs = sides.get(u)
            for x in adj[u] if pairs is None else pairs[w not in pairs[0]]:
                e = (u, x) if u < x else (x, u)
                if e not in seen:
                    seen.add(e)
                    verts.add(x)
                    ends.append((x, u))
        x_blocks.append(frozenset(verts))
    return tuple(x_blocks)


# ---------------------------------------------------------------------------
# color-structural queries used by the decomposer


def is_almost_rainbow_at(g: EdgeColoredGraph, c: Cycle, v: int) -> bool:
    """One color repeated exactly twice, on the two cycle edges at v."""
    cols = [g.coloring[e] for e in c.edges]
    if len(set(cols)) != len(cols) - 1:
        return False
    at_v = [g.coloring[e] for e in c.edges if v in e]
    return len(at_v) == 2 and at_v[0] == at_v[1]


def _singular_walk(adj: tuple[tuple[int, ...], ...], type1: frozenset[int],
                   start: int, first: int) -> tuple[list[int], bool]:
    """Walk from `start` toward `first`, continuing through Type I vertices.

    Returns (vertices after start, closed); closed means the walk returned to
    start, i.e. the chain is a cycle consisting entirely of Type I vertices.
    """
    seq: list[int] = []
    node, cur = start, first
    while True:
        if cur == start:
            return seq, True
        seq.append(cur)
        if cur not in type1:
            return seq, False
        a, b = adj[cur]
        node, cur = cur, (b if a == node else a)


# ---------------------------------------------------------------------------
# colored edge-list text format: optional "n <count>" line, then "u v color"


def parse_colored_edge_list(text: str) -> EdgeColoredGraph:
    """The colored graph of edge-list text with `u v color` lines
    (`read_edge_lines`). Colors are any tokens. When every token is a
    non-negative decimal integer, each color is that integer, so the text
    `serialize_colored_edge_list` writes reads back to an equal graph;
    else colors are numbered in order of first appearance. Malformed input
    raises ColoredGraphError naming its line."""
    try:
        n, rows = read_edge_lines(text, "u v color")
    except GraphError as err:
        raise ColoredGraphError(str(err)) from None
    if all(c.isascii() and c.isdigit() for _, _, c in rows):
        return EdgeColoredGraph.from_triples(n, [(u, v, int(c)) for u, v, c in rows])
    labels: dict[str, int] = {}
    return EdgeColoredGraph.from_triples(
        n, [(u, v, labels.setdefault(c, len(labels))) for u, v, c in rows])


def serialize_colored_edge_list(g: EdgeColoredGraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v} {g.coloring[(u, v)]}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
