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
shrink. By the typing lemma below, so does condition 4, as almost-good
relaxes it at the bad vertex while that vertex's cycle is left, when each
cycle is rainbow, or almost-rainbow at the bad vertex. So the remainder
of such cycles needs only condition 6 checked, which the one-arc removal
lemma below settles for most single cycles with no search;
`removal_leaves_type_x` does that, and runs one Type X search only where
the lemma does not apply.

The one-arc removal lemma. Let H be connected and good, or almost-good at
b, and let C be a cycle of H that is rainbow, or almost-rainbow at b.
Suppose C has at least one degree-4 vertex, and its degree-4 vertices are
consecutive along C. Then H - C is connected and has no Type X vertex.
Every degree-4 vertex of H is Type II: a color on three of its four edges
would span four vertices (condition 5). Take a C-edge xy between two
degree-4 vertices, of color c. x has a second edge xw of color c and y
one yw', and w = w', or c would span x, y, w and w'. C uses c once, on xy:
the color an almost-rainbow C repeats is on b's two edges, and b has
degree 2. So xw and yw are edges of H - C, and they join x and y there. A
vertex with edges in H - C is joined in H to C, and the first vertex of C
on such a path is entered by an edge off C, so it has degree 4; hence
H - C is connected. Now suppose u were Type X in H - C. It has degree 4
there, so it is off C, and its edges are its edges in H. Two consecutive
degree-4 vertices x and y of C lie on one side of u: the path x w y
avoids u, or w = u, and then ux and uy have the one color c, so they are
one of u's two monochromatic pairs. So the degree-4 vertices of C lie on
one side, and the other side holds no vertex of C, as the degree-2 ones
are isolated in H - C. That side's vertices have all their edges of H, so
it meets the rest of H only at u, by the same pair, and u would already be
Type X in H. The proof reads C's colors only through w. So
`removal_leaves_type_x` checks, in O(|C|), that the degree-4 vertices of
one removed cycle are one arc and that each two consecutive ones x, y keep
edges xw, yw of color c(xy) in H - C, which the hypothesis implies. Then
it fills the remainder's components, H's without the vertices of C that
had degree 2, and its empty Type X map, with no search, and answers no.
Every rainbow triangle is one arc, as any set of a triangle's vertices is
consecutive, and so is every cycle of an all-Type-II graph.

The component lemma: each edge-bearing component of a good graph is
good; of a graph almost-good at b, b's component is almost-good at b and
the others are good. Conditions 1-5 are local (a vertex's edges, a
triangle, a color class), and a component has these as the graph does, or
fewer. A cut vertex of a component has the same sides in the graph, as no
other component meets it, so it is Type X in both or in neither. So the
decomposer gives each component of a split its report unchecked
(`decomposer._advance`).

The typing lemma. Let H be good, or almost-good at b, and C1, ..., Ck
edge-disjoint cycles of H, each rainbow, or almost-rainbow at b: one
color repeated, on its two edges at b. Then R = H - C1 - ... - Ck meets
conditions 1-5 with no vertex of color degree 1, but b when no Ci passes
through b. Every degree-4 vertex of H is Type II: a color on three of its
four edges would span four vertices (condition 5). A typed cycle uses two
edges of different colors at each vertex it passes but b, as a rainbow
cycle repeats no color, and an almost-rainbow one repeats its color only
at b. So a degree-4 vertex on one Ci keeps one edge of each of its
colors, one on two keeps none, a degree-2 vertex on a Ci keeps none, and
a vertex on none keeps its edges. b has degree 2 and sees one color, so
no rainbow cycle passes through it: it is isolated in R when its
almost-rainbow cycle is among the Ci, and keeps its one color otherwise.
So R is good, or almost-good at b while b's cycle is left, exactly when
it has no Type X vertex; `decomposer._check_removal` sets R's bad vertex
so, and asks only for condition 6.

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
cycle, and one check that R is right, by the typing lemma that R has no
Type X vertex, accept exactly the batches that per-cycle checks accept
(`decomposer._check_removal`). A batch that covers H leaves R empty,
which is right, since b's cycle is then in the batch, so it needs no
goodness check. The engine's output covers the
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
configuration that no good or almost-good parent has. So the child is good
exactly when it has no Type X vertex, and the Type X contraction lemma
below shows that a contraction's child has none, and the rewired-child
lemma that Case2_2_2a's rewired child has none. No case checks the
pattern its lemma reads: as each lemma shows, the parent's report and the
dispatch that reaches the case imply it. Nor does `_build_transform` look
for a loop or a parallel edge: each lemma's edits make none.
The labels are the case's. In the Case2_2 family (`decomposer.CasePattern`, which
`decomposer.extract_case2_2_pattern` labels once, as its shape's subcase
reads it), v is Type I with colors alpha and beta; x1 pairs alpha, to v
and y1, with gamma, to w1 and z1; x2 pairs beta, to v and y2, with delta,
to w2 and z2.
Two facts recur. (i) A class of color c that spans three vertices spans no
fourth, so an edge with an end outside that span is not of color c. In the
Case2_2 family, alpha spans v, x1 and y1, so its class is the two edges
vx1, x1y1, as v has degree 2; likewise beta. So a vertex that sees two
such colors has degree 2, as y does in shape b and y1 in shape c. And
gamma != delta, or that class would span x1, x2, w1 and z1. (ii) A
vertex whose edges keep their colors, whatever their other ends become,
still meets conditions 1, 2 and 4.

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

Case1_1 contracts the triangle S = {v, x1, x2} at the bad vertex v,
which condition 3 makes monochromatic, of v's color alpha. x1 sees a
second color, so it has degree 4, and as alpha spans v, x1 and x2, its
other two edges have one color, beta; likewise x2's have one color,
gamma. beta != gamma, or beta would span four vertices, and the two
pairs have no common end w, or (x1, x2, w) would be a rainbow triangle,
which the dispatch removes first. v sees only alpha, and x2 sees alpha
and gamma, so no other vertex of S sees beta. Likewise no other vertex
sees gamma, and the pair lemma applies. Case2_2_2b contracts the rectangle
S = {v, x1, y, x2}, where y = y1 = y2 is Type I, so v and y see alpha and
beta only. The pairs are x1's gamma pair and x2's delta pair, which have
no common end, or the shape would be a. gamma is not alpha, as x1 sees two
colors. It is not beta, by (i), since x1 is outside beta's span v, x2, y.
It is not delta, as shown above. So x2 does not see gamma, and
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
Let S = {v, x1, y1, x2} be the rectangle, with x2z2 dropped and added at
m with color beta. beta's class is {vx2, x2y2}, and delta's is {x2y1, x2z2},
by (i) and since y1 has degree 2. So the child's beta class is {my2, mz2},
which spans three vertices, and its delta class is empty. z2 had one
delta edge and did not see beta, as it is outside v, x2, y2, so it still
sees two colors. y2 keeps its colors, and (ii) covers the rest. Then the
pair lemma's argument holds, with x1's gamma pair and beta at m, except
for the triangle (m, y2, z2) when y2 ~ z2. Then (x2, y2, z2) was a
triangle of H with colors beta and delta, so rainbow, and the new one
has beta twice and a third color. A good H never has it. y2 sees beta
once and z2 sees delta once, so each has degree 2: three edges of its
other color would make that color span four vertices. So x2, v, y1, y2
and z2 have no neighbors but each other and x1, and x1 separates its
alpha pair from its gamma pair: it is a Type X cut vertex.

The edge lemma (Case1_2). H is almost-good at v, and v's neighbors x1
and x2 are not adjacent. Then x1 has degree 2: alpha spans v, x1 and x2,
so vx1 is x1's one alpha edge, and three edges of its other color would
span four vertices; likewise x2. Let y1 and y2 be their other
neighbors. The child merges v and x1 into m and drops vx1. So m has
degree 2, with m x2 of color alpha and m y1 of color a1 = c(x1y1), which
is not alpha, as x1 sees two colors. alpha's class is {vx1, vx2}, by (i)
and since x1 is not adjacent to x2, and it becomes {mx2}. a1's class
spans m in place of x1, as v sees only alpha. (ii) covers every other
vertex, and v, the one vertex of color degree 1, is merged. The one
triangle through m is (m, x2, y1), when y1 = y2. Its colors are alpha, a1
and a2 = c(x2y2), which is not alpha either, so it is rainbow unless
a1 = a2. An almost-good H never has it: y = y1 = y2 then sees a1 on its
edges to x1 and x2. With degree 2, y is a second vertex of color
degree 1. With degree 4, the cycle v x1 y x2 meets the rest at y alone,
which makes y a Type X cut vertex.

The Type X contraction lemma. Let the child contract a connected set S of
H into m, as Case1_1, Case1_2, Case2_2_2b and Case2_2_2c do. Then the
child has no Type X vertex. Take a vertex u outside S. Its edges keep
their colors, but for Case2_2_2c's z2, which has degree 2: its one delta
edge is x2z2, and three edges of its other color would span four
vertices. A path of H - u through S becomes a path of the child - u
through m, and a path of the child - u through m becomes one of H - u
through S, as S stays joined by its dropped inner edges. So u's edges
split into the same sides in both graphs, and u is not Type X in the
child, as H has no Type X vertex. Case1_2's m has degree 2. Otherwise
the edges that leave S are x1's pair and x2's, for flanks x1 and x2 of
S, and the rest of S has no edge out, as its other vertices, v and, in a
rectangle, y1, have degree 2. x1 is not Type X in H, so a path of H - x1
joins its outer pair to its inner pair, and it enters S at x2, by x2's
outer pair. Its part up to there joins m's two pairs once m is removed
from the child, so m is not Type X either (`decomposer._contraction`,
which fills the child's facts by `decomposer._good_reduction`).

The rectangle lemma (Case2_2_2a, where w = w1 = w2). Let R be the
rectangle x1 v x2 w of the good H, whose colors alpha, beta, delta and
gamma differ. If H - R is not good, then w has degree 2, y1, y2, z1 and
z2 are Type I, and the sides {y1, z1} and {y2, z2} do not meet. By fact
(i), y1 and y2 have degree 2, and condition 4 gives them two colors.
Conditions 1, 2, 3 and 5 are hereditary, and in H - R, x1 keeps alpha
and gamma, x2 beta and delta, v is isolated, and w, which sees gamma and
delta only, keeps one edge of each or none. So H - R can fail only
condition 6. Suppose w has degree 4. By fact (i) its second gamma edge
goes to z1 and its second delta edge to z2, so H - R keeps the path
x1 z1 w z2 x2. For a vertex u off R and that path, what R joined in H - u
the path joins in H - R - u, so u has the same sides in both, and it is
not Type X. Nor is z1. If it were, in H - R, its gamma pair {x1, w} would
be one side, which holds x2 too, by w z2 x2; putting R back then joins
nothing new to z1's sides, and z1 would be Type X in H. Likewise z2, and
x1, x2 and w have degree 2 in H - R, so H - R is good. So w has degree 2,
and it is Type I, as it sees gamma and delta. Then gamma's class is
{x1w, x1z1}, so z1 sees gamma once, and three edges of its other color
would span four vertices: z1 is Type I of degree 2, and likewise z2. If
the sides shared a vertex s, then H - R would have the path x1 s x2, and
the same argument, with s of degree 2, shows that H - R is good.

The rewire lemma (Case2_2_2a, where w = w1 = w2, once the rectangle is
refused). By the rectangle lemma, w, y1, y2, z1 and z2 are Type I, and
{y1, z1} and {y2, z2} do not meet. The child drops every edge at x1 and
x2 and adds y1w (alpha), y2w (beta), z1v (gamma) and z2v (delta). So y1,
y2, z1 and z2 keep their colors, v sees gamma and delta, and w sees
alpha and beta. alpha's and beta's classes become one edge each. So do gamma's and delta's, which were
{x1w, x1z1} and {x2w, x2z2} by (i), as w has degree 2. Each new triangle
passes through v or w. (v, z1, z2), when z1 ~ z2, has a third edge of
neither gamma (z2 is outside x1, w, z1) nor delta (likewise), so it is
rainbow. The same holds for (w, y1, y2). So the rewired child of a good
graph is good or fails condition 6 alone.

The pivot lemma (Case2_2_2a, once the rectangle R = x1 v x2 w of a good
and connected H is refused). By the rectangle lemma, H - R fails
condition 6 alone, so it has a Type X vertex u0. u0 has degree 4, so it
is none of x1, x2, v, w, y1, y2, z1 and z2, which have degree 2 or none
in H - R. Then u0's two sides separate {x1, y1, z1} from {x2, y2, z2}.
Each triple is joined in H - R, by y1 x1 z1 and by y2 x2 z2, so it lies
on one side of u0 or off u0's component. If one side S of u0 held
neither, its vertices, which are not x1, x2, v or w, would have all
their edges of H, so S would meet the rest of H only at u0, and u0 would
be Type X in H. For the same reason H - R has no component without u0.
Let P1 and P2 be the sides that hold x1 and x2. Each component, a part,
of P1 - x1 holds y1 or z1, as P1 is connected and x1 has no other
neighbor there, and it has an edge to u0. Otherwise its one edge out
would be x1y1 or x1z1, a bridge of the even graph H - R, or it would
hold both, and be all of P1 - x1, which holds the ends of u0's pair into
P1. Likewise for P2 - x2. So H - R less x1 and x2 is connected: every
part hangs on u0.

The rewired-child lemma (Case2_2_2a). The rewired child C of such an H is
connected on the vertices of H other than x1 and x2, and has no Type X
vertex, so it is good, by the rewire lemma. C is H - R less x1 and x2,
plus the paths y1 w y2 and z1 v z2, so it is connected, by the pivot
lemma. Suppose u were Type X in C. It has degree 4, so it is none of v,
w, y1, y2, z1 and z2, and it has all its edges of H, with their colors.
The two paths avoid u, so each lies on one side of u. If both lay on
one side, the other side would hold no vertex the rewire changed, so it
would meet the rest of H only at u, and u would be Type X in H. So y1,
w, y2 lie on one side P of u, and z1, v, z2 on the other, Q. Then u0
cannot exist. If u0 is in P: each part of Q - v holds z1 or z2 and has
an edge to u, or vz1 or vz2 would be a bridge of the even graph C; so
Q - v and u join z1 to z2 by edges of H - R - u0, against the pivot
lemma. If u0 is in Q, the same holds for y1 and y2, with P - w. If
u0 = u, no part of H - R less x1, x2 and u holds both a y and a z, as
P != Q. So P1 - x1 has two parts, one holding y1 and one z1, and so has
P2 - x2, and each part gets one of u's four edges. u's pair into P, to
y1's part and y2's, has one color, and its pair into Q, to z1's part and
z2's, the other. So the pair into P1 has two colors, and u0 would not
be Type X in H - R. Case2_2_2a fills C's components, H's less x1 and x2,
and its empty Type X map with no search (`decomposer._good_reduction`).

The split lemma (Case2_2_2a). In any rainbow decomposition of C, v and
w lie on different cycles. Let S1 = P1 - x1 and S2 = P2 - x2. Every
edge of C lies in S1 and u0, or in S2 and u0, or is one of y1w, wy2,
z1v and vz2, with y1 and z1 in S1 and y2 and z2 in S2. So a cycle of C
crosses between S1 and S2 only at u0, v or w, an even number of times.
A cycle through v or w crosses there, and a rainbow cycle through u0
crosses there too, as it uses one edge of each of u0's colors, and u0's
pair into S1 has one color and its pair into S2 the other. u0, of degree
4, lies on two cycles of the decomposition, each of which needs one more
crossing, and v and w, of degree 2, lie on one cycle each. So one of
u0's cycles holds v and the other w. Case2_2_2a's lift then puts x1 and
x2 back around v, on the cycle z1 v z2, and around w, on y1 w y2, and
each lifted cycle is rainbow: v's gains alpha and beta, which C has only
on w's edges, and w's gains gamma and delta, which C has only on v's.

The Type X search, which sorts u's neighbors by side, gives the x-blocks
too. Join two edges when they share a vertex, except that at a Type X
vertex u only the two edges of each side are joined; the x-blocks are
the vertex sets of the classes of edges. `x_block(g, v)` walks one class,
from the edges at a vertex v that is not Type X, which are all joined
there. These are the blocks (maximal 2-connected
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
then the x-blocks that hold exactly one.

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

The end-block path lemma: let H be good and connected, with a Case2_2
pattern of the disjoint shape, and let C be Case2_2_1's merged child, with
at least one Type X vertex. Then m is not Type X, and every Type X vertex
u of C separates v from m. First, if C - m split m's gamma pair {w1, z1}
from its delta pair {w2, z2}, then y1, v and y2, which C joins, would lie
with one pair or with neither, so one pair, say {w1, z1}, would lie in a
component K of C - m without v. In H, K meets the rest only at x1, which
then separates its gamma pair from its alpha pair {v, y1}: a Type X
vertex of H. Next, u has degree 4, so it is none of v, y1 and y2, which
have degree 2 by fact (i), and its edges keep their colors. A path of
C - u becomes a walk of H - u, with m read as x1, x2 or x1 v x2, and y1 v
as y1 x1 v, likewise y2. So H - u joins whatever C - u joins. If it split
u's edges, it would split them into C's two sides, two monochromatic
pairs, and u would be Type X in H; so H - u is connected. Take a vertex s
of C - u other than v and m, and a path of H - u from s to v. Up to its
first vertex of x1 or x2, it is a path of C - u too, and it ends at a y,
which C joins to v, or at a w or z, which C joins to m. So every
component of C - u holds v or m. u's own component of C splits into two
or more without u, so it is all of C, and C - u has two components, one
holding v and the other m. Each Type X vertex is an edge of the x-block
tree, then, on its path from m's x-block to v's, each unique as neither
m nor v is Type X. So the tree is that path, and m's x-block is an end
of it, holding exactly one Type X vertex (`decomposer._case2_2_1b`).
"""
from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .graphs import (Cycle, Edge, Graph, GraphError, _Record, cached_property,
                     check_edge, edge, lowpoint_search, read_edge_lines)


class ColoredGraphError(ValueError):
    """Malformed colored-graph input or an illegal operation."""


class EdgeColoredGraph(Graph):
    """A graph whose edges are the keys of its edge coloring by integer
    color ids, so that a coloring is total by construction. A colored
    graph is a `Graph`, and any graph reader takes it as it is.

    Treated as immutable; all transformations return new instances.
    """

    def __init__(self, n: int, coloring: Mapping[Edge, int]) -> None:
        super().__init__(n, frozenset(coloring))
        self._set(coloring=coloring)

    def __hash__(self) -> int:
        # the base's hash would hash the coloring dict; this one agrees
        # with its ==, which compares n and coloring
        return hash((self.n, frozenset(self.coloring.items())))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The coloring's keys. An `edit` does not build this set; the
        engine reads `coloring` instead."""
        return frozenset(self.coloring)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.coloring

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "EdgeColoredGraph":
        coloring = {}
        for u, v, c in triples:
            e = edge(u, v)
            if e in coloring and coloring[e] != c:
                raise ColoredGraphError(f"edge {e} given two colors")
            coloring[e] = c
        return cls(n, coloring)

    def color(self, u: int, v: int) -> int:
        return self.coloring[edge(u, v)]

    def colors_at(self, v: int) -> tuple[int, ...]:
        return tuple(self.coloring[edge(v, w)] for w in self.adj[v])

    def edit(self, drop: Iterable[Edge],
             add: Mapping[Edge, int] | None = None) -> "EdgeColoredGraph":
        """This graph minus the edges of `drop`, which must all be present,
        plus the new canonical edges of `add` with their colors. Only the
        endpoints of changed edges get new neighbor tuples, and only those
        that gained a neighbor are sorted again.

        Only the edges of `add` are validated, as `Graph` validates an edge:
        the kept edges are this graph's, already valid. So the child skips
        the constructor's check, which would cost O(m), and its edge set,
        which `edges` builds if it is read."""
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
        adj = list(self.adj)
        for x, ws in lost.items():
            adj[x] = tuple([w for w in adj[x] if w not in ws])
        for x, ws in gained.items():
            adj[x] = tuple(sorted([*adj[x], *ws]))
        child = object.__new__(EdgeColoredGraph)
        child.__dict__.update(n=self.n, coloring=coloring)
        child.__dict__["adj"] = tuple(adj)  # fills the cached property
        return child

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Vertex sets of the edge-bearing connected components, by min
        vertex: the trees of the lowpoint search that the Type X search
        (`_cut_search`) reads, which also fills `type_x_sides`. Where a
        lemma proves a graph has no Type X vertex, both facts are filled
        with no search when it is made (`removal_leaves_type_x`,
        `decomposer._good_reduction`, `decomposer._case2_2_1b`)."""
        return _cut_search(self)[0]

    @cached_property
    def type_x_sides(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Each degree-4 cut vertex whose neighbors fall into two sides of
        two, each pair monochromatic, mapped to its two pairs by side. On an
        even graph these are exactly the cut vertices of Type X."""
        return _cut_search(self)[1]

    @cached_property
    def type1(self) -> frozenset[int]:
        """The Type I vertices: degree 2, with two different colors."""
        coloring = self.coloring
        type1 = []
        for v, nbrs in enumerate(self.adj):
            if len(nbrs) == 2:
                a, b = nbrs
                if coloring[(v, a) if v < a else (a, v)] != \
                        coloring[(v, b) if v < b else (b, v)]:
                    type1.append(v)
        return frozenset(type1)

    @cached_property
    def rainbow_triangle(self) -> Cycle | None:
        """The lexicographically least triangle with three distinct colors:
        the first rainbow one of the walk that `triangles` lists."""
        coloring = self.coloring
        for u, v, w in _triangle_walk(self.adj):
            a, b = coloring[(u, v)], coloring[(v, w)]
            if a != b and coloring[(u, w)] not in (a, b):
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
        the cycle's. So a component that is one cycle has one chain, closed
        if it is good, or b ... b if it is almost-good at b, and the
        decomposer's BaseCycle reads the cycle off it.
        """
        type1 = self.type1
        adj = self.adj
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


def _triangle_walk(adj: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, int, int]]:
    """Each triangle of the graph with sorted neighbor tuples `adj` once,
    as a sorted vertex triple, in lexicographic order: for each vertex u,
    its neighbors v > u in order, and for each, the neighbors w > v of u
    that are neighbors of v."""
    for u, nu in enumerate(adj):
        for v in nu:
            if v > u:
                nv = adj[v]
                for w in nu:
                    if w > v and w in nv:
                        yield u, v, w


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles as sorted vertex triples, lexicographically ordered."""
    return list(_triangle_walk(g.adj))


def check_goodness(g: EdgeColoredGraph) -> GoodnessReport:
    """Evaluate all six goodness conditions; failures are data, not errors.

    Conditions 1, 2, 4 and 5 come from one sweep over the vertices: degree
    and the colors at the vertex. Condition 3 reads `triangles`, the list
    of the walk whose first rainbow triple is `rainbow_triangle`.
    Condition 6 takes one lowpoint DFS. For the degrees a good graph
    allows, the whole check is linear in the size of the graph. What a
    removal leaves is checked by `removal_leaves_type_x` instead.
    """
    adj = g.adj
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
    for a, b, c in triangles(g):
        if len({coloring[(a, b)], coloring[(b, c)], coloring[(a, c)]}) == 2:
            violations.append(Violation(3, "triangle", (a, b, c)))
    violations.extend(Violation(5, "color", c) for c, k in span.items() if k > 3)

    if even_ok:
        violations.extend(Violation(6, "vertex", v) for v in g.type_x_sides)

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


def removal_leaves_type_x(g: EdgeColoredGraph, parent: EdgeColoredGraph,
                          cycles: Sequence[Cycle]) -> bool:
    """Whether g, the good or almost-good `parent` minus the edge-disjoint
    typed `cycles`, has a Type X vertex, the one condition the typing lemma
    in the module docstring leaves open. When the parent is connected and
    one cycle is removed whose degree-4 vertices are one arc, the one-arc
    removal lemma there answers no and fills g's components and Type X
    map: this costs O(|C|). Otherwise g's Type X search answers.
    """
    if len(cycles) == 1 and len(parent.components) == 1 \
            and _one_arc(g, parent, cycles[0]):
        (comp,) = parent.components
        # the cycle's vertices of degree 2, isolated in g
        gone = [v for v in cycles[0].vertices if not g.adj[v]]
        g.__dict__["components"] = (comp.difference(gone) if gone else comp,)
        g.__dict__["type_x_sides"] = {}
        return False
    return bool(g.type_x_sides)


def _one_arc(g: EdgeColoredGraph, parent: EdgeColoredGraph, cyc: Cycle) -> bool:
    """Whether the removal of `cyc` from `parent`, which leaves g, meets the
    one-arc removal lemma's hypothesis as `removal_leaves_type_x` checks
    it: the vertices of `cyc` that keep edges in g, its degree-4 vertices,
    are one arc of it or all of it, and each two consecutive ones x, y
    keep edges xw and yw of color c(xy)."""
    adj, coloring = g.adj, g.coloring
    vs = cyc.vertices
    starts = 0  # degree-4 vertices that follow a degree-2 one
    x = vs[-1]
    for y in vs:
        if adj[y]:
            if not adj[x]:
                starts += 1
            else:
                c = parent.coloring[(x, y) if x < y else (y, x)]
                ny = adj[y]
                if not any(w in ny and coloring[(x, w) if x < w else (w, x)] == c
                           and coloring[(y, w) if y < w else (w, y)] == c
                           for w in adj[x]):
                    return False
        x = y
    return starts == 1 or (starts == 0 and bool(adj[vs[0]]))


# ---------------------------------------------------------------------------
# cut structure


def _cut_search(g: EdgeColoredGraph,
                ) -> tuple[tuple[frozenset[int], ...],
                           dict[int, tuple[tuple[int, ...], ...]]]:
    """The Type X search, read from one `graphs.lowpoint_search` of g.
    Returns the search's trees as vertex sets, which are `components`, and
    `type_x_sides`; it fills both into g's cache.

    For each degree-4 vertex u that separates the subtrees of some children
    c (low[c] >= disc[u]), u's neighbors fall into one group per such
    subtree, by whether their discovery time lies in [disc[c], last[c]],
    plus one group of the rest. u is kept when there are two groups of two
    and both pairs are monochromatic. One group means u is no cut vertex (a
    DFS root with one child); any other split cannot occur in an even
    graph, where a branch meets u by an even number of edges.
    """
    adj = g.adj
    disc, _, last, trees, split = lowpoint_search(adj)
    components = g.__dict__["components"] = tuple(map(frozenset, trees))
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
        if len(groups) != 2 or any(len(ws) != 2 for ws in groups.values()):
            continue
        if all(coloring[edge(u, a)] == coloring[edge(u, b)]
               for a, b in groups.values()):
            result[u] = tuple(tuple(ws) for ws in groups.values())
    g.__dict__["type_x_sides"] = result
    return components, result


def split_components(g: EdgeColoredGraph) -> list[EdgeColoredGraph]:
    """One colored graph per edge-bearing component (vertex ids preserved),
    each an `edit` of g that drops the other components' edges.

    A graph with a single edge-bearing component is returned itself, not
    copied.
    """
    comps = g.components
    if len(comps) == 1:
        return [g]
    return [g.edit(drop=[e for e in g.coloring if e[0] not in comp]) for comp in comps]


def x_block(g: EdgeColoredGraph, v: int) -> frozenset[int]:
    """The vertex set of the x-block that holds v, a vertex with edges
    that is not Type X, read from `type_x_sides` (see the module
    docstring): the class of v's edges, which are all joined at v."""
    sides = g.type_x_sides
    adj = g.adj
    seen = {(v, w) if v < w else (w, v) for w in adj[v]}
    verts = {v, *adj[v]}
    ends = [(w, v) for w in adj[v]]  # (u, w): join the edges at u with uw
    while ends:
        u, w = ends.pop()
        pairs = sides.get(u)
        for x in adj[u] if pairs is None else pairs[w not in pairs[0]]:
            e = (u, x) if u < x else (x, u)
            if e not in seen:
                seen.add(e)
                verts.add(x)
                ends.append((x, u))
    return frozenset(verts)


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
    lines.extend(f"{u} {v} {g.coloring[(u, v)]}" for u, v in sorted(g.coloring))
    return "\n".join(lines) + "\n"
