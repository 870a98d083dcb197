import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdcover.coloring import (
    ColoredGraphError,
    EdgeColoredGraph,
    GoodnessVerdict,
    _cut_search,
    _one_arc,
    almost_good_at,
    check_goodness,
    is_almost_rainbow_at,
    parse_colored_edge_list,
    removal_leaves_type_x,
    serialize_colored_edge_list,
    split_components,
    triangles,
    x_block,
)
import cdcover.decomposer as D
from cdcover.decomposer import decompose
from cdcover.graphs import (Cycle, Graph, GraphError, find_bridges, is_connected,
                            is_cubic, lowpoint_search, serialize_graph6)
from cdcover.linegraph import build_line_graph
from cdcover.oracle import GeneratorConfig, enumerate_cycles, random_cubic_bridgeless
from enginecorpus import corpus, fallback_capped
from graphsamples import (
    almost_good_c4,
    bridged_cubic_10,
    case1_1_host,
    case1_2_host,
    case2_2_2d_host,
    k4,
    k33,
    mutate_coloring,
    pentagons_on_a_hexagon,
    petersen,
    prism,
    rainbow_c4,
    square_chain,
    two_squares_type_x,
)
from oracles import (
    case2_2_1b_by_walking,
    color_classes,
    find_type_x_vertices,
    naive_goodness,
    triangles_by_sorting,
    type_x_by_pseudoblock_splits,
    x_blocks_by_definition,
)


def test_color_classes_rainbow_c4():
    classes = color_classes(rainbow_c4())
    assert len(classes) == 4
    assert all(len(es) == 1 for es in classes.values())


def test_color_classes_line_graph_k4():
    lg = build_line_graph(k4()).lg
    classes = color_classes(lg)
    assert len(classes) == 4
    for es in classes.values():
        assert len(es) == 3 and len({v for e in es for v in e}) == 3


def test_color_classes_mono_triangle():
    g = EdgeColoredGraph.from_triples(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    classes = color_classes(g)
    assert len(classes) == 1 and len(classes[5]) == 3


def test_from_triples_refuses_an_edge_in_two_colors():
    with pytest.raises(ColoredGraphError) as err:
        EdgeColoredGraph.from_triples(3, [(0, 1, 5), (1, 2, 5), (1, 0, 6)])
    assert str(err.value) == "edge (0, 1) given two colors"


def test_goodness_line_graph_good():
    for base in (k33(), petersen()):
        rep = check_goodness(build_line_graph(base).lg)
        assert rep.verdict is GoodnessVerdict.GOOD


def test_goodness_almost_good_c4():
    rep = check_goodness(almost_good_c4())
    assert rep.verdict is GoodnessVerdict.ALMOST_GOOD
    assert rep.bad_vertex == 0
    assert [v.condition for v in rep.violations] == [4]


def test_goodness_type_x_example():
    rep = check_goodness(two_squares_type_x())
    assert rep.verdict is GoodnessVerdict.NOT_GOOD
    assert any(v.condition == 6 and v.witness == 0 for v in rep.violations)


def test_goodness_json_shape():
    rep = check_goodness(two_squares_type_x())
    data = rep.to_json()
    assert data["verdict"] == "not_good"
    assert data["violations"][0]["condition"] in range(1, 7)


def test_find_type_x_two_squares():
    assert find_type_x_vertices(two_squares_type_x()) == frozenset({0})


def test_find_type_x_mixed_pair_absent():
    g = EdgeColoredGraph.from_triples(7, [
        (0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 9),
        (0, 4, 5), (4, 5, 6), (5, 6, 7), (0, 6, 5),
    ])
    assert find_type_x_vertices(g) == frozenset()


def test_find_type_x_bridge_line_graph():
    base = bridged_cubic_10()
    clg = build_line_graph(base)
    bridge_vertex = clg.vertex_of_edge[(4, 9)]
    assert bridge_vertex in find_type_x_vertices(clg.lg)


def _x_blocks_by_walks(g: EdgeColoredGraph) -> list[frozenset[int]]:
    """The x-blocks of g that `x_block` walks from its vertices with edges
    that are not Type X, in order of their sorted vertices; each walk
    holds the vertex it starts from."""
    txv = g.type_x_sides
    starts = [v for v in range(g.n) if g.adj[v] and v not in txv]
    walked = {v: x_block(g, v) for v in starts}
    assert all(v in blk for v, blk in walked.items())
    return sorted(set(walked.values()), key=sorted)


def _type_x_per_block(g: EdgeColoredGraph) -> list[int]:
    txv = find_type_x_vertices(g)
    return [len(blk & txv) for blk in _x_blocks_by_walks(g)]


def test_x_block_single_when_no_type_x():
    assert _type_x_per_block(build_line_graph(k4()).lg) == [0]


def test_x_block_two_squares():
    assert _type_x_per_block(two_squares_type_x()) == [1, 1]


def test_x_block_chain_is_path():
    g = square_chain(3)
    assert _type_x_per_block(g) == [1, 2, 1]
    # edge sets of the x-blocks partition the edges
    seen = set()
    for blk in _x_blocks_by_walks(g):
        blk_edges = {e for e in g.edges if e[0] in blk and e[1] in blk}
        assert not (seen & blk_edges)
        seen |= blk_edges
    assert seen == set(g.edges)


def test_x_block_interiors_good_up_to_joint_allowance():
    """Restricting to an x-block creates no goodness defects beyond
    color-degree-1 vertices at the Type X intersections."""
    for g in (two_squares_type_x(), square_chain(3), square_chain(4)):
        ambient = {(v.condition, v.witness) for v in check_goodness(g).violations}
        for blk in _x_blocks_by_walks(g):
            sub = g.edit(drop=[e for e in g.edges if e[0] not in blk or e[1] not in blk])
            for viol in check_goodness(sub).violations:
                if (viol.condition, viol.witness) in ambient:
                    continue
                assert viol.condition == 4
                assert viol.witness in find_type_x_vertices(g)


def test_find_rainbow_triangle_l_k4():
    lg = build_line_graph(k4()).lg
    tri = lg.rainbow_triangle
    assert tri is not None
    cols = {lg.coloring[e] for e in tri.edges}
    assert len(cols) == 3


def test_find_rainbow_triangle_absent_triangle_free_base():
    assert build_line_graph(k33()).lg.rainbow_triangle is None


def test_find_rainbow_triangle_mono_absent():
    g = EdgeColoredGraph.from_triples(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    assert g.rainbow_triangle is None


def test_longest_singular_path_all_type2():
    assert build_line_graph(k4()).lg.singular_chains == ()


def test_longest_singular_path_rainbow_c4():
    length, path = rainbow_c4().singular_chains[0]
    assert length == 4
    assert path == (0, 1, 2, 3, 0)


def test_longest_singular_path_flanked():
    # Type I vertex 0 between two Type II vertices in the 2.2 host
    length, path = case2_2_2d_host().singular_chains[0]
    assert length == 2


def test_goodness_matches_naive_on_mutations():
    rng = random.Random(7)
    seeds = [almost_good_c4(), rainbow_c4(), two_squares_type_x(),
             case1_1_host(), build_line_graph(k4()).lg]
    corpus = list(seeds)
    for g in seeds:
        for _ in range(8):
            corpus.append(mutate_coloring(g, rng))
    for g in corpus:
        rep = check_goodness(g)
        verdict, bad, _ = naive_goodness(g)
        assert rep.verdict.value == verdict
        assert rep.bad_vertex == bad


def test_type_x_matches_pseudoblock_oracle():
    cases = [two_squares_type_x(), square_chain(2), square_chain(4),
             build_line_graph(k4()).lg, build_line_graph(petersen()).lg,
             build_line_graph(bridged_cubic_10()).lg]
    for g in cases:
        assert set(find_type_x_vertices(g)) == type_x_by_pseudoblock_splits(g)


@given(n=st.sampled_from(range(10, 21, 2)), seed=st.integers(0, 999),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_goodness_and_type_x_match_oracles_on_engine_graphs(n, seed, data):
    """The graphs the engine peels through: the line graph of a random cubic
    bridgeless graph minus the first k cycles of its decomposition. They
    carry many cut vertices, unlike the hand-built Type X samples."""
    lg = build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed))).lg
    # a small fallback cap keeps every decomposition well under a second
    with fallback_capped(8):
        trace = decompose(lg)
    assume(trace.cycles is not None)
    k = data.draw(st.integers(0, len(trace.steps)), label="k")
    h = lg
    for step in trace.steps[:k]:
        h = h.edit(drop=step.cycle.edges)
    assert set(find_type_x_vertices(h)) == type_x_by_pseudoblock_splits(h)
    rep = check_goodness(h)
    verdict, bad, violated = naive_goodness(h)
    assert (rep.verdict.value, rep.bad_vertex) == (verdict, bad)
    assert {v.condition for v in rep.violations} == violated


def _random_cycle(g: EdgeColoredGraph, rng: random.Random) -> Cycle:
    """A cycle of an even graph with edges: walk at random, never straight
    back, until a vertex repeats; the loop closed there is the cycle."""
    path = [rng.choice([v for v in range(g.n) if g.adj[v]])]
    at = {path[0]: 0}
    while True:
        back = path[-2] if len(path) > 1 else None
        w = rng.choice([u for u in g.adj[path[-1]] if u != back])
        if w in at:
            return Cycle(tuple(path[at[w]:]))
        at[w] = len(path)
        path.append(w)


def _typed(h: EdgeColoredGraph, bad: int | None, cycles: list[Cycle]) -> bool:
    """Whether each of the edge-disjoint `cycles` of h is rainbow, or
    almost-rainbow at h's bad vertex `bad`, as the removal check's typing
    sweep asks."""
    return all(len({h.coloring[e] for e in c.edges}) == len(c)
               or (bad in c and is_almost_rainbow_at(h, c, bad)) for c in cycles)


def _assert_removal_check_matches_full(h: EdgeColoredGraph, rng: random.Random,
                                       removals: int) -> list[GoodnessVerdict]:
    """Remove up to `removals` random batches in turn from h while it is
    good or almost-good, each of 1-4 edge-disjoint random cycles (rainbow
    or not). The typing lemma of the coloring module docstring holds: when
    every cycle passes the typing, the full check of the remainder fails
    condition 6 alone, or finds it good, or almost-good at the bad vertex b
    when b's cycle is not in the batch. `decomposer._check_removal`
    accepts a batch exactly when its cycles pass the typing and the full
    check finds the remainder good or almost-good, and its `_Checked`
    holds the remainder and the full check's bad vertex. Returns the full
    verdicts of the remainders."""
    verdicts = []
    rep = check_goodness(h)
    for _ in range(removals):
        if not h.edges or not rep.ok:
            break
        cycles, h2 = [], h
        for _ in range(rng.randint(1, 4)):
            if not h2.edges:
                break
            cycles.append(_random_cycle(h2, rng))
            h2 = h2.edit(drop=cycles[-1].edges)
        full = check_goodness(h2)
        b = rep.bad_vertex
        typed = _typed(h, b, cycles)
        if typed:
            if full.ok:
                assert full.bad_vertex == (None if any(b in c for c in cycles) else b)
            else:
                assert {v.condition for v in full.violations} == {6}
        verdicts.append(full.verdict)
        try:
            checked = D._check_removal(h, b, [("peel", c) for c in cycles])
        except D.CaseVerificationError:
            assert not (typed and full.ok)
        else:
            assert typed and full.ok
            assert (checked.rest, checked.bad) == (h2, full.bad_vertex)
        h, rep = h2, full
    return verdicts


@given(n=st.sampled_from(range(10, 21, 2)), seed=st.integers(0, 999),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_incremental_goodness_equals_full_on_engine_graphs(n, seed, data):
    lg = build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed))).lg
    with fallback_capped(8):
        trace = decompose(lg)
    assume(trace.cycles is not None)
    k = data.draw(st.integers(0, len(trace.steps) - 1), label="k")
    h = lg
    for step in trace.steps[:k]:
        h = h.edit(drop=step.cycle.edges)
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    _assert_removal_check_matches_full(h, rng, removals=3)


def _assert_triangles_match_reference(g: EdgeColoredGraph) -> list[tuple[int, int, int]]:
    """`triangles` lists what the sort-based reference lists, in its order,
    and `rainbow_triangle`, read fresh, is the reference's first triple
    with three colors, or None when it has none. Returns the rainbow
    triples."""
    ref = triangles_by_sorting(g)
    assert triangles(g) == ref
    col = g.coloring
    rainbow = [(u, v, w) for u, v, w in ref
               if len({col[(u, v)], col[(v, w)], col[(u, w)]}) == 3]
    assert "rainbow_triangle" not in g.__dict__
    assert g.rainbow_triangle == (Cycle(rainbow[0]) if rainbow else None)
    return rainbow


@given(n=st.sampled_from(range(8, 25, 2)), seed=st.integers(0, 999),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_triangle_walk_matches_the_sort_based_reference(n, seed, rng):
    """On the line graph of a random cubic bridgeless graph, on what
    peeling random cycles off it by `edit` leaves, and on recolorings of
    each, which make two-colored and new rainbow triangles."""
    h = build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed))).lg
    for _ in range(rng.randint(0, 4)):
        _assert_triangles_match_reference(h)
        _assert_triangles_match_reference(mutate_coloring(h, rng))
        if not h.edges:
            break  # h is checked, and its facts are cached
        h = h.edit(drop=_random_cycle(h, rng).edges)
    else:
        _assert_triangles_match_reference(h)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_triangle_walk_matches_the_sort_based_reference_on_drawn_graphs(data):
    """On any colored graph: dense ones, with many triangles of every kind."""
    n = data.draw(st.integers(0, 9), label="n")
    pairs = [(u, v) for v in range(n) for u in range(v)]
    coloring = data.draw(st.dictionaries(
        st.sampled_from(pairs), st.integers(0, 3)) if pairs else st.just({}),
        label="coloring")
    _assert_triangles_match_reference(EdgeColoredGraph(n, coloring))


def test_triangle_walk_matches_the_sort_based_reference_on_almost_good_graphs():
    """On every almost-good graph the engine corpus dispatches, read
    through a copy that `edit` makes with its neighbor tuples, and on the
    Case 1 hosts; some of them have a rainbow triangle."""
    almost = [c.args[0] for c in corpus().calls("_dispatch") if c.args[1] is not None]
    almost += [almost_good_c4(), case1_1_host(), case1_2_host()]
    assert len(almost) > 500
    with_rainbow = 0
    for g in almost:
        with_rainbow += bool(_assert_triangles_match_reference(g.edit(drop=())))
    assert 100 < with_rainbow < len(almost)


_SAMPLES = {
    "two_squares_type_x": two_squares_type_x(),
    "square_chain_2": square_chain(2),
    "square_chain_4": square_chain(4),
    "almost_good_c4": almost_good_c4(),
    "case1_1_host": case1_1_host(),
    "case1_2_host": case1_2_host(),
    "case2_2_2d_host": case2_2_2d_host(),
    "line_graph_petersen": build_line_graph(petersen()).lg,
    "line_graph_bridged": build_line_graph(bridged_cubic_10()).lg,
}


@given(name=st.sampled_from(sorted(_SAMPLES)),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_incremental_goodness_equals_full_on_samples(name, rng):
    _assert_removal_check_matches_full(_SAMPLES[name], rng, removals=4)


def test_incremental_goodness_sees_every_verdict():
    """The sample removals from good or almost-good parents reach good,
    almost-good and not-good remainders, so the property above covers each
    way the removal check ends: with no bad vertex, with the parent's, and
    refused."""
    rng = random.Random(11)
    seen = set()
    for g in _SAMPLES.values():
        for _ in range(20):
            seen.update(_assert_removal_check_matches_full(g, rng, removals=4))
    assert seen == set(GoodnessVerdict)


def _checked_peels(h: EdgeColoredGraph, rng: random.Random,
                   edges: int) -> EdgeColoredGraph:
    """h less random cycles, each removed only when the engine's removal
    check accepts it, so every graph on the way is good or almost-good,
    until at most `edges` edges are left or 200 cycles have been tried. A
    graph that is not good or almost-good is returned as it is."""
    rep = check_goodness(h)
    if not rep.ok:
        return h
    bad = rep.bad_vertex
    for _ in range(200):
        if len(h.coloring) <= edges:
            break
        try:
            checked = D._check_removal(h, bad, [("peel", _random_cycle(h, rng))])
        except D.CaseVerificationError:
            continue
        h, bad = checked.rest, checked.bad
    return h


def _meets_one_arc_hypothesis(h: EdgeColoredGraph, bad: int | None, c: Cycle) -> bool:
    """The one-arc removal lemma's hypothesis, read off its statement: c is
    rainbow, or almost-rainbow at the bad vertex, has a vertex of degree 4
    in h, and its degree-4 vertices are consecutive along it."""
    cols = [h.coloring[e] for e in c.edges]
    if len(set(cols)) < len(cols) and not (bad in c and is_almost_rainbow_at(h, c, bad)):
        return False
    deg4 = [len(h.adj[v]) == 4 for v in c.vertices]
    arcs = sum(d and not deg4[i - 1] for i, d in enumerate(deg4))
    return arcs == 1 or all(deg4)


def _assert_one_arc_lemma(g: EdgeColoredGraph) -> None:
    """For each good or almost-good component H of g, and every cycle C of
    H that meets the one-arc removal lemma's hypothesis, a fresh Type X
    search of H - C finds one component and no Type X vertex, and the
    removal check's own test, `_one_arc`, accepts C."""
    for h in split_components(g):
        rep = check_goodness(h)
        if not rep.ok:
            continue
        for vs, _ in enumerate_cycles(h, math.inf):
            c = Cycle(vs)
            if not _meets_one_arc_hypothesis(h, rep.bad_vertex, c):
                continue
            rest = h.edit(drop=c.edges)
            assert _one_arc(rest, h, c), vs
            comps, sides = _cut_search(EdgeColoredGraph(rest.n, dict(rest.coloring)))
            assert (len(comps), sides) == (1, {}), vs


@given(n=st.sampled_from(range(8, 17, 2)), seed=st.integers(0, 999),
       edges=st.integers(24, 40), rng=st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_one_arc_removal_lemma_on_peeled_line_graphs(n, seed, edges, rng):
    """An attempt to refute the one-arc removal lemma on line graphs less
    random checked peels, down to at most `edges` edges, which keeps the
    list of their cycles short."""
    lg = build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed))).lg
    _assert_one_arc_lemma(_checked_peels(lg, rng, edges))


@given(name=st.sampled_from(sorted(_SAMPLES)), edges=st.integers(0, 30),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_one_arc_removal_lemma_on_samples(name, edges, rng):
    """The same attempt on the hand-built samples and what checked peels
    leave of them; those that are not good are skipped."""
    _assert_one_arc_lemma(_checked_peels(_SAMPLES[name], rng, edges))


def test_two_arc_removal_can_leave_a_type_x_vertex():
    """The one-arc hypothesis is needed. A Case2_2_2a rectangle that the
    engine refused on the line graph of n=20, seed 15, relabelled: the good
    graph's rainbow rectangle x1 v x2 w = 1 0 2 3, with v and w of degree 2,
    has its degree-4 vertices x1 and x2 on two arcs, and removing it leaves
    8 a Type X vertex, between the squares 1 4 8 6 and 2 5 8 7. Every
    rectangle that Case2_2_2a refuses in the engine corpus is two-arc."""
    g = EdgeColoredGraph.from_triples(9, [
        (0, 1, 0), (0, 2, 1), (1, 6, 2), (1, 3, 2), (2, 3, 3), (1, 4, 0),
        (2, 7, 3), (2, 5, 1), (6, 8, 4), (4, 8, 4), (7, 8, 5), (5, 8, 5)])
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.GOOD
    rect = Cycle((1, 0, 2, 3))
    assert len({g.coloring[e] for e in rect.edges}) == 4
    assert not _meets_one_arc_hypothesis(g, None, rect)
    rest = g.edit(drop=rect.edges)
    assert not _one_arc(rest, g, rect)
    assert removal_leaves_type_x(rest, g, [rect])
    assert rest.type_x_sides == {8: ((4, 6), (5, 7))}
    refused = 0
    for c in corpus().calls("_case2_2_2a"):
        h, p = c.args
        if next(i for i in c.inner() if i.name == "_check_removal").error is None:
            continue
        rect = Cycle((p.x1, p.v, p.x2, p.w1))
        assert [len(h.adj[v]) for v in (p.x1, p.v, p.x2, p.w1)] == [4, 2, 4, 2]
        assert not _one_arc(h.edit(drop=rect.edges), h, rect)
        refused += 1
    assert refused >= 5


def test_one_arc_check_reads_the_common_neighbor():
    """The lemma's proof reads C's colors only through the vertex w that
    joins two consecutive degree-4 vertices, so the check tests w itself
    and holds for a cycle that is not rainbow. In this good graph, left by
    checked peels of the line graph of n=10, seed 3, C = 1 2 5 14 repeats
    color 9, its degree-4 vertices 2 5 14 are one arc, and it leaves one
    vertex of one color, 5. But 2 and 5 keep no common neighbor by color
    9, and removing C leaves 8 a Type X vertex, so the check is not met
    and the search refuses the remainder, as the full check does."""
    g = EdgeColoredGraph.from_triples(15, [
        (0, 2, 0), (0, 8, 7), (1, 2, 0), (1, 14, 8), (2, 5, 9), (2, 14, 9),
        (3, 4, 1), (3, 5, 1), (3, 9, 3), (3, 10, 3), (4, 5, 1), (4, 11, 5),
        (4, 12, 5), (5, 14, 9), (6, 7, 2), (6, 8, 2), (6, 9, 4), (6, 11, 4),
        (7, 8, 2), (7, 10, 6), (7, 12, 6), (8, 13, 7), (13, 14, 8)])
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.GOOD
    c = Cycle((1, 2, 5, 14))
    assert [g.coloring[e] for e in c.edges] == [0, 9, 9, 8]
    assert [len(g.adj[v]) for v in c.vertices] == [2, 4, 4, 4]
    rest = g.edit(drop=c.edges)
    assert not _one_arc(rest, g, c)
    assert removal_leaves_type_x(rest, g, [c])
    assert rest.type_x_sides == {8: ((0, 13), (6, 7))}
    assert check_goodness(EdgeColoredGraph(rest.n, dict(rest.coloring))).verdict \
        is GoodnessVerdict.NOT_GOOD


def test_type_x_true_positives_on_engine_graphs():
    """Every graph the decomposer asks for x-blocks in the engine corpus,
    the merged graphs of Case2_2_1b; unlike the remainders above, these
    carry Type X vertices."""
    nonempty = 0
    for c in corpus().calls("_case2_2_1b"):
        g = c.args[2]
        txv = find_type_x_vertices(g)
        assert set(txv) == type_x_by_pseudoblock_splits(g)
        nonempty += bool(txv)
    assert nonempty >= 100


def test_x_blocks_match_definition_on_engine_graphs():
    """On every merged graph the engine hands Case2_2_1b, `x_block` from
    each vertex with edges that is not Type X walks the x-block by the
    definition that holds it, and the walks meet every x-block."""
    several = 0
    for c in corpus().calls("_case2_2_1b"):
        blocks = _x_blocks_by_walks(c.args[2])
        assert blocks == sorted(x_blocks_by_definition(c.args[2]), key=sorted)
        several += len(blocks) > 1
    assert several >= 100


def test_case2_2_1b_matches_the_walked_block_tree():
    """Case2_2_1b reads its end block off m's x-block and derives its
    bad vertex. On every merged graph the engine hands it, the walk of the
    x-block tree finds the path from m's x-block to v's that the end-block
    path lemma proves, and the same joining vertex t, and the full check
    finds the end block almost-good at t."""
    reduced = 0
    for c in corpus().calls("_case2_2_1b"):
        g, p, child, m = c.args
        red = D._case2_2_1b(g, p, child, m)
        assert red.bad == case2_2_1b_by_walking(child, p, m)
        assert almost_good_at(red.bad) == check_goodness(red.child)
        reduced += 1
    assert reduced >= 100


def test_case2_2_1b_verdicts_on_longer_block_paths_and_a_star():
    """The engine's merged graphs have two x-blocks, so this runs the same
    comparison on hexagons with one, two and three pentagons hung on them
    (x-block paths of two and three blocks, and a star), for every choice
    of m and v that meets the end-block path lemma's conclusion, which
    the walk of the tree checks: m is not Type X, and the tree is the path
    from m's x-block to v's. The flanks are put at m and y1, y2 at v, so
    only the tree decides."""
    reduced = skipped = 0
    for joints in ((0,), (0, 3), (0, 2, 4)):
        child = pentagons_on_a_hexagon(joints)
        for m, v in itertools.product(range(child.n), repeat=2):
            p = D.CasePattern(v, -1, -1, 0, 0, v, v, m, m, m, m, 0, 0)
            want = case2_2_1b_by_walking(child, p, m)
            if isinstance(want, str):
                skipped += 1
                continue
            red = D._case2_2_1b(None, p, child, m)
            assert red.bad == want
            assert almost_good_at(red.bad) == check_goodness(red.child)
            reduced += 1
    assert reduced and skipped


def test_heredity_conditions_1_to_5_after_rainbow_removal():
    """Removing a rainbow cycle from the good L(Petersen) leaves conditions
    1-5 holding, condition 4 with no vertex of one color, as the typing
    lemma in the coloring module docstring proves: the full check fails
    condition 6 alone, if any, and finds no bad vertex."""
    rng = random.Random(3)
    lg = build_line_graph(petersen()).lg
    from oracles import enumerate_rainbow_cycles
    cycles = enumerate_rainbow_cycles(lg)
    for _ in range(12):
        vs = cycles[rng.randrange(len(cycles))]
        h = lg.edit(drop=Cycle(vs).edges)
        rep = check_goodness(h)
        assert all(v.condition == 6 for v in rep.violations)
        assert rep.bad_vertex is None and not any(
            len(set(h.colors_at(v))) == 1 for v in range(h.n) if h.adj[v])


def test_remove_cycle_fills_no_fact_and_drops_a_consumed_triangle():
    """Two rainbow triangles meeting at 2. A cycle's remainder,
    `edit(drop=c.edges)`, is made with no fact filled and computes its
    rainbow triangle when asked: removing the least one leaves the other,
    and removing the other leaves the least one."""
    g = EdgeColoredGraph.from_triples(6, [(0, 1, 0), (1, 2, 1), (0, 2, 2),
                                          (2, 3, 3), (3, 4, 4), (2, 4, 5)])
    assert g.rainbow_triangle == Cycle((0, 1, 2))
    h = g.edit(drop=Cycle((0, 1, 2)).edges)
    assert "rainbow_triangle" not in h.__dict__
    assert h.rainbow_triangle == Cycle((2, 3, 4))
    assert g.edit(drop=Cycle((2, 3, 4)).edges).rainbow_triangle == Cycle((0, 1, 2))
    # no rainbow triangle before, none after
    plain = EdgeColoredGraph.from_triples(6, [(0, 1, 0), (1, 2, 1), (2, 3, 0),
                                              (0, 3, 1), (0, 4, 2), (4, 5, 2),
                                              (0, 5, 2)])
    assert plain.rainbow_triangle is None
    assert plain.edit(drop=Cycle((0, 1, 2, 3)).edges).rainbow_triangle is None


def test_remove_cycle_that_disconnects():
    """Triangles (0, 1, 2) and (3, 4, 5) joined by the square 2 6 3 7:
    removing the square leaves two components, and 6 and 7 isolated."""
    g = EdgeColoredGraph.from_triples(8, [
        (0, 1, 0), (1, 2, 1), (0, 2, 2), (3, 4, 3), (4, 5, 4), (3, 5, 5),
        (2, 6, 6), (3, 6, 7), (3, 7, 8), (2, 7, 9)])
    assert g.components == (frozenset(range(8)),)
    h = g.edit(drop=Cycle((2, 6, 3, 7)).edges)
    assert "components" not in h.__dict__
    assert h.components == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert [p.edges for p in split_components(h)] == [
        frozenset({(0, 1), (1, 2), (0, 2)}), frozenset({(3, 4), (4, 5), (3, 5)})]


def test_remove_cycle_derives_adjacency():
    """A remainder's adjacency is derived from its parent's: the cycle's
    vertices get new neighbor tuples, every other vertex keeps its own, and
    all of them equal the ones built from the remainder's edge set."""
    base = petersen()
    g = EdgeColoredGraph(base.n, {e: i for i, e in enumerate(sorted(base.edges))})
    c = Cycle((0, 1, 2, 3, 4))
    h = g.edit(drop=c.edges)
    assert h.edges == g.edges - set(c.edges)
    assert dict(h.coloring) == {e: k for e, k in g.coloring.items()
                                if e not in c.edges}
    assert h.adj == Graph(h.n, h.edges).adj
    assert all(h.adj[v] is g.adj[v] for v in range(5, 10))
    with pytest.raises(ColoredGraphError, match="absent"):
        h.edit(drop=c.edges)


def test_remove_cycle_with_absent_edges_names_them():
    """`edit` refuses to drop a cycle with edges the graph lacks, with a
    ColoredGraphError that names them, not a bare KeyError, and leaves the
    graph as it was."""
    g = rainbow_c4()
    with pytest.raises(ColoredGraphError) as err:
        g.edit(drop=Cycle((0, 2, 1, 3)).edges)
    assert str(err.value) == "cannot remove absent edges [(0, 2), (1, 3)]"
    assert g == rainbow_c4() and g.adj == ((1, 3), (0, 2), (1, 3), (0, 2))


def test_edit_drops_and_adds_locally():
    """`edit` removes edges and inserts colored ones. Only the endpoints of
    changed edges get new neighbor tuples, sorted; an edge dropped and added
    again takes its new color; adding a present edge is refused."""
    g = EdgeColoredGraph.from_triples(6, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                          (0, 3, 3), (4, 5, 4)])
    h = g.edit(drop=[(0, 1), (2, 3)], add={(1, 3): 5, (0, 2): 6})
    assert dict(h.coloring) == {(1, 2): 1, (0, 3): 3, (4, 5): 4,
                                (1, 3): 5, (0, 2): 6}
    assert h.adj == Graph(h.n, h.edges).adj
    assert h.adj[0] == (2, 3) and h.adj[4] is g.adj[4]
    assert g.edit(drop=[(0, 1)], add={(0, 1): 9}).color(1, 0) == 9
    assert g.edit(drop=()) == g
    with pytest.raises(ColoredGraphError) as err:
        g.edit(drop=[(0, 1)], add={(1, 2): 7})
    assert str(err.value) == "cannot add present edge (1, 2)"


@pytest.mark.parametrize("bad, message", [
    ((2, 6), "edge (2, 6) out of range for n=6"),
    ((-1, 2), "edge (-1, 2) out of range for n=6"),
    ((3, 1), "edge (3, 1) out of range for n=6"),
    ((4, 4), "edge (4, 4) out of range for n=6"),
    ((1, 2, 3), "bad edge (1, 2, 3)"),
    ("ab", "bad edge 'ab'"),
], ids=["high", "negative", "reversed", "loop", "triple", "not-a-tuple"])
def test_edit_validates_added_edges_as_graph_does(bad, message):
    """`edit` validates the edges it adds, and only those: an added edge
    that is out of range, not canonical or not a pair raises the GraphError
    the `Graph` constructor raises for it, and the graph is left as it
    was."""
    g = EdgeColoredGraph.from_triples(6, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                          (0, 3, 3), (4, 5, 4)])
    adj = g.adj
    with pytest.raises(GraphError) as err:
        g.edit(drop=[(0, 1)], add={(1, 3): 5, bad: 9})
    assert str(err.value) == message
    with pytest.raises(GraphError) as ref:
        Graph(g.n, frozenset({bad}))
    assert str(ref.value) == message
    assert g.adj is adj and len(g.edges) == 5


def test_edit_results_equal_validated_graphs():
    """Every graph `edit` makes in the engine corpus equals the graph the
    validating `EdgeColoredGraph` constructor accepts for its colored
    edges, adjacency included."""
    made = [c.result for c in corpus().calls("edit")]
    assert len(made) > 1000
    for h in made:
        ref = EdgeColoredGraph(h.n, dict(h.coloring))
        assert type(h) is EdgeColoredGraph
        assert type(h.edges) is frozenset and type(h.coloring) is dict
        assert h == ref and hash(h) == hash(ref) and h.edges == ref.edges
        assert h.adj == ref.adj


def _graph_readings(g: Graph, probes: list[Cycle]) -> tuple:
    """What each graph reader of the package answers on g; `probes` are
    the cycles asked about."""
    return (is_connected(g), find_bridges(g), is_cubic(g), triangles(g),
            lowpoint_search(g.adj), [c.is_cycle_of(g) for c in probes],
            enumerate_cycles(g, math.inf), serialize_graph6(g))


def _assert_read_as_its_graph(g: EdgeColoredGraph) -> None:
    plain = Graph(g.n, g.edges)
    assert isinstance(g, Graph) and type(plain) is Graph
    probes = [Cycle(vs) for vs, _ in enumerate_cycles(plain, math.inf)[::7]]
    if g.n >= 3:
        probes.append(Cycle(tuple(range(g.n))))  # mostly not a cycle of g
    assert _graph_readings(g, probes) == _graph_readings(plain, probes)


def test_colored_graphs_read_as_their_graphs_on_line_graphs():
    """A colored graph is the `Graph` of its edges: every graph reader
    answers on it as on `Graph(g.n, g.edges)`, for sample line graphs, two
    disjoint copies of L(K4) and the components of these, and for what a
    peel of their least triangle leaves; `edit` makes the components and
    the remainders, with their neighbor tuples filled."""
    lines = [build_line_graph(base).lg
             for base in (k4(), k33(), prism(), petersen(), bridged_cubic_10())]
    first = lines[0].coloring
    lines.append(EdgeColoredGraph(12, {**first, **{(u + 6, v + 6): c + 4
                                                   for (u, v), c in first.items()}}))
    for lg in lines:
        peeled = lg.edit(drop=Cycle(triangles(lg)[0]).edges)
        for g in (lg, *split_components(lg), peeled, *split_components(peeled)):
            _assert_read_as_its_graph(g)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_colored_graphs_read_as_their_graphs_on_drawn_graphs(data):
    n = data.draw(st.integers(0, 8), label="n")
    pairs = [(u, v) for v in range(n) for u in range(v)]
    coloring = data.draw(st.dictionaries(
        st.sampled_from(pairs), st.integers(0, 3)) if pairs else st.just({}),
        label="coloring")
    _assert_read_as_its_graph(EdgeColoredGraph(n, coloring))


def test_from_edges_builds_a_plain_graph():
    """The inherited `from_edges` has no coloring to give, so it makes a
    plain `Graph`, also when called on `EdgeColoredGraph`."""
    g = EdgeColoredGraph.from_edges(3, [(1, 0), (1, 2)])
    assert type(g) is Graph and g == Graph(3, frozenset({(0, 1), (1, 2)}))


def test_equal_colored_graphs_hash_equal():
    """Equal graphs hash equal however they were built, so a colored graph
    can key a set or a cache; a recoloring makes an unequal graph."""
    g = rainbow_c4()
    built = [
        EdgeColoredGraph.from_triples(4, [(3, 0, 3), (2, 3, 2), (1, 2, 1),
                                          (0, 1, 0)]),
        EdgeColoredGraph(4, dict(g.coloring)),
        EdgeColoredGraph.from_triples(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                          (0, 3, 3), (0, 2, 4)]
                                      ).edit(drop=[(0, 2)]),
    ]
    for h in built:
        assert h == g and h is not g and hash(h) == hash(g)
    assert len({g, *built}) == 1
    calls = []

    @functools.cache
    def edge_count(h: EdgeColoredGraph) -> int:
        calls.append(h)
        return len(h.edges)

    assert [edge_count(h) for h in (g, *built)] == [4] * 4 and calls == [g]
    recolored = almost_good_c4()
    assert (recolored.n, recolored.edges) == (g.n, g.edges) and recolored != g
    assert len({g, recolored}) == 2


def test_components_on_an_odd_graph():
    """`components` and `type_x_sides` need no even degrees. Vertex 0 has
    degree 4 and splits its neighbors 3 to 1, a split no even graph has, so
    the one search that fills both skips it: the graph has no Type X
    vertex."""
    g = EdgeColoredGraph.from_triples(7, [(0, 1, 0), (0, 2, 1), (0, 3, 2),
                                          (0, 4, 3), (1, 2, 4), (2, 3, 5),
                                          (5, 6, 6)])
    assert g.components == (frozenset({0, 1, 2, 3, 4}), frozenset({5, 6}))
    assert g.__dict__["type_x_sides"] == {}
    assert g.type_x_sides == {} and find_type_x_vertices(g) == frozenset()
    assert EdgeColoredGraph.from_triples(3, [(0, 1, 0)]).components == (
        frozenset({0, 1}),)
    assert EdgeColoredGraph.from_triples(3, []).components == ()


def test_split_components():
    g = EdgeColoredGraph.from_triples(7, [(0, 1, 0), (1, 2, 1), (0, 2, 2),
                                          (3, 4, 3), (4, 5, 4), (3, 5, 5)])
    parts = split_components(g)
    assert len(parts) == 2
    assert {len(p.edges) for p in parts} == {3}


def test_split_components_returns_single_component_itself():
    # vertex 3 is isolated, so one edge-bearing component
    one = EdgeColoredGraph.from_triples(4, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
    parts = split_components(one)
    assert len(parts) == 1 and parts[0] is one
    assert split_components(EdgeColoredGraph.from_triples(3, [])) == []

    two = EdgeColoredGraph.from_triples(7, [(3, 4, 3), (4, 5, 4), (3, 5, 5),
                                            (0, 1, 0), (1, 2, 1), (0, 2, 2)])
    parts = split_components(two)
    assert [p.n for p in parts] == [7, 7]
    assert [dict(p.coloring) for p in parts] == [
        {(0, 1): 0, (1, 2): 1, (0, 2): 2},
        {(3, 4): 3, (4, 5): 4, (3, 5): 5},
    ]
    assert all(p is not two for p in parts)


def test_colored_edge_list_roundtrip():
    """Integer colors read back as themselves, also when they are sparse
    and not in order of first appearance, as after a peel."""
    g = case1_1_host()
    sparse = EdgeColoredGraph(g.n, {e: 40 - 3 * c for e, c in g.coloring.items()})
    for h in (g, sparse):
        text = serialize_colored_edge_list(h)
        back = parse_colored_edge_list(text)
        assert back == h
        assert serialize_colored_edge_list(back) == text


def test_colored_edge_list_arbitrary_labels():
    g = parse_colored_edge_list("0 1 red\n1 2 blue\n2 0 red\n")
    assert g.color(0, 1) == g.color(0, 2) != g.color(1, 2)


def test_colored_edge_list_non_integer_header():
    with pytest.raises(ColoredGraphError, match="non-integer vertex count in 'n abc'"):
        parse_colored_edge_list("n abc\n0 1 red\n")


@pytest.mark.parametrize("text, message", [
    ("0 0 1\n", "line 1: self-loop at vertex 0"),
    ("-1 2 0\n", "line 1: negative vertex id in '-1 2 0'"),
    ("n 3\n0 5 1\n", "line 2: edge (0, 5) out of range for declared n=3"),
    ("n -1\n", "line 1: negative vertex count -1"),
    ("# two blank lines follow\n\n\n0 1 a\n3 3 b\n", "line 5: self-loop at vertex 3"),
], ids=["self-loop", "negative-id", "out-of-range", "negative-count", "after-comments"])
def test_colored_edge_list_names_the_bad_line(text, message):
    """Ids and counts that `Graph` would reject are rejected by the parser
    with its own error, which names the line: `cdcover replay` reads this
    format from the "graph" of a case failure in a trace file."""
    with pytest.raises(ColoredGraphError) as err:
        parse_colored_edge_list(text)
    assert str(err.value) == message
