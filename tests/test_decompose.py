import ast
import collections
import functools
import hashlib
import itertools
import json
import math
import random
import sys
import weakref
from collections.abc import Iterable, Iterator
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cdcover.decomposer as D
from cdcover.coloring import (
    GOOD_REPORT,
    EdgeColoredGraph,
    GoodnessReport,
    GoodnessVerdict,
    Violation,
    almost_good_at,
    check_goodness,
    parse_colored_edge_list,
    serialize_colored_edge_list,
    split_components,
)
from cdcover.decomposer import (
    CaseVerificationError,
    DecomposeError,
    FallbackResult,
    case1_1,
    case1_2,
    case2_1,
    decompose,
    extract_case2_2_pattern,
    fallback_search,
    replay_case_failure,
)
from cdcover.graphs import Cycle, Graph, parse_graph6
from cdcover.linegraph import build_line_graph, cover_from_decomposition, project_cycle
from cdcover.oracle import (GeneratorConfig, brute_force_rainbow_decomposition,
                            random_cubic_bridgeless)
from cdcover.verify import verify_cdc, verify_rainbow_decomposition
from enginecorpus import Call, corpus, fallback_capped, recording
from graphsamples import (
    almost_good_c4,
    bridged_cubic_10,
    case1_1_host,
    case1_2_host,
    case2_2_2d_host,
    k4,
    k33,
    petersen,
    prism,
    rainbow_c4,
    two_squares_type_x,
)
from oracles import (
    _components_avoiding,
    build_transform_by_scan,
    case2_1_run_by_scan,
    connected_ignoring_isolated,
    cycles_of,
    enumerate_cycles_by_copying,
    enumerate_rainbow_cycles,
    exhaustive_fallback,
    remove_one_at_a_time,
)

FIXTURES = Path(__file__).parent / "fixtures"

# the recorded goodness checks: the full one of a root, and the Type X
# check of what a removal leaves
GOODNESS = ("check_goodness", "removal_leaves_type_x")


def _report_of(bad: int | None) -> GoodnessReport:
    """The report of a graph that is good, `bad` None, or almost-good at
    `bad`: what the engine's bad vertex stands for."""
    return GOOD_REPORT if bad is None else almost_good_at(bad)


def _decomposed_ok(g):
    tr = decompose(g)
    assert tr.success, tr.failure and tr.failure.message
    assert verify_rainbow_decomposition(g, tr.cycles).accepted
    return tr


def test_decompose_rainbow_c4_single_cycle():
    tr = _decomposed_ok(rainbow_c4())
    assert [s.case for s in tr.steps] == ["BaseCycle"]
    assert len(tr.cycles) == 1


def test_decompose_almost_good_c4():
    tr = _decomposed_ok(almost_good_c4())
    assert [s.case for s in tr.steps] == ["BaseCycle"]


def test_decompose_almost_good_c6_bypasses_case_1_2():
    g = EdgeColoredGraph.from_triples(6, [
        (0, 1, 0), (0, 5, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4)])
    assert check_goodness(g).verdict is GoodnessVerdict.ALMOST_GOOD
    tr = _decomposed_ok(g)
    assert [s.case for s in tr.steps] == ["BaseCycle"]
    assert len(tr.cycles) == 1


@st.composite
def colored_cycles(draw, may_be_almost=True):
    """A cycle of 3-12 vertices on shuffled ids of a larger n, as (n, its
    vertices in order, its colored edges, its bad vertex or None). It is
    good, every edge of its own color, or, from 4 vertices on and when
    `may_be_almost`, almost-good at one vertex whose two edges share a
    color."""
    m = draw(st.integers(3, 12), label="length")
    n = m + draw(st.integers(0, 6), label="spare ids")
    vs = draw(st.permutations(range(n)), label="ids")[:m]
    colors = draw(st.permutations(range(m + 4)), label="colors")[:m]
    bad = None
    if may_be_almost and m >= 4 and draw(st.booleans(), label="almost"):
        i = draw(st.integers(0, m - 1), label="bad")
        colors[i] = colors[i - 1]  # edges i - 1 and i meet at vs[i]
        bad = vs[i]
    return n, vs, [(vs[i], vs[(i + 1) % m], colors[i]) for i in range(m)], bad


@settings(max_examples=150, deadline=None)
@given(colored_cycles())
def test_a_cycle_is_one_base_cycle_step(drawn):
    """A good or almost-good cycle has one singular chain, closed at its
    least vertex or running from the bad vertex back to it, as long as the
    cycle; `decompose` reads the cycle off it as its one BaseCycle step."""
    n, vs, triples, bad = drawn
    g = EdgeColoredGraph.from_triples(n, triples)
    rep = check_goodness(g)
    assert (rep.verdict, rep.bad_vertex) == (
        (GoodnessVerdict.GOOD, None) if bad is None
        else (GoodnessVerdict.ALMOST_GOOD, bad))
    ((length, seq),) = g.singular_chains
    assert length == len(vs) and set(seq) == set(vs)
    assert seq[0] == seq[-1] == (min(vs) if bad is None else bad)
    tr = decompose(g)
    assert [(s.case, s.cycle) for s in tr.steps] == [("BaseCycle", Cycle(tuple(vs)))]


@settings(max_examples=100, deadline=None)
@given(colored_cycles(), colored_cycles(may_be_almost=False))
def test_two_disjoint_cycles_are_two_base_cycle_steps(first, second):
    """The disjoint union of two such cycles, on disjoint ids and colors,
    the second good, splits into its two cycles, each one BaseCycle step."""
    n1, vs1, triples1, _ = first
    n2, vs2, triples2, _ = second
    g = EdgeColoredGraph.from_triples(
        n1 + n2, triples1 + [(u + n1, v + n1, c + 100) for u, v, c in triples2])
    tr = decompose(g)
    assert tr.success
    assert [s.case for s in tr.steps] == ["BaseCycle", "BaseCycle"]
    assert {s.cycle for s in tr.steps} == {
        Cycle(tuple(vs1)), Cycle(tuple(v + n1 for v in vs2))}


@pytest.mark.parametrize("colors", [(0, 0, 0), (0, 0, 1, 1)],
                         ids=["monochromatic", "two-bad-vertices"])
def test_base_cycle_refuses_a_cycle_that_is_not_one_chain(colors):
    """A cycle with no singular chain as long as itself (none at all, or
    two from one bad vertex to the other) is not good, so BaseCycle, which
    reads a cycle off its one chain, never sees it: `decompose` refuses it
    at its one full check."""
    m = len(colors)
    g = EdgeColoredGraph.from_triples(m, [(i, (i + 1) % m, c) for i, c in enumerate(colors)])
    assert all(length < m for length, _ in g.singular_chains)
    assert check_goodness(g).verdict is GoodnessVerdict.NOT_GOOD
    with pytest.raises(DecomposeError, match="input is not_good"):
        decompose(g)


def test_decompose_l_k4():
    lg = build_line_graph(k4()).lg
    tr = _decomposed_ok(lg)
    assert sum(len(c) for c in tr.cycles) == 12
    assert tr.steps[0].case in ("RainbowTriangle", "AllTypeII")


def test_decompose_l_petersen():
    lg = build_line_graph(petersen()).lg
    tr = _decomposed_ok(lg)
    assert sum(len(c) for c in tr.cycles) == 30


def test_decompose_rejects_not_good():
    with pytest.raises(DecomposeError):
        decompose(two_squares_type_x())


def test_decompose_partition_invariant():
    lg = build_line_graph(prism()).lg
    tr = _decomposed_ok(lg)
    seen = set()
    for c in tr.cycles:
        assert not (seen & set(c.edges))
        seen |= set(c.edges)
    assert seen == set(lg.edges)


def _disjoint_union(parts: list[EdgeColoredGraph]) -> tuple[EdgeColoredGraph, list[int]]:
    """The parts side by side, each one's vertex and color ids shifted past
    the previous parts'; returns the union and each part's vertex offset."""
    triples, offsets, n, colors = [], [], 0, 0
    for g in parts:
        triples += [(u + n, v + n, c + colors) for (u, v), c in g.coloring.items()]
        offsets.append(n)
        n += g.n
        colors += 1 + max(g.coloring.values())
    return EdgeColoredGraph.from_triples(n, triples), offsets


@pytest.mark.parametrize("parts", [
    (build_line_graph(k4()).lg, build_line_graph(k33()).lg),
    (almost_good_c4(), build_line_graph(petersen()).lg),
    (build_line_graph(k33()).lg, case1_1_host()),
], ids=["LK4+LK33", "almost_c4+LPetersen", "LK33+case1_1_host"])
def test_decompose_disjoint_union(parts):
    """A disconnected root splits into one frame per component, each given
    its bad vertex by the component lemma instead of a goodness check: the
    bad vertex every dispatch receives is the full check's, and each
    component is peeled as it would be alone, shifted by its offset."""
    union, offsets = _disjoint_union(list(parts))
    with recording() as log:
        tr = _decomposed_ok(union)
    dispatched = [c.args for c in log if c.name == "_dispatch"]
    alone = sorted(tuple(v + off for v in c.vertices)
                   for g, off in zip(parts, offsets) for c in decompose(g).cycles)
    assert sorted(c.vertices for c in tr.cycles) == alone
    assert all(_report_of(bad) == check_goodness(comp) for comp, bad in dispatched)
    # each component is dispatched whole, as split off the union
    whole = {comp.edges for comp, _ in dispatched}
    for g, off in zip(parts, offsets):
        assert frozenset((u + off, v + off) for u, v in g.edges) in whole


def test_decompose_deterministic():
    lg = build_line_graph(petersen()).lg
    a = decompose(lg)
    b = decompose(lg)
    assert [s.case for s in a.steps] == [s.case for s in b.steps]
    assert [c.vertices for c in a.cycles] == [c.vertices for c in b.cycles]
    assert json.dumps(a.to_json(), sort_keys=True) == \
           json.dumps(b.to_json(), sort_keys=True)


def test_trace_json_shape():
    tr = decompose(build_line_graph(k4()).lg)
    data = tr.to_json()
    assert data["outcome"]["status"] == "success"
    for step in data["steps"]:
        assert step["case"] in D.CASE_TAGS
        assert step["goodness"]["verdict"] in ("good", "almost_good")


def test_prefix_goodness_replay():
    """Removing the trace's cycles in order leaves, after each step, a graph
    whose full goodness report is the step's: the reports the root
    certificate derives from the covering lemma, on good line graphs (the
    corpus's uncapped runs, L(K33) and L(Petersen)) and on almost-good
    roots (the Case1_1 host and every 8th almost-good graph the corpus
    dispatches, which are decomposed again here), whose bad vertex's cycle
    is listed first."""
    cp = corpus()
    almost = [c.args[0] for c in cp.calls("_dispatch") if c.args[1] is not None][::8]
    good = [(r.clg.lg, r.trace) for r in cp.runs if r.cap is None]
    good += [(lg, decompose(lg)) for lg in (build_line_graph(k33()).lg,
                                            build_line_graph(petersen()).lg)]
    verdicts, steps = [], 0
    for g, tr in good + [(g, decompose(g)) for g in (case1_1_host(), *almost)]:
        rep = check_goodness(g)
        assert tr.success
        if rep.bad_vertex is not None:
            assert rep.bad_vertex in tr.cycles[0]
        h = g
        for step in tr.steps:
            h = h.edit(drop=step.cycle.edges)
            assert check_goodness(h) == step.goodness
        assert not h.edges
        verdicts.append(rep.verdict)
        steps += len(tr.steps)
    assert verdicts == ([GoodnessVerdict.GOOD] * len(good)
                        + [GoodnessVerdict.ALMOST_GOOD] * (1 + len(almost)))
    assert len(almost) > 30 and steps > 500


# ---------------------------------------------------------------------------
# case handlers


def test_case1_1_host_trace():
    g = case1_1_host()
    tr = _decomposed_ok(g)
    assert tr.steps[0].case == "Case1_1"
    first = tr.cycles[0]
    cols = [g.coloring[e] for e in first.edges]
    assert len(set(cols)) == len(cols) - 1  # the almost-rainbow cycle leads


def _lifted_partition(g, red):
    """Lift the child's decomposition; assert it partitions g's edges."""
    sub = [(s.case, s.cycle) for s in decompose(red.child).steps]
    lifted = [c for _, c in red.lift(sub)]
    assert sorted(e for c in lifted for e in c.edges) == sorted(g.edges)
    return lifted


def test_case1_1_child_and_lift():
    """The bad triangle 0-1-2 contracts to vertex 0, and 1 and 2 are left
    isolated; the lift puts the path 1-0-2 into one cycle and the edge 1-2
    into the other."""
    g = case1_1_host()
    red = case1_1(g, 0)
    assert red.child.n == g.n
    assert dict(red.child.coloring) == {
        (0, 3): 1, (0, 4): 1, (0, 5): 2, (0, 6): 2, (3, 5): 3, (4, 6): 4}
    assert red.bad is None
    lifted = _lifted_partition(g, red)
    almost = [c for c in lifted if not _is_rainbow(g, c)]
    assert len(almost) == 1 and {0, 1, 2} <= set(almost[0].vertices)
    assert any((1, 2) in c.edges and 0 not in c for c in lifted)


def _square_and_edge():
    return EdgeColoredGraph.from_triples(6, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                             (0, 3, 3), (4, 5, 4)])


def test_build_transform_merges_a_group_onto_its_least_id():
    """A merge group becomes its least vertex, whichever order it is given
    in; its other vertices stay, with no edges, and no other id moves."""
    child = D._build_transform(_square_and_edge(), drop=[(0, 1)], merge=[(1, 0)])
    assert child.n == 6
    assert dict(child.coloring) == {(0, 2): 1, (2, 3): 2, (0, 3): 3, (4, 5): 4}
    assert child.adj[1] == ()


def _adj_from_scratch(g):
    return Graph(g.n, g.edges).adj


def test_build_transform_matches_the_full_scan_on_random_edits():
    """On random drops, merges and additions on small colored graphs that
    the full scan accepts, `_build_transform`, which examines only the
    edges the edits touch, builds the child the full scan builds,
    adjacency included. The edits include clashes of every kind the scan
    refuses, which `_build_transform` does not look for: no case's edits
    make one, by its lemma in the coloring module docstring."""
    rng = random.Random(14)
    parents = [_square_and_edge(), case1_1_host(), case1_2_host(),
               two_squares_type_x(), case2_2_2d_host()]
    parents += [build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed))).lg
                for n, seed in [(10, 0), (12, 1), (14, 2)]]
    kinds = ("absent", "loop", "become parallel", "be parallel", "self-loop")
    seen, children = set(), 0
    for _ in range(3000):
        g = rng.choice(parents)
        adj = g.adj
        live = [v for v in range(g.n) if adj[v]]
        merge, used = [], set()
        for _ in range(rng.randrange(3)):
            v = rng.choice(live)
            grp = {v, *rng.sample(adj[v], rng.randrange(1, len(adj[v]) + 1))}
            if grp & used:
                continue
            used |= grp
            merge.append(tuple(rng.sample(sorted(grp), len(grp))))
        edges = sorted(g.edges)
        drop = set(rng.sample(edges, rng.randrange(4)))
        if rng.random() < 0.7:
            drop |= {e for grp in merge for e in g.edges if set(e) <= set(grp)}
        if rng.random() < 0.1:
            drop.add((g.n - 1, g.n))  # absent
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        add = [(u, v, rng.randrange(20)) for u, v in rng.sample(pairs, rng.randrange(3))]
        kw = {"drop": sorted(drop), "merge": merge, "add": add}
        try:
            ref = build_transform_by_scan(g, **kw)
        except ValueError as err:
            seen.update(k for k in kinds if k in str(err))
            continue
        made = D._build_transform(g, **kw)
        assert made == ref and made.adj == _adj_from_scratch(ref)
        children += 1
    assert seen == set(kinds) and children > 500


def test_build_transform_and_edit_match_the_full_scan():
    """In the corpus, every child `_build_transform` builds is the one the
    full scan builds, which refuses no clash there, and every `edit`
    result's adjacency is the one built from its edge set."""
    cp = corpus()
    builds, edits = cp.calls("_build_transform"), cp.calls("edit")
    assert len(builds) > 100 and len(edits) > 1000
    for c in builds:
        made = D._build_transform(*c.args, **c.kw)
        assert made == build_transform_by_scan(*c.args, **c.kw)
        assert made.adj == _adj_from_scratch(made)
    for c in edits:
        assert c.result.adj == _adj_from_scratch(c.result)


def test_case1_1_rejects_wrong_pattern():
    g = case1_2_host()
    with pytest.raises(CaseVerificationError) as err:
        case1_1(g, 0)  # neighbors not adjacent: belongs to 1.2
    assert str(err.value) == "Case1_1: neighbors not adjacent"


def test_case1_1_refuses_a_parent_outside_its_lemma():
    """case1_1_host() with a disjoint two-colored triangle 7-8-9 is not
    good: the pattern at 0 is Case1_1's, but the pair lemma's hypothesis
    fails. The case's signature takes its parent to be almost-good at the
    vertex it is given, so called on this one it hands on a good child
    that the full check finds not good. The engine refuses the parent at
    its one full check, of the root, so no case ever sees it."""
    host = case1_1_host()
    g = EdgeColoredGraph.from_triples(
        10, [(*e, c) for e, c in host.coloring.items()] + [(7, 8, 5), (8, 9, 5), (7, 9, 6)])
    assert check_goodness(g).verdict is GoodnessVerdict.NOT_GOOD
    told = case1_1(g, 0)
    assert told.bad is None
    assert check_goodness(told.child).verdict is GoodnessVerdict.NOT_GOOD
    with pytest.raises(DecomposeError, match="input is not_good"):
        decompose(g)


def test_case1_2_host_trace():
    g = case1_2_host()
    tr = _decomposed_ok(g)
    assert tr.steps[0].case == "Case1_2"


def test_case1_2_child_and_lift():
    """The bad edge 0-1 contracts to vertex 0, and 1 is left isolated; the
    lift subdivides the one child cycle through 0 back into the
    almost-rainbow cycle."""
    g = case1_2_host()
    red = case1_2(g, 0)
    assert red.child.n == g.n
    assert dict(red.child.coloring) == {
        (0, 2): 0, (0, 3): 1, (2, 4): 2, (3, 5): 1, (4, 5): 2,
        (3, 6): 3, (3, 7): 3, (4, 6): 4, (4, 7): 4}
    assert red.bad is None
    lifted = _lifted_partition(g, red)
    almost = [c for c in lifted if not _is_rainbow(g, c)]
    assert len(almost) == 1 and {0, 1, 2} <= set(almost[0].vertices)


def test_contraction_lift_passes_untouched_cycles_through():
    """A contraction's lift rewrites only the child cycles through the
    merged vertex; every other child cycle is a cycle of the parent and is
    handed up as the same object, its cached edges included."""
    g = case1_2_host()
    red = case1_2(g, 0)
    sub = [(s.case, s.cycle) for s in decompose(red.child).steps]
    untouched = [c for _, c in sub if 0 not in c]
    assert untouched and all(c.edges for c in untouched)  # fills the caches
    lifted = [c for _, c in red.lift(sub)]
    assert all(any(c is d for d in lifted) for c in untouched)
    assert len(lifted) == len(sub)


def test_case1_2_rejects_type_2_flank():
    g = case1_1_host()
    with pytest.raises(CaseVerificationError) as err:
        case1_2(g, 0)  # x1 adjacent to x2: belongs to 1.1
    assert str(err.value) == "Case1_2: neighbors adjacent; wrong case"


def test_case2_1_agrees_with_base_case_on_c5():
    g = EdgeColoredGraph.from_triples(5, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                          (3, 4, 3), (0, 4, 4)])
    assert g.singular_chains[0] == (5, (0, 1, 2, 3, 4, 0))
    red = case2_1(g)
    assert red.child.n == 5 and red.child.adj[2] == ()
    sub = [( "BaseCycle", c) for c in
           [next(iter(decompose(red.child).cycles))]]
    lifted = red.lift(sub)
    assert len(lifted) == 1
    assert lifted[0][1] == Cycle((0, 1, 2, 3, 4))
    tr = decompose(g)
    assert tr.cycles == (Cycle((0, 1, 2, 3, 4)),)


def test_case2_1_rejects_short_singular_path():
    """A good graph whose first singular chain is shorter than 3 is not
    Case2_1's: the dispatch's branch is the case's one check."""
    g = case2_2_2d_host()
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.GOOD and g.singular_chains[0][0] < 3
    with pytest.raises(CaseVerificationError) as err:
        case2_1(g)
    assert str(err.value) == "Case2_1: singular path too short"


@pytest.mark.parametrize("bad", [1, 2], ids=["v1", "v2"])
def test_case2_1_rejects_a_one_colored_interior_vertex(bad):
    """A 5-cycle with a vertex of degree 2 whose two edges share a color,
    next to either end of the path 0 1 2 3, is almost-good there, outside
    the contraction lemma, which needs a good parent. Called on it,
    case2_1, whose signature takes a good graph, hands on a child that the
    full check finds not good. The engine never makes that call: its bad
    vertex sends an almost-good graph to BaseCycle or Case 1, and here
    the graph is one BaseCycle."""
    colors = [0, 1, 2, 3, 4]
    colors[bad] = colors[bad - 1]
    g = EdgeColoredGraph.from_triples(5, [(i, (i + 1) % 5, c) for i, c in enumerate(colors)])
    assert check_goodness(g).bad_vertex == bad
    red = case2_1(g)
    assert red.bad is None
    assert check_goodness(red.child).verdict is GoodnessVerdict.NOT_GOOD
    with recording() as log:
        assert [s.case for s in decompose(g).steps] == [D.BASE_CYCLE]
    assert [c.args[1] for c in log if c.name == "_dispatch"] == [bad]


# the cached facts `_dispatch` and `_advance` read, and those a Case2_1
# child is given when it is made: carried from its parent, or, its empty
# Type X map, proved by the contraction lemma
DISPATCH_FACTS = ("components", "rainbow_triangle", "singular_chains", "type1")
CASE2_1_FACTS = ("components", "rainbow_triangle", "singular_chains", "type_x_sides")


def _fresh_facts(g):
    """The dispatch facts and Type X map of a new, uncached graph with g's
    edges and colors."""
    fresh = EdgeColoredGraph(g.n, dict(g.coloring))
    return {name: getattr(fresh, name) for name in (*DISPATCH_FACTS, "type_x_sides")}


@functools.cache
def _by_scan(run: Call) -> tuple[EdgeColoredGraph, GoodnessReport, list]:
    """What `case2_1_run_by_scan` makes of a `case2_1` call's graph: the
    child, its report and the paths it contracts."""
    return case2_1_run_by_scan(run.args[0])


def _merged_groups(paths) -> list[set[int]]:
    """The vertex groups that contracting the middle edges of `paths`, in
    order, merges."""
    group_of: dict[int, set[int]] = {}
    for _, v1, v2, _ in paths:
        grp = group_of.get(v1, {v1}) | group_of.get(v2, {v2})
        for v in grp:
            group_of[v] = grp
    return list({id(grp): grp for grp in group_of.values()}.values())


def test_case2_1_child_and_report_match_the_rebuilt_child():
    """Every Case2_1 run the engine makes, one `edit` of its parent, ends
    at the child that contracting one edge at a time with full rebuilds,
    full checks and fresh scans ends at (`case2_1_run_by_scan`), which also
    fixes where the run stops. The child equals that reference, adjacency
    included, and the `_build_transform` child that merges the run's whole
    set of merged pairs at once; its derived report is the reference's,
    and the four facts it held when made are the reference's fresh ones."""
    runs = corpus().calls("case2_1")
    assert len(runs) > 1500
    assert corpus().calls("fallback_search")  # some runs come after a fallback
    steps = 0
    for run in runs:
        g, red = run.args[0], run.result
        ref, ref_rep, paths = _by_scan(run)
        steps += len(paths)
        groups = _merged_groups(paths)
        inside = [e for e in g.edges if any(set(e) <= grp for grp in groups)]
        child = D._build_transform(g, merge=groups, drop=inside)
        for made in (red.child, child):
            assert (made.n, dict(made.coloring), made.adj) == \
                (ref.n, dict(ref.coloring), _adj_from_scratch(ref))
        assert _report_of(red.bad) == ref_rep
        assert {name: run.cached[name] for name in CASE2_1_FACTS} == {
            name: getattr(ref, name) for name in CASE2_1_FACTS}
    assert steps > 2 * len(runs)  # a run takes more than two steps on average


def _step_lifts(paths):
    """The one-step Case2_1 lift of each path, as `_contraction_lift`."""
    return [D._contraction_lift(D.CASE_2_1, (D._oriented([v2, v1], (v0,)),),
                                min(v1, v2))
            for v0, v1, v2, _ in paths]


def _composed(paths, sub):
    """`sub` lifted through the one-step lift of each path, innermost
    first."""
    for lift in reversed(_step_lifts(paths)):
        sub = lift(sub)
    return sub


def test_run_lift_is_the_composition_of_the_step_lifts():
    """The run's lift is the one-edge lifts of the steps `case2_1`
    recorded, innermost first; this checks those steps against the paths
    `case2_1_run_by_scan` contracts. On every run of the corpus whose lift
    the engine called, it returns what the one-edge lifts of the
    reference's paths return: the same cycles, tags and order (each lifted
    cycle first, then the untouched ones as they came)."""
    lifted = 0
    for run in corpus().calls("case2_1"):
        if run.lift is None:
            continue
        (sub,) = run.lift.args
        _, _, paths = _by_scan(run)
        assert run.result.lift(sub) == _composed(paths, sub)
        lifted += 1
    assert lifted > 1500


def test_case2_1_is_never_called_on_a_case2_1_child():
    """A run goes on while the next dispatch on its child would be Case2_1
    again, so the engine never calls `case2_1` on a graph `case2_1` made."""
    runs = corpus().calls("case2_1")
    children = {id(run.result.child) for run in runs}  # all still alive
    assert len(runs) > 1500
    assert [run.args[0] for run in runs if id(run.args[0]) in children] == []


def test_case2_1_chord_of_a_third_color_closes_a_rainbow_triangle():
    # the singular path 0 1 2 3 with a = 0 and b = 2, and the chord 0-3 of
    # color 3, in a monochromatic triangle with 4; 0 and 3 are Type II
    g = EdgeColoredGraph.from_triples(9, [
        (0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 3), (0, 4, 3), (3, 4, 3),
        (0, 5, 0), (3, 6, 2), (4, 7, 4), (4, 8, 4), (5, 7, 5), (6, 8, 6)])
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.GOOD
    assert g.singular_chains[0] == (3, (0, 1, 2, 3))
    red = case2_1(g)
    child = D._build_transform(g, merge=[(1, 2)], drop=[(1, 2)])
    assert red.child == child
    assert red.bad is None and check_goodness(child) == GOOD_REPORT
    # 1 is the merged vertex, and 2 is left isolated
    assert [child.color(*e) for e in Cycle((0, 1, 3)).edges] == [0, 2, 3]


@pytest.mark.parametrize("chord", [0, 2], ids=["a", "b"])
def test_case2_1_chord_of_a_path_color(chord):
    """A chord 0-3 of color a or b would leave the contracted triangle
    (0, m, 3) two-colored. No good graph has one: condition 5 makes 3 (or 0)
    Type I, and then 0 (or 3) is bad or a Type X cut vertex. So it comes as
    this almost-good 4-cycle, outside the lemma: case2_1, whose signature
    takes a good graph, hands on a child of it that the full check finds
    not good. The engine never makes that call, as the graph's bad vertex
    sends it to BaseCycle."""
    g = EdgeColoredGraph.from_triples(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                          (0, 3, chord)])
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.ALMOST_GOOD
    child = D._build_transform(g, merge=[(1, 2)], drop=[(1, 2)])
    assert check_goodness(child).verdict is GoodnessVerdict.NOT_GOOD
    red = case2_1(g)
    assert red.bad is None
    assert check_goodness(red.child).verdict is GoodnessVerdict.NOT_GOOD
    assert [s.case for s in decompose(g).steps] == [D.BASE_CYCLE]


def test_case2_1_child_facts_equal_fresh_ones():
    """At the end of every Case2_1 run the child gets its components,
    rainbow triangle and singular chains, carried from its parent step by
    step, and its empty Type X map, and no other fact but the neighbor
    tuples `edit` fills, at the moment it is made; each is the one a fresh
    graph with the child's edges and colors computes. The edge set is not
    among them: it is the coloring's keys, built only if read."""
    runs = corpus().calls("case2_1")
    assert len(runs) > 1000
    for run in runs:
        cached = run.cached
        assert set(cached) == {"n", "coloring", "adj", *CASE2_1_FACTS}
        assert run.result.child.edges == frozenset(run.result.child.coloring)
        fresh = _fresh_facts(run.result.child)
        assert {name: cached[name] for name in CASE2_1_FACTS} == {
            name: fresh[name] for name in CASE2_1_FACTS}


def _fresh_cut_facts(g) -> tuple:
    """The components and Type X map of a new, uncached graph with g's
    edges and colors, from its own Type X search."""
    fresh = EdgeColoredGraph(g.n, dict(g.coloring))
    return fresh.components, fresh.type_x_sides


def test_remainder_facts_equal_fresh_ones():
    """Every remainder `edit` makes in the corpus gets no dispatch fact at
    the moment it is made, and is the graph of the next goodness check,
    `removal_leaves_type_x`. A remainder it finds no Type X vertex in
    holds, after it, the components and Type X map that a fresh graph with
    its edges and colors computes: the one-arc removal lemma filled them,
    with no search, or the check's Type X search did. A refused one is
    dropped.
    Both ways have a floor."""
    by_lemma = by_search = 0
    made = None
    for c in corpus().log:
        if c.name == "edit":
            assert not set(DISPATCH_FACTS) & set(c.cached)
            made = c.result
        elif c.name == "removal_leaves_type_x":
            # g is args[1] minus the cycles args[2]
            g = c.args[0]
            assert g is made  # the edit just before its check
            if not c.result:
                assert (c.cached["components"], c.cached["type_x_sides"]) == \
                    _fresh_cut_facts(g)
                if any(i.name == "_cut_search" for i in c.inner()):
                    by_search += 1
                else:
                    by_lemma += 1
    assert by_lemma > 2000 and by_search > 800


def test_contraction_and_end_block_facts_equal_fresh_ones():
    """Every child that a lemma proves good in the corpus, a contraction's
    (Case1_1, Case1_2, Case2_2_2b, Case2_2_2c), a Case2_1 run's and
    Case2_2_2a's rewired child, all made by `_good_reduction`, and every
    Case2_2_1b end block, holds, when it is made, the components and
    empty Type X map that a fresh graph with its edges and colors
    computes, though no search made them: the Type X contraction,
    contraction, rewired-child and end-block lemmas prove the child has no
    Type X vertex. Each case has a floor."""
    floors = {"case1_1": 300, "case1_2": 25, "case2_1": 1500, "_case2_2_2a": 10,
              "_case2_2_2b": 100, "_case2_2_2c": 50, "_case2_2_1b": 300}
    met = dict.fromkeys(floors, 0)
    for name in floors:
        for c in corpus().calls(name):
            if not isinstance(c.result, D.CaseReduction):
                continue
            # only Case2_2_2a's rectangle check, before it rewires, searches
            checks = [i for i in c.inner() if i.name == "_check_removal"]
            assert all(any(k.at < i.at < k.end for k in checks)
                       for i in c.inner() if i.name == "_cut_search"), name
            assert (c.cached["components"], c.cached["type_x_sides"]) == \
                _fresh_cut_facts(c.result.child)
            met[name] += 1
    assert {name: met[name] for name in floors if met[name] < floors[name]} == {}


def test_type_x_search_count_is_pinned():
    """The Type X searches that the corpus's runs of n=20, seeds 0-9, make,
    each one `lowpoint_search` by `_cut_search`, and the removals the
    one-arc removal lemma answers with none. Before the lemma, and the
    filled facts of contraction children and end blocks, these runs made
    497 searches. A change that brings searches back shows here."""
    cp = corpus()
    assert [(r.n, r.seed, r.cap) for r in cp.runs[:10]] == [(20, s, None) for s in range(10)]
    # each run starts with the one full check of its root
    start, end = (cp.calls("check_goodness")[i].at for i in (0, 10))
    searches = answered = 0
    for c in cp.log[start:end]:
        if c.name == "_cut_search":
            searches += 1
        elif c.name == "removal_leaves_type_x" and not c.result:
            answered += not any(i.name == "_cut_search" for i in c.inner())
    assert (searches, answered) == (194, 212)


def test_decompose_runs_one_cut_search_per_graph():
    """The engine runs the Type X search at most once on any graph:
    `components` and Type X come from the same search."""
    cp = corpus()
    searched = cp.calls("_cut_search")  # the calls keep the graphs alive
    assert len(searched) > 100
    assert len({id(c.args[0]) for c in searched}) == len(searched)


@pytest.mark.parametrize("triples, isolated, tri, chains", [
    # the first singular chain 0 1 2 3, whose chord 0-3 closes the rainbow
    # triangle (0, m, 3) in the child: the run stops after one step
    ([(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 3), (0, 4, 3), (3, 4, 3),
      (0, 5, 0), (3, 6, 2), (4, 7, 4), (4, 8, 4), (5, 7, 5), (6, 8, 6)],
     {2}, (0, 1, 3),
     ((3, (0, 5, 7, 4)), (3, (3, 6, 8, 4)), (2, (0, 1, 3)))),
    # two chains from 0 back to 0, (0, 6, 7, 5, 8, 0) and (0, 1, 2, 3, 0),
    # and no triangle: contracting 6-7 leaves (0, 6, 5, 8, 0), and two
    # chains of length 4; the run goes on into (0, 1, 2, 3, 0), now the
    # least, and stops when contracting 1-2 closes the rainbow triangle
    # (0, 1, 3)
    ([(0, 1, 0), (1, 2, 2), (2, 3, 3), (0, 3, 1), (0, 6, 0), (6, 7, 4),
      (5, 7, 5), (5, 8, 6), (0, 8, 1)],
     {7, 2}, (0, 1, 3),
     ((4, (0, 6, 5, 8, 0)), (3, (0, 1, 3, 0)))),
], ids=["chord", "loop"])
def test_case2_1_child_facts_cached_or_not(triples, isolated, tri, chains):
    """case2_1 reads its graph's components, rainbow triangle and singular
    chains, so it works the same on a graph with nothing cached as on one
    whose dispatch facts are cached: the two children are equal, each holds
    exactly those three facts, carried through every step of the run, and
    its empty Type X map, and they are the facts a fresh graph with the
    child's edges computes."""
    bare = EdgeColoredGraph.from_triples(1 + max(max(t[:2]) for t in triples),
                                         triples)
    # checked on a copy: the check caches `components` on the graph it checks
    rep = check_goodness(EdgeColoredGraph(bare.n, bare.coloring))
    assert rep.verdict is GoodnessVerdict.GOOD
    assert bare.rainbow_triangle is None and "components" not in bare.__dict__
    cached = EdgeColoredGraph(bare.n, bare.coloring)
    for name in DISPATCH_FACTS:
        getattr(cached, name)
    lazy = case2_1(bare).child
    derived = case2_1(cached).child
    assert lazy == derived
    assert {v for v in range(bare.n) if bare.adj[v]
            and not lazy.adj[v]} == isolated
    facts = _fresh_facts(lazy)
    assert facts["rainbow_triangle"] == Cycle(tri)
    assert facts["singular_chains"] == chains
    for child in (lazy, derived):
        assert {*DISPATCH_FACTS, "type_x_sides"} & set(child.__dict__) == \
            set(CASE2_1_FACTS)
        assert {name: child.__dict__[name] for name in CASE2_1_FACTS} == {
            name: facts[name] for name in CASE2_1_FACTS}


def test_case2_1_makes_no_rebuild_or_goodness_check():
    cp = corpus()
    runs = cp.calls("case2_1")
    assert runs and cp.calls("check_goodness") and cp.calls("_build_transform")
    assert not [c.name for run in runs for c in run.inner()
                if c.name in (*GOODNESS, "_build_transform")]


def _merge(*group):
    """The vertices a merge of `group` leaves isolated, and the one it keeps."""
    keep = min(group)
    return set(group) - {keep}, {keep}


def _run_merges(run):
    """The vertices a Case2_1 run leaves isolated, and the merged vertices
    it keeps: every pair the run merges, as the one-step reference
    contracts them."""
    _, _, paths = _by_scan(run)
    gone = {max(v1, v2) for _, v1, v2, _ in paths}
    return gone, {min(v1, v2) for _, v1, v2, _ in paths} - gone


# for each case that can reduce, from a call and its arguments: the parent
# vertices its child leaves isolated, and the vertices whose child cycles
# its lift rewrites
REDUCTIONS = {
    "case1_1": lambda c, g, v: _merge(v, *g.adj[v]),
    "case1_2": lambda c, g, v: _merge(v, min(g.adj[v])),
    "case2_1": lambda c, g: _run_merges(c),
    "case2_2_1": lambda c, g, p: (_merge(p.x1, p.x2)[0], _merge(p.x1, p.x2)[1] | {p.v}),
    "_case2_2_2a": lambda c, g, p: ({p.x1, p.x2}, {p.w1, p.v}),
    "_case2_2_2b": lambda c, g, p: _merge(p.v, p.x1, p.y1, p.x2),
    "_case2_2_2c": lambda c, g, p: _merge(p.v, p.x1, p.y1, p.x2),
}


def test_reduction_child_keeps_parent_ids():
    """Every reduction the engine builds in the corpus keeps its parent's
    vertex ids: the child has the parent's n, the vertices the reduction
    merges away, and those whose every edge it drops, have no edges, and
    every child edge that avoids the vertices the lift rewrites is a parent
    edge with the parent's color."""
    made = [c for c in corpus().log
            if c.name in REDUCTIONS and isinstance(c.result, D.CaseReduction)]
    assert {c.name for c in made} == set(REDUCTIONS)
    assert len(made) > 800
    for c in made:
        name, g, child = c.name, c.args[0], c.result.child
        isolated, rewritten = REDUCTIONS[name](c, *c.args)
        assert child.n == g.n, name
        assert all(not child.adj[u] for u in isolated), name
        for e, col in child.coloring.items():
            if not rewritten & set(e):
                assert g.coloring.get(e) == col, (name, e)


@pytest.mark.parametrize("tag", ["Case2_2_1b", "Case2_2_2a", "Fallback"])
def test_single_cycle_step_is_checked_once(tag):
    """The cycle a case checks before it returns it, the Case2_2_2a
    rectangle or the Case2_2_1b detour, and the cycle a fallback search
    finds meet `_check_removal` once on the graph they are removed from:
    inside the case or the search, and not again when the engine removes
    them, which it does by the `_Checked` of that one call."""
    cp = corpus()
    on = {}  # the removal checks on each graph
    for c in cp.calls("_check_removal"):
        on.setdefault(id(c.args[0]), []).append(c)
    mine = [t for t in cp.calls("take") if [tg for tg, _ in t.args[1].batch] == [tag]]
    assert mine
    for take in mine:
        g, applied = take.args
        cycles = [c for _, c in applied.batch]
        (check,) = [c for c in on[id(g)] if [cy for _, cy in c.args[2]] == cycles]
        assert check.at < take.at and check.result is applied


def test_root_certificate_makes_no_goodness_check_or_edit():
    """`_verified_trace` certifies the engine's output on the root by the
    covering sweep alone, with a prescribed cycle and without, on good and
    almost-good roots."""
    clg = build_line_graph(petersen())
    with recording() as log:
        decompose(clg.lg, project_cycle(clg, Cycle((0, 1, 2, 3, 4))))
        decompose(clg.lg)
        decompose(case1_1_host())
    made = [c for c in (*log, *corpus().log) if c.name == "_verified_trace"]
    assert len(made) == 3 + len(corpus().runs)
    assert any(c.name in (*GOODNESS, "edit") for c in log)
    for c in made:
        assert c.result.success
        assert not [i.name for i in c.inner() if i.name in (*GOODNESS, "edit")]


@pytest.mark.parametrize("change", ["drop", "drop all", "repeat"])
@pytest.mark.parametrize("name", ["L(K33)", "Case1_1 host", "L(Petersen) prescribed"])
def test_uncertified_output_is_refused(monkeypatch, change, name):
    """An engine output that misses a cycle, misses every cycle, or repeats
    one, fails the root certificate: the trace is a CaseFailure that carries
    the root graph, its report and any prescribed cycle, and replays
    through the same failure, certifying a list that starts with the
    prescribed cycle, and decomposes once the defect is gone."""
    pet = build_line_graph(petersen())
    g, prescribed = {
        "L(K33)": (build_line_graph(k33()).lg, None),
        "Case1_1 host": (case1_1_host(), None),
        "L(Petersen) prescribed": (pet.lg, project_cycle(pet, Cycle((0, 1, 2, 3, 4)))),
    }[name]
    real = D._verified_trace
    heads = []  # the first cycle of each list certified

    def broken(root, rep, tagged):
        heads.append(tagged[0])
        return real(root, rep, {"drop": tagged[1:], "drop all": [],
                                "repeat": tagged + tagged[:1]}[change])

    monkeypatch.setattr(D, "_verified_trace", broken)
    tr = decompose(g, prescribed)
    assert not tr.success and tr.steps == () and tr.cycles is None
    f = tr.failure
    assert f.graph_text == serialize_colored_edge_list(g)
    assert parse_colored_edge_list(f.graph_text) == g
    assert f.goodness == check_goodness(g)
    if change != "repeat":
        assert (f.case, f.cycle) == ("Engine", None)
        assert f.message == "cycles do not cover every edge"
    else:
        assert f.cycle is not None and f.case in D.CASE_TAGS
        assert f.message.endswith("is not a cycle of the current graph")
    assert f.prescribed == prescribed
    assert replay_case_failure(f.to_json()).failure == f
    if prescribed is not None:
        assert heads == [(D.ALL_TYPE_II, prescribed)] * 2
    monkeypatch.undo()
    assert replay_case_failure(f.to_json()).success


def test_three_meeter_lift_is_checked_once():
    """The Case2_2_1a lift that leaves one x-cycle in the parent tries each
    detour with one removal check of the whole batch, the other lifted
    cycles plus the detour, and returns the `_Checked` of the batch that
    passes: each detour tried costs one `removal_leaves_type_x` and no full
    goodness check, and the engine applies that record with no removal
    check of its own."""
    cp = corpus()
    # the lifts of Case2_2_1a, whose child is good, unlike Case2_2_1b's
    three = [(c.args[1].v, c.lift) for c in cp.calls("case2_2_1")
             if c.lift is not None and c.result.bad is None
             and isinstance(c.lift.result, D._Checked)]
    assert three
    takes = {}  # the engine's applications of each record
    for t in cp.calls("take"):
        takes.setdefault(id(t.args[1]), []).append(t)
    for v, lift in three:
        checked = lift.result
        cycles = [c for _, c in checked.batch]
        tried = [[cy for _, cy in c.args[2]] for c in lift.inner()
                 if c.name == "_check_removal"]
        assert tried and tried[-1] == cycles
        assert all(b[:-1] == cycles[:-1] and v in b[-1] for b in tried)
        assert [c.name for c in lift.inner() if c.name in GOODNESS] == [
            "removal_leaves_type_x"] * len(tried)
        # the engine step that lifted the batch made no check beyond the lift's
        (take,) = takes[id(checked)]
        assert not [c for c in cp.log[lift.end:take.at] if c.name == "_check_removal"]


def test_case2_2_1b_makes_no_goodness_check_of_its_end_block():
    """Case2_2_1b gives its end x-block the bad vertex the end-block lemma
    proves, the joining vertex t, so building the reduction makes no
    goodness check."""
    built = corpus().calls("_case2_2_1b")
    assert built
    for c in built:
        assert not [i for i in c.inner() if i.name in GOODNESS]
        if c.error is None:
            assert c.result.bad is not None


def test_child_work_the_merge_lifts_throw_away():
    """How much finished child work the corpus's Case2_2_1 lifts throw
    away, pinned so that a change to it shows: the Case2_2_1b lifts; the
    child cycles they drop, those that a lift that returns does not hand
    up, `len(sub)` less the length of its batch, which the parent peels
    again; and the three-meeter Case2_2_1a lifts that fail both detours,
    which drop their whole child run. ROADMAP item 2 (step A salvages the
    three-meeter lift, step B keeps the end block's other cycles) is meant
    to lower all three numbers, and re-pins them when it does."""
    merges = [c for c in corpus().calls("case2_2_1") if c.lift is not None]
    end_block = [c.lift for c in merges if c.result.bad is not None]
    dropped = sum(len(lift.args[0]) - len(lift.result.batch)
                  for lift in end_block if lift.error is None)
    failed = [c.lift for c in merges if c.lift.error is not None
              and c.lift.error.problem.startswith("both x-cycle detours failed")]
    assert (len(end_block), dropped, len(failed)) == (381, 1539, 33)


def test_three_meeter_raises_at_n40_are_pinned():
    """The Case2_2_1a lifts whose two x-cycle detours both fail, per seed
    of n=40, seeds 0-9, the size ROADMAP item 2's success test reads: each
    such raise drops the lift's whole child run, which the fallback search
    then replaces. Pinned so that a change shows; item 2 is meant to lower
    these counts, and re-pins them when it does."""
    raised = []
    for seed in range(10):
        lg = build_line_graph(random_cubic_bridgeless(GeneratorConfig(40, seed))).lg
        with recording() as log:
            assert decompose(lg).success
        raised.append(sum(1 for c in log if c.name == "lift" and c.error is not None
                          and "both x-cycle detours failed" in c.error.problem))
    assert raised == [0, 5, 0, 4, 3, 5, 6, 4, 5, 5]


def _lifted_batch(result):
    """A lift's batch, also when the lift returns the `_Checked` of one."""
    return list(result.batch) if isinstance(result, D._Checked) else result


def test_a_lift_returns_the_same_batch_when_called_again():
    """A lift is a function of its child cycles: called a second time on
    the `sub` the engine handed it, every reduction's lift in the corpus
    returns the same batch, or refuses with the same text. A lift that
    kept state from its first call would refuse or change the second."""
    called = set()
    for red in corpus().log:
        if red.lift is None:
            continue
        (sub,) = red.lift.args
        try:
            again = red.result.lift(sub)
        except CaseVerificationError as err:
            assert str(err) == str(red.lift.error)
        else:
            assert red.lift.error is None
            assert _lifted_batch(again) == _lifted_batch(red.lift.result)
        called.add(red.name)
    assert called == set(REDUCTIONS)


def test_lift_inputs_partition_the_child():
    """The premise on which no lift checks its input: on every lift call
    of the corpus, the child cycles `sub` partition the child's edges, and
    each vertex whose child cycles the lift rewrites (m, v, w, Case2_1's
    lo, as `REDUCTIONS` names them) lies on exactly half its child degree
    of them. In Case2_2_1b's end block, v has no edges."""
    seen = collections.Counter()
    for red in corpus().log:
        if red.lift is None:
            continue
        child, (sub,) = red.result.child, red.lift.args
        edges = [e for _, c in sub for e in c.edges]
        assert len(edges) == len(child.edges) and set(edges) == child.edges
        on = collections.Counter(u for _, c in sub for u in c.vertices)
        for u in REDUCTIONS[red.name](red, *red.args)[1]:
            assert 2 * on[u] == child.degree(u)
            seen[red.name] += on[u]
    assert set(seen) == set(REDUCTIONS) and all(seen.values())


def test_a_waiting_frame_keeps_the_lift_not_the_child(monkeypatch):
    """A frame that waits on a reduction keeps only the reduction's lift,
    so a reduction's child is freed once its own frame has taken its first
    batch: a weak reference to each child is dead when the `_advance` in
    which the child's frame takes a batch returns. On the line graph of
    the Petersen graph and the five harvested Case2_2_2a parents, whose
    children are made by contractions, Case2_1 runs and rewires."""
    real_dispatch, real_take, real_advance = D._dispatch, D._Frame.take, D._advance
    children = []  # weak references to the children no frame has taken from
    taken = []
    freed = collections.Counter()

    def dispatch(comp, bad):
        step = real_dispatch(comp, bad)
        if isinstance(step, D.CaseReduction):
            children.append(weakref.ref(step.child))
        return step

    def take(fr, checked):
        taken.extend(r for r in children if r() is fr.graph)
        real_take(fr, checked)

    def advance(stack):
        real_advance(stack)
        for r in taken:
            children.remove(r)
            freed[r() is None] += 1
        taken.clear()

    monkeypatch.setattr(D, "_dispatch", dispatch)
    monkeypatch.setattr(D._Frame, "take", take)
    monkeypatch.setattr(D, "_advance", advance)
    graphs = [build_line_graph(petersen()).lg] + [
        parse_colored_edge_list(text) for text in
        json.loads((FIXTURES / "case2_2_2a_rewired.json").read_text())]
    for g in graphs:
        assert decompose(g).success
    assert freed[False] == 0 and freed[True] >= 40


def test_a_faulty_lift_is_refused_by_the_check_of_its_batch(monkeypatch):
    """With `_oriented` never turning its path, the lifts put merged
    vertices back the wrong way round. The engine's removal check of a
    lifted batch, each lift's one check, refuses some of them, naming a
    cycle that a lift rewrote, and the engine recovers: every n = 20 run of
    the corpus still ends in a cover that `verify_cdc` accepts, or in a
    CaseFailure."""
    runs = [r for r in corpus().runs if r.n == 20]  # recorded before the patch
    refused = set()  # (the checking function, the culprit's tag)
    check = D._check_removal

    def watched(h, bad, batch):
        try:
            return check(h, bad, batch)
        except CaseVerificationError as err:
            refused.add((sys._getframe(1).f_code.co_name, err.case))
            raise

    monkeypatch.setattr(D, "_check_removal", watched)
    monkeypatch.setattr(D, "_oriented", lambda mid, near: lambda a, b: mid)
    for r in runs:
        with fallback_capped(r.cap):
            trace = decompose(r.clg.lg)
        if trace.success:
            cover = cover_from_decomposition(r.clg, trace.cycles)
            assert verify_cdc(r.clg.base, cover).accepted
        else:
            assert isinstance(trace.failure, D.CaseFailure)
    lift_tags = {D.CASE_1_1, D.CASE_1_2, D.CASE_2_1, D.CASE_2_2_1A, D.CASE_2_2_1B,
                 D.CASE_2_2_2A, D.CASE_2_2_2B, D.CASE_2_2_2C}
    assert {case for caller, case in refused if caller == "_advance"} & lift_tags


# the cases whose child gets its report from its Type X search, by a
# reduction lemma in the coloring module docstring
DERIVED_REPORTS = ("case1_1", "case1_2", "case2_2_1", "_case2_2_2a", "_case2_2_2b",
                   "_case2_2_2c")


def _fresh_report(g: EdgeColoredGraph) -> GoodnessReport:
    """The full check of a new, uncached graph with g's edges and colors."""
    return check_goodness(EdgeColoredGraph(g.n, dict(g.coloring)))


def test_derived_child_reports_equal_fresh_full_checks():
    """Every child in the corpus whose report a case derives, by a lemma
    or from its Type X search alone, has the report that the full check of
    a fresh copy gives. Case2_2_1's merged graph is compared whether it is
    good or hands its Type X vertices to Case2_2_1b; each kind of child
    has a floor."""
    cp = corpus()
    made = {name: [(c.result.child, _report_of(c.result.bad)) for c in cp.calls(name)
                   if isinstance(c.result, D.CaseReduction)]
            for name in DERIVED_REPORTS}
    # Case2_2_1 returns Case2_2_1b's reduction when its merged graph is not good
    made["case2_2_1"] = [(child, rep) for child, rep in made["case2_2_1"]
                         if rep.verdict is GoodnessVerdict.GOOD]
    # Case2_2_1b reads its merged graph's Type X vertices, and a full check
    # of that graph must find those as its only violations
    made["_case2_2_1b"] = [
        (child, GoodnessReport(GoodnessVerdict.NOT_GOOD, None, tuple(
            Violation(6, "vertex", v) for v in sorted(child.type_x_sides, key=str))))
        for child in (c.args[2] for c in cp.calls("_case2_2_1b"))]
    floors = {"case1_1": 300, "case1_2": 25, "case2_2_1": 500, "_case2_2_1b": 300,
              "_case2_2_2a": 10, "_case2_2_2b": 100, "_case2_2_2c": 50}
    assert set(made) == set(floors)
    assert {name: len(made[name]) for name in floors
            if len(made[name]) < floors[name]} == {}
    assert all(child.type_x_sides for child, _ in made["_case2_2_1b"])
    for name, pairs in made.items():
        for child, rep in pairs:
            assert rep == _fresh_report(child), name


def _rainbow_walk_cycle(g: EdgeColoredGraph, rng: random.Random) -> Cycle | None:
    """A rainbow cycle of g, or None: walk at random from a random vertex
    by edges of colors the walk has not used, until a vertex repeats; the
    loop closed there repeats no color."""
    path = [rng.choice([v for v in range(g.n) if g.adj[v]])]
    at, used = {path[0]: 0}, set()
    while True:
        steps = [w for w in g.adj[path[-1]] if g.color(path[-1], w) not in used
                 and (len(path) < 2 or w != path[-2])]
        if not steps:
            return None
        w = rng.choice(steps)
        if w in at:
            return Cycle(tuple(path[at[w]:]))
        used.add(g.color(path[-1], w))
        at[w] = len(path)
        path.append(w)


def _case2_2_components(seeds: Iterable[tuple[int, int]]) -> Iterator[EdgeColoredGraph]:
    """The good components that `_dispatch` sends to Case 2.2, met while
    peeling random checked rainbow cycles off the line graph of each (n,
    seed): each is connected, not one cycle, with no rainbow triangle, a
    Type I vertex, and no singular chain of length 3 or more."""
    for n, seed in seeds:
        rng = random.Random(seed)
        h = build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed))).lg
        bad = check_goodness(h).bad_vertex
        while h.edges:
            for _ in range(20):
                cyc = _rainbow_walk_cycle(h, rng)
                try:
                    checked = D._check_removal(h, bad, [("Probe", cyc)]) if cyc else None
                except CaseVerificationError:
                    checked = None
                if checked is not None:
                    break
            else:
                break
            h, bad = checked.rest, checked.bad
            for comp in split_components(h) if h.edges else ():
                # a component the cycle missed was met after an earlier peel
                chains = comp.singular_chains
                if (not comp.components[0].isdisjoint(cyc.vertices)
                        and len(comp.edges) > len(comp.components[0]) and comp.type1
                        and comp.rainbow_triangle is None
                        and not (chains and chains[0][0] >= 3)):
                    yield comp


def _pattern_at(g: EdgeColoredGraph, v: int) -> tuple[str, D.CasePattern]:
    """The shape and pattern `extract_case2_2_pattern` reads at the Type I
    vertex v, not only at the least one: read on a copy of g whose Type I
    set is filled as {v}."""
    view = g.edit(drop=())
    view.__dict__["type1"] = frozenset({v})
    return extract_case2_2_pattern(view)


def test_reduction_lemmas_hold_at_every_type1_vertex():
    """The end-block path, rectangle, pivot, rewired-child, split and Type
    X contraction lemmas of the coloring module docstring, which let the
    Case 2.2 reductions refuse nothing, on good graphs that dispatch to
    Case 2.2, read at every Type I vertex, not only at the least one the
    engine picks. The merged child of a disjoint pattern has m not Type
    X, and every Type X vertex separates v from m, which the child joins;
    a refused shape-a rectangle has w of degree 2, w, y1, y2, z1 and z2 of
    Type I and disjoint sides, and its rewire meets
    `_assert_rewire_lemmas`; and the contraction children of shapes b and
    c have no Type X vertex. No line graph here has a shape b."""
    seen = collections.Counter()
    for g in _case2_2_components((n, seed) for n in range(10, 25, 2)
                                 for seed in range(70)):
        for v in sorted(g.type1):
            shape, p = _pattern_at(g, v)
            seen[shape] += 1
            if shape == "disjoint":
                merged = D._build_transform(
                    g, drop=[(p.y1, p.x1), (p.x1, p.v), (p.v, p.x2), (p.x2, p.y2)],
                    add=[(p.y1, p.v, p.alpha), (p.v, p.y2, p.beta)],
                    merge=[(p.x1, p.x2)])
                m = min(p.x1, p.x2)
                txv = merged.type_x_sides
                assert m not in txv
                if txv:
                    # the child joins v to m (-1 is no vertex), and no
                    # path avoiding a Type X vertex does
                    for u in (-1, *txv):
                        assert any({v, m} <= comp for comp in _components_avoiding(
                            merged.n, merged.edges, u)) == (u == -1)
                    seen["type x child"] += 1
            elif shape == "a":
                try:
                    D._check_removal(g, None, [("Probe", Cycle((p.x1, v, p.x2, p.w1)))])
                except CaseVerificationError:
                    seen["refused"] += 1
                    assert len(g.adj[p.w1]) == 2
                    assert {p.w1, p.y1, p.y2, p.z1, p.z2} <= g.type1
                    assert not {p.y1, p.z1} & {p.y2, p.z2}
                    _assert_rewire_lemmas(g, p)
            elif shape in ("b", "c"):
                case = D._case2_2_2b if shape == "b" else D._case2_2_2c
                assert not case(g, p).child.type_x_sides
    floors = {"disjoint": 1000, "type x child": 50, "a": 150, "refused": 2, "c": 100}
    assert {k: seen[k] for k in floors if seen[k] < floors[k]} == {}


def _assert_rewire_lemmas(g: EdgeColoredGraph, p: D.CasePattern) -> D.CaseReduction:
    """The pivot, rewired-child and split lemmas of the coloring module
    docstring on a good, connected g whose shape-a rectangle x1 v x2 w is
    refused; returns Case2_2_2a's reduction. Every Type X vertex of g less
    the rectangle separates {x1, y1, z1} from {x2, y2, z2}. The rewired
    child holds the components and empty Type X map that a fresh search
    finds, one component, g's less x1 and x2. For a child of at most 40
    edges, no rainbow cycle through both v and w leaves a graph with a
    rainbow decomposition, and the child's brute-force decomposition puts
    v and w on different cycles and lifts to a decomposition of g that
    the removal check accepts."""
    w = p.w1
    rest = g.edit(drop=Cycle((p.x1, p.v, p.x2, w)).edges)
    txv = EdgeColoredGraph(rest.n, dict(rest.coloring)).type_x_sides
    assert txv
    for u in txv:
        sides = _components_avoiding(rest.n, rest.coloring, u)
        (s1,) = [s for s in sides if p.x1 in s]
        (s2,) = [s for s in sides if p.x2 in s]
        assert s1 != s2 and {p.y1, p.z1} <= s1 and {p.y2, p.z2} <= s2
    red = D._case2_2_2a(g, p)
    child = red.child
    assert red.bad is None
    assert (child.components, child.type_x_sides) == _fresh_cut_facts(child)
    assert child.components == (g.components[0] - {p.x1, p.x2},)
    if len(child.coloring) <= 40:
        for vs in enumerate_rainbow_cycles(child):
            if p.v in vs and w in vs:
                assert brute_force_rainbow_decomposition(
                    child.edit(drop=Cycle(vs).edges), math.inf).status == "absent"
        found = brute_force_rainbow_decomposition(child, math.inf)
        assert found.found
        assert not any(p.v in c and w in c for c in found.cycles)
        lifted = red.lift([("Probe", c) for c in found.cycles])
        assert not D._check_removal(g, None, lifted).rest.coloring
    return red


def test_case2_2_2a_rewires_meet_their_lemmas():
    """Every Case2_2_2a call of the corpus that refuses its rectangle and
    rewires meets the pivot, rewired-child and split lemmas
    (`_assert_rewire_lemmas`). It searches for Type X vertices only in its
    rectangle's removal check, and nothing searches its child, whose
    facts it fills. Its lift is handed no child cycle through both v and
    w, and returns a batch that the removal check accepts."""
    cp = corpus()
    searched = {id(c.args[0]) for c in cp.calls("_cut_search")}
    rewired = 0
    for c in cp.calls("_case2_2_2a"):
        if not isinstance(c.result, D.CaseReduction):
            continue
        g, p = c.args
        check = next(i for i in c.inner() if i.name == "_check_removal")
        assert check.error is not None
        assert all(check.at < i.at < check.end
                   for i in c.inner() if i.name == "_cut_search")
        assert id(c.result.child) not in searched
        (sub,) = c.lift.args
        assert not any(p.v in cyc and p.w1 in cyc for _, cyc in sub)
        assert c.lift.error is None
        _assert_rewire_lemmas(g, p)
        rewired += 1
    assert rewired >= 10


def test_case2_2_2a_rewire_lemmas_on_harvested_parents():
    """The same lemmas on five graphs that Case2_2_2a rewired while the
    engine decomposed the line graphs of random cubic bridgeless graphs
    (n=56 seed 14, n=80 seed 13, n=26 seed 54, n=64 seed 1 and n=26 seed
    38), whose children, of 16 to 39 edges, are larger than any the
    corpus rewires, which have 8. In the first two, one rainbow cycle of
    the child passes through both v and w, so connectivity alone does not
    keep them apart: only the colors keep that cycle out of every
    rainbow decomposition."""
    texts = json.loads((FIXTURES / "case2_2_2a_rewired.json").read_text())
    joined = []
    for text in texts:
        g = parse_colored_edge_list(text)
        assert check_goodness(g).verdict is GoodnessVerdict.GOOD
        assert len(g.components) == 1
        shape, p = extract_case2_2_pattern(g)
        assert shape == "a"
        child = _assert_rewire_lemmas(g, p).child
        joined.append(sum(p.v in vs and p.w1 in vs for vs in enumerate_rainbow_cycles(child)))
    assert joined == [1, 1, 0, 0, 0]


def test_reductions_make_no_goodness_check_of_their_child():
    """No case that derives its child's report checks the child's goodness:
    the only goodness checks made inside one are the checks of what a
    removal leaves, `removal_leaves_type_x`, when Case2_2_2a tries its
    rectangle; none is a full check."""
    cp = corpus()
    for name in DERIVED_REPORTS:
        calls = cp.calls(name)
        assert calls, name
        for c in calls:
            built = [i.result for i in c.inner() if i.name == "_build_transform"]
            for i in c.inner():
                assert i.name != "check_goodness", name
                if i.name == "removal_leaves_type_x":
                    assert not any(i.args[0] is child for child in built), name


@pytest.mark.parametrize("name", ["case1_1", "case1_2", "_case2_2_2b", "_case2_2_2c"])
def test_reductions_check_their_lemmas_hypothesis(name):
    """A contraction's hypothesis is in its signature: Case1_1 and Case1_2
    take the bad vertex of an almost-good graph, Case2_2_2b and Case2_2_2c
    a good graph. Every call of one in the corpus is made by `_dispatch`,
    on a graph whose full check, of a fresh copy, is that hypothesis."""
    calls = corpus().calls(name)
    assert calls
    for c in calls:
        assert c.caller == "_dispatch"
        g, arg = c.args
        assert _fresh_report(g) == (almost_good_at(arg) if name in ("case1_1", "case1_2")
                                    else GOOD_REPORT)


@pytest.mark.parametrize("far", [1, 2], ids=["two-colored", "rainbow"])
def test_case1_2_contraction_closing_a_triangle(far):
    """Case1_2 on the 4-cycle 0 1 2 3 at the vertex 0: contracting 0-1
    closes the triangle (0, 2, 3). When 2-3 has the color of 1-2, the
    triangle is two-colored, the one configuration in which the lemma's
    child breaks a condition. No almost-good graph has it, as 2 sees one
    color too: the engine refuses this one at its root check, and
    case1_2, whose signature takes it to be almost-good at 0, hands on a
    child that the full check finds not good. Otherwise the child is
    good, as the case hands it on."""
    g = EdgeColoredGraph.from_triples(4, [(0, 1, 0), (1, 2, 1), (2, 3, far), (0, 3, 0)])
    child = D._build_transform(g, merge=[(0, 1)], drop=[(0, 1)])
    rep = check_goodness(g)
    red = case1_2(g, 0)
    assert red.child == child and red.bad is None
    if far == 1:
        assert rep.verdict is GoodnessVerdict.NOT_GOOD
        assert [(v.condition, v.witness) for v in check_goodness(child).violations] == [
            (3, (0, 2, 3)), (4, 2)]
        with pytest.raises(DecomposeError, match="input is not_good"):
            decompose(g)
    else:
        assert rep.bad_vertex == 0
        assert check_goodness(child) == GOOD_REPORT


@pytest.mark.parametrize("join", [[(4, 5, 4)], [(4, 9, 4), (5, 9, 7)]],
                         ids=["chord", "path"])
def test_case2_2_2c_contraction_closing_a_triangle_or_a_cut(join):
    """Shape c (v = 0, x1 = 1, x2 = 2, y1 = w2 = 3, y2 = 4, z2 = 5), with y2
    and z2 joined by a chord or by a path. The chord makes the child's
    triangle (m, y2, z2) two-colored, the one configuration in which the
    lemma's child breaks a condition. No good graph has it, since x1 is
    then a Type X cut vertex, as it is here, so the engine refuses this
    graph at its root check. Along the path, the child meets conditions
    1-5. The case's signature takes its graph to be good, so it builds its
    child either way and hands it on as good, as the Type X contraction
    lemma proves of the child of a good parent; the full check of this
    child finds the merged vertex Type X, as x1 is in g. So the parent's
    goodness, which the engine proves of every graph it dispatches, is
    the case's one guard."""
    g = EdgeColoredGraph.from_triples(10, [
        (0, 1, 0), (0, 2, 1), (1, 3, 0), (1, 6, 2), (1, 7, 2), (2, 4, 1),
        (2, 3, 3), (2, 5, 3), (6, 8, 5), (7, 8, 6), *join])
    rep = check_goodness(g)
    assert [(v.condition, v.witness) for v in rep.violations] == [(6, 1)]
    shape, p = extract_case2_2_pattern(g)
    assert shape == "c" and (p.v, p.x1, p.x2, p.y1, p.y2, p.z2) == (0, 1, 2, 3, 4, 5)
    child = D._build_transform(g, merge=[(0, 1, 3, 2)],
                               drop=[(0, 1), (1, 3), (2, 3), (0, 2), (2, 5)],
                               add=[(2, 5, 1)])
    full = check_goodness(child)
    assert {v.condition for v in full.violations} == ({3, 6} if len(join) == 1 else {6})
    with pytest.raises(DecomposeError, match="input is not_good"):
        decompose(g)
    assert (6, 0) in [(v.condition, v.witness) for v in full.violations]
    with recording() as log:
        red = D._case2_2_2c(g, p)
    assert red.child == child and red.bad is None
    assert [c.name for c in log if c.name == "_build_transform"] == ["_build_transform"]


def test_case2_2_pattern_extraction_and_shape_d():
    g = case2_2_2d_host()
    shape, pat = extract_case2_2_pattern(g)
    assert pat.v == 0 and (pat.x1, pat.x2) == (1, 2)
    assert shape == "d"
    assert pat.w2 == pat.y1 and pat.w1 == pat.y2


def test_case2_2_pattern_refuses_a_graph_with_no_type1_vertex():
    """The Case2_2 family starts at a Type I vertex, which the dispatch's
    branch gives: a good graph with none is all Type II, and AllTypeII
    peels it first. Called on one, the pattern's one check refuses."""
    g = build_line_graph(k4()).lg
    assert check_goodness(g).verdict is GoodnessVerdict.GOOD and not g.type1
    with pytest.raises(CaseVerificationError) as err:
        extract_case2_2_pattern(g)
    assert str(err.value) == "Case2_2: no Type I vertex"


# the functions `_dispatch` sends a Case2_2 graph to, but Case2_2_2d, whose
# dispatch is known by the cycle it returns
CASE2_2_FAMILY = frozenset({"case2_2_1", "_case2_2_2a", "_case2_2_2b", "_case2_2_2c"})


def test_case2_2_patterns_meet_their_shapes():
    """Every pattern that the corpus's Case2_2 graphs give meets its
    shape's equalities, and {y1, w1, z1} and {y2, w2, z2} meet in nothing
    else, but in shape a, which is read first. Each flank's second-color
    neighbors are its pair, the w that the shape does not name is the
    least of its pair, and the flanks are in sorted order but in a shape c
    seen from x2. Every shape occurs, and c in both orders."""
    seen = set()
    for c in corpus().calls("_dispatch"):
        if not ({i.name for i in c.inner() if i.caller == "_dispatch"} & CASE2_2_FAMILY
                or (isinstance(c.result, list) and c.result[0][0] == D.CASE_2_2_2D)):
            continue
        g = c.args[0]
        shape, p = extract_case2_2_pattern(g)
        seen.add((shape, p.x1 < p.x2))
        for x, a, y, w, z, c in ((p.x1, p.alpha, p.y1, p.w1, p.z1, p.gamma),
                                 (p.x2, p.beta, p.y2, p.w2, p.z2, p.delta)):
            assert set(g.adj[x]) == {p.v, y, w, z}
            assert g.color(x, p.v) == g.color(x, y) == a
            assert g.color(x, w) == g.color(x, z) == c
        assert {"a": p.w1 == p.w2, "b": p.y1 == p.y2, "c": p.y1 == p.w2,
                "d": p.y1 == p.w2 and p.y2 == p.w1, "disjoint": True}[shape]
        shared = {p.y1, p.w1, p.z1} & {p.y2, p.w2, p.z2}
        if shape == "a":  # read first, so other overlaps may come with it
            assert p.w1 == min({p.w1, p.z1} & {p.w2, p.z2})
        else:
            assert shared == {"b": {p.y1}, "c": {p.y1}, "d": {p.y1, p.y2},
                              "disjoint": set()}[shape], shape
        # the w a shape does not name is the least of its pair
        assert p.w1 < p.z1 or shape in ("a", "d")
        assert p.w2 < p.z2 or shape in ("a", "c", "d")
        assert p.x1 < p.x2 or shape == "c"
    assert seen == {("a", True), ("b", True), ("c", True), ("c", False), ("d", True),
                    ("disjoint", True)}


def test_case2_2_2d_host_trace():
    g = case2_2_2d_host()
    tr = _decomposed_ok(g)
    assert tr.steps[0].case == "Case2_2_2d"
    assert tr.steps[0].cycle == Cycle((1, 3, 2, 4))


@pytest.mark.parametrize("tag", ["AllTypeII", "Case2_1", "Case2_2_1a", "Case2_2_1b",
                                 "Case2_2_2a", "Case2_2_2b", "Case2_2_2c", "Fallback"])
def test_case_reachable_and_verified(tag):
    """Each case's cycles reach the output of some corpus run, whose
    decomposition and cover verify."""
    assert any(
        tag in [s.case for s in r.trace.steps]
        and verify_rainbow_decomposition(r.clg.lg, r.trace.cycles).accepted
        and verify_cdc(r.clg.base, cover_from_decomposition(r.clg, r.trace.cycles)).accepted
        for r in corpus().runs)


# ---------------------------------------------------------------------------
# all-Type-II cycles and fallback


def _assert_safe_rainbow(lg: EdgeColoredGraph, c: Cycle) -> None:
    cols = [lg.coloring[e] for e in c.edges]
    assert len(set(cols)) == len(cols)
    assert check_goodness(lg.edit(drop=c.edges)).verdict is GoodnessVerdict.GOOD


def test_find_cycle_all_type2_l_k33():
    """On L(K3,3) the greedy walk gets back to its start: the cycle is the
    whole path."""
    lg = build_line_graph(k33()).lg
    c = D._all_type2_cycle(lg)
    assert c == Cycle((0, 1, 4, 3))
    _assert_safe_rainbow(lg, c)


def test_find_cycle_all_type2_closes_through_the_used_color():
    """On the line graph of the n=8 seed 2 cubic graph the greedy walk gets
    stuck, and the cycle is the path after the edge that used the color it
    is stuck on."""
    g = parse_graph6("GRca]G")
    assert g == random_cubic_bridgeless(GeneratorConfig(8, 2))
    lg = build_line_graph(g).lg
    c = D._all_type2_cycle(lg)
    assert c == Cycle((3, 4, 9, 8))
    assert min(lg.components[0]) not in c  # the walk's start is cut off
    _assert_safe_rainbow(lg, c)


def _two_copies(g: EdgeColoredGraph) -> EdgeColoredGraph:
    """Two disjoint copies of g, the second on ids shifted by g.n."""
    triples = [(u, v, c) for (u, v), c in g.coloring.items()]
    return EdgeColoredGraph.from_triples(
        2 * g.n, triples + [(u + g.n, v + g.n, c) for u, v, c in triples])


def test_all_type2_needs_one_component():
    """`_all_type2` reads the vertex set from `components`, so a graph that
    is two copies of an all-Type-II graph is not one."""
    lg = build_line_graph(k4()).lg
    assert D._all_type2(lg)
    assert not D._all_type2(_two_copies(lg))
    assert not D._all_type2(EdgeColoredGraph.from_triples(3, []))


def test_connectivity_after_rainbow_removal():
    rng = random.Random(11)
    checked = 0
    for seed in range(25):
        g = random_cubic_bridgeless(GeneratorConfig(10, seed))
        lg = build_line_graph(g).lg
        cycles = enumerate_rainbow_cycles(lg)
        for _ in range(4):
            vs = cycles[rng.randrange(len(cycles))]
            h = lg.edit(drop=Cycle(vs).edges)
            assert connected_ignoring_isolated(h.n, h.edges)
            checked += 1
    assert checked == 100


def test_fallback_finds_triangle_in_l_k4():
    lg = build_line_graph(k4()).lg
    res = fallback_search(lg, None)
    assert res.status == "found"
    assert len(res.cycle) == 3


def test_fallback_single_rainbow_c4():
    c4 = rainbow_c4()
    res = fallback_search(c4, None)
    assert res.status == "found"
    assert res.cycle == Cycle((0, 1, 2, 3))


def test_fallback_empty_graph_absent():
    empty = EdgeColoredGraph.from_triples(3, [])
    assert fallback_search(empty, None).status == "absent"


def test_check_removal_refuses_an_empty_batch_on_a_graph_with_edges():
    """An empty batch is the engine's fault, tagged "Engine", when edges are
    left; on a graph with no edges it is accepted and leaves the empty
    graph."""
    g = rainbow_c4()
    with pytest.raises(CaseVerificationError) as err:
        D._check_removal(g, None, [])
    assert (err.value.case, str(err.value)) == ("Engine", "Engine: case produced no cycles")
    empty = EdgeColoredGraph(4, {})
    assert D._check_removal(empty, None, []).rest == empty


def test_fallback_cap_threshold():
    """Below 64 edges the fallback tries every length up to the longest
    component; from 64 edges on, cycles of up to 24 vertices. A cubic graph
    on n vertices has a line graph with 3n edges: 60 at n=20, 66 at n=22."""
    lines = {(r.n, r.seed, r.cap): r.clg.lg for r in corpus().runs}
    below, above = lines[20, 0, None], lines[22, 0, None]
    assert (len(below.edges), len(above.edges)) == (60, 66)
    assert D._fallback_cap(below) == max(len(c) for c in below.components) == 30
    assert D._fallback_cap(above) == 24


def test_fallback_indeterminate_when_capped():
    lg = build_line_graph(k33()).lg  # girth of rainbow cycles here is 4
    with fallback_capped(3):
        res = fallback_search(lg, None)
    assert res.status == "indeterminate"


def test_engine_recovers_via_fallback(monkeypatch):
    def boom(g):
        raise CaseVerificationError("AllTypeII", "simulated defect")
    monkeypatch.setattr(D, "_all_type2_cycle", boom)
    clg = build_line_graph(k33())
    tr = decompose(clg.lg)
    assert tr.success
    assert "Fallback" in [s.case for s in tr.steps]
    assert verify_rainbow_decomposition(clg.lg, tr.cycles).accepted
    assert verify_cdc(k33(), cover_from_decomposition(clg, tr.cycles)).accepted


def test_case_failure_is_replayable(monkeypatch):
    def boom(g):
        raise CaseVerificationError("AllTypeII", "simulated defect")
    monkeypatch.setattr(D, "_all_type2_cycle", boom)
    monkeypatch.setattr(D, "fallback_search",
                        lambda g, bad: FallbackResult("absent"))
    lg = build_line_graph(k33()).lg
    tr = decompose(lg)
    assert not tr.success
    assert tr.failure.case == "AllTypeII"
    data = tr.to_json()
    assert data["outcome"]["status"] == "case_failure"
    # the embedded graph replays through the same failure
    again = replay_case_failure(data["outcome"])
    assert not again.success and again.failure.case == "AllTypeII"
    # and decomposes fine once the simulated defect is gone
    monkeypatch.undo()
    healed = replay_case_failure(data["outcome"])
    assert healed.success


def test_failure_unwinds_to_an_ancestor_fallback(monkeypatch):
    """When a frame and its fallback fail, the failure unwinds to the nearest
    frame waiting on a reduction, which falls back on its own graph. The
    good graph with no rainbow decomposition fails on every frame: a
    Case2_2_1a lift fails, the fallback finds nothing on the 20-edge child
    nor on the 22-edge root, and the run ends in the lift's failure. When
    the Case1_1 host's child fails, by a stub, and so does its fallback, the
    root's fallback removes a cycle and the run goes on to a verified
    decomposition."""
    g = parse_colored_edge_list((FIXTURES / "good_but_undecomposable.txt").read_text())
    with recording() as log:
        tr = decompose(g)
    assert [(len(c.args[0].edges), c.result.status) for c in log
            if c.name == "fallback_search"] == [(20, "absent"), (22, "absent")]
    assert not tr.success and tr.failure.case == "Case2_2_1a"

    g = case1_1_host()
    real_dispatch, real_fallback = D._dispatch, D.fallback_search
    dispatched, searched = [], []

    def dispatch(comp, bad):
        dispatched.append(comp)
        if len(dispatched) == 2:  # the root's Case1_1 child
            raise CaseVerificationError("Case2_1", "simulated defect")
        return real_dispatch(comp, bad)

    def fallback(h, bad):
        searched.append(h)
        return (FallbackResult("absent") if len(searched) == 1
                else real_fallback(h, bad))

    monkeypatch.setattr(D, "_dispatch", dispatch)
    monkeypatch.setattr(D, "fallback_search", fallback)
    tr = decompose(g)
    assert searched[:2] == [dispatched[1], g]
    assert tr.success and tr.steps[0].case == "Fallback"
    assert verify_rainbow_decomposition(g, tr.cycles).accepted


def test_case_failure_carries_the_full_check_of_its_graph(monkeypatch):
    """A CaseFailure's report is made from the bad vertex of the frame it
    failed at, `GOOD_REPORT` or `almost_good_at` it, and is the report the
    full check gives the graph it serializes: on the corpus's fallback-capped
    runs, decomposed again with the fallback capped at 3 vertices, two of
    which then fail, on the replay of the fuzz_0106.json fixture and on a
    failure at an almost-good frame, the Case1_1 host's root, once every
    dispatch and fallback search is refused."""
    capped = [r.clg.lg for r in corpus().runs if r.cap is not None]
    with fallback_capped(3):
        traces = [decompose(lg) for lg in capped]
    failures = [tr.failure for tr in traces if not tr.success]
    assert len(failures) == 2
    fixture = json.loads((FIXTURES / "casefailures" / "fuzz_0106.json").read_text())
    failures.append(replay_case_failure(fixture["outcome"]).failure)

    def refuse(comp, bad):
        raise CaseVerificationError(D.CASE_1_1, "simulated defect")

    monkeypatch.setattr(D, "_dispatch", refuse)
    monkeypatch.setattr(D, "fallback_search", lambda g, bad: FallbackResult("absent"))
    failures.append(decompose(case1_1_host()).failure)
    assert failures[-1].goodness == almost_good_at(0)
    for f in failures:
        assert f.goodness == check_goodness(parse_colored_edge_list(f.graph_text))


def test_failure_unwinds_past_sibling_components():
    """A failure that no frame of its component recovers unwinds past the
    frames of the components still waiting beside it: the disjoint union
    of the good graph with no rainbow decomposition and a rainbow 4-cycle
    on higher ids fails as the graph does alone, on the 22-edge component,
    with no prescribed cycle, and that failure replays."""
    g = parse_colored_edge_list((FIXTURES / "good_but_undecomposable.txt").read_text())
    alone = decompose(g).failure
    shift, hue = g.n, max(g.coloring.values()) + 1
    union = EdgeColoredGraph.from_triples(g.n + 4, [
        *((u, v, c) for (u, v), c in g.coloring.items()),
        *((u + shift, v + shift, c + hue) for (u, v), c in rainbow_c4().coloring.items())])
    assert len(union.components) == 2
    f = decompose(union).failure
    assert (f.case, f.message, f.prescribed) == (D.CASE_2_2_1A, alone.message, None)
    assert len(parse_colored_edge_list(f.graph_text).edges) == 22
    again = replay_case_failure(f.to_json()).failure
    assert (again.case, again.message) == (f.case, f.message)


def test_engine_needs_no_deep_recursion(monkeypatch):
    """The reduction tree of n=40 seed 1 is about 45 levels deep; the engine
    peels it within 60 frames of its caller and never raises the limit."""
    lg = build_line_graph(random_cubic_bridgeless(GeneratorConfig(40, 1))).lg
    set_limit, old = sys.setrecursionlimit, sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError(f"recursion limit raised to {limit}")

    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    set_limit(depth + 60)
    try:
        tr = decompose(lg)
    finally:
        set_limit(old)
    assert tr.success


def test_decomposer_does_not_import_sys():
    tree = ast.parse(Path(D.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "sys" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level or (node.module or "").split(".")[0] != "sys"


def test_case_failure_graph_parses():
    g = case1_1_host()
    from cdcover.coloring import serialize_colored_edge_list
    text = serialize_colored_edge_list(g)
    back = parse_colored_edge_list(text)
    assert back == g


# ---------------------------------------------------------------------------
# prescribed first cycle


def test_goddyn_k4_triangle():
    clg = build_line_graph(k4())
    first = Cycle((0, 1, 2))
    tr = decompose(clg.lg, project_cycle(clg, first))
    assert tr.success
    cover = cover_from_decomposition(clg, tr.cycles)
    assert first in cover.cycles
    assert verify_cdc(k4(), cover).accepted


def test_goddyn_k4_hamiltonian():
    clg = build_line_graph(k4())
    first = Cycle((0, 1, 2, 3))
    tr = decompose(clg.lg, project_cycle(clg, first))
    assert tr.success
    assert first in cover_from_decomposition(clg, tr.cycles).cycles


def test_goddyn_petersen_five_cycle():
    clg = build_line_graph(petersen())
    first = Cycle((0, 1, 2, 3, 4))
    tr = decompose(clg.lg, project_cycle(clg, first))
    assert tr.success
    cover = cover_from_decomposition(clg, tr.cycles)
    assert first in cover.cycles
    assert verify_cdc(petersen(), cover).accepted


def test_goddyn_rejects_non_cycle():
    """A prescribed cycle on the line graph's vertices that is not one of
    its cycles, or that is no `Cycle` at all, is refused before the root
    check."""
    lg = build_line_graph(petersen()).lg
    bad = Cycle((0, 5, 10))
    assert not bad.is_cycle_of(lg)
    for prescribed in (bad, (0, 1, 2)):
        with recording() as log:
            with pytest.raises(DecomposeError,
                               match="prescribed cycle is not a cycle of the graph"):
                decompose(lg, prescribed)
        assert not [c for c in log if c.name == "check_goodness"]


def test_goddyn_rejects_a_good_graph_that_is_not_all_type2():
    """A prescribed cycle is taken only on an all-Type-II graph: on the
    good rainbow 4-cycle, whose vertices have degree 2, its own cycle is
    refused before the root check."""
    g = rainbow_c4()
    assert check_goodness(g).verdict is GoodnessVerdict.GOOD
    with recording() as log:
        with pytest.raises(DecomposeError) as err:
            decompose(g, Cycle((0, 1, 2, 3)))
    assert str(err.value) == "line graph is not an all-Type-II graph"
    assert not [c for c in log if c.name == "check_goodness"]


def test_goddyn_rejects_a_4_regular_graph_with_a_vertex_of_three_colors():
    """Every vertex of K5 has degree 4, but vertex 0 sees three colors, so
    K5 is not all-Type-II: a prescribed cycle is refused before the root
    check."""
    g = EdgeColoredGraph(5, {(u, v): {(0, 1): 1, (0, 2): 2}.get((u, v), 0)
                             for v in range(5) for u in range(v)})
    with recording() as log:
        with pytest.raises(DecomposeError) as err:
            decompose(g, Cycle((0, 1, 2)))
    assert str(err.value) == "line graph is not an all-Type-II graph"
    assert not [c for c in log if c.name == "check_goodness"]


def test_goddyn_rejects_a_root_that_is_not_good():
    """The line graph of a bridged cubic graph is all-Type-II, but the
    bridge's vertex is Type X: the root check refuses it, with a
    prescribed cycle as without, before any removal."""
    clg = build_line_graph(bridged_cubic_10())
    assert check_goodness(clg.lg).verdict is GoodnessVerdict.NOT_GOOD
    with recording() as log:
        with pytest.raises(DecomposeError, match="input is not_good"):
            decompose(clg.lg, project_cycle(clg, Cycle((0, 2, 3))))
    assert not [c for c in log if c.name == "_check_removal"]


def test_goddyn_refused_first_cycle_is_a_case_failure(monkeypatch):
    """A refused removal of the prescribed cycle's projection ends the run
    in a CaseFailure of the whole line graph that names the projection,
    with no steps, and carries it as the prescribed cycle, in its JSON too.
    So it replays as that run: the replay fails through the same refusal,
    and once the refusal is gone it succeeds. The engine accepts the
    projection of every cycle it has been given, so `_check_removal` is
    made to refuse the prescribed batch."""
    clg = build_line_graph(petersen())
    first = Cycle((0, 1, 2, 3, 4))
    proj = project_cycle(clg, first)
    real = D._check_removal
    refused = []

    def refuse_prescribed(h, bad, batch):
        if [c for _, c in batch] == [proj]:
            refused.append((h, list(batch)))
            raise CaseVerificationError(batch[0][0], "refused", batch[0][1])
        return real(h, bad, batch)

    monkeypatch.setattr(D, "_check_removal", refuse_prescribed)
    tr = decompose(clg.lg, proj)
    assert refused == [(clg.lg, [(D.ALL_TYPE_II, proj)])]
    assert not tr.success and tr.steps == () and tr.cycles is None
    f = tr.failure
    assert f.case == D.ALL_TYPE_II
    assert f.graph_text == serialize_colored_edge_list(clg.lg)
    assert f.message == "prescribed cycle removal failed: refused"
    assert f.cycle == proj
    assert f.goodness == check_goodness(clg.lg)
    assert f.prescribed == proj
    assert f.to_json()["prescribed"] == list(proj.vertices)
    again = replay_case_failure(f.to_json()).failure
    assert (again.case, again.message, again.prescribed) == (f.case, f.message, proj)
    assert len(refused) == 2
    monkeypatch.undo()
    healed = replay_case_failure(f.to_json())
    assert healed.success and healed.steps[0].cycle == proj


def test_goddyn_first_step_projection():
    clg = build_line_graph(k4())
    first = Cycle((0, 1, 3, 2))
    tr = decompose(clg.lg, project_cycle(clg, first))
    assert tr.steps[0].cycle == project_cycle(clg, first)


def test_goddyn_on_every_cycle_of_small_graphs():
    """The paper's stronger claim, that every cycle C of a cubic bridgeless
    graph lies in some cycle double cover, on every cycle of the seeded
    graphs with n = 10, 12, 14 and seeds 0-2 (922 cycles, a set fixed by
    its run time): each prescribed run succeeds, and its lifted cover
    holds C and passes `verify_cdc`."""
    tried = 0
    for n in (10, 12, 14):
        for seed in range(3):
            base = random_cubic_bridgeless(GeneratorConfig(n, seed))
            clg = build_line_graph(base)
            for first in cycles_of(base):
                tr = decompose(clg.lg, project_cycle(clg, first))
                assert tr.success, (n, seed, first, tr.failure)
                cover = cover_from_decomposition(clg, tr.cycles)
                assert first in cover.cycles, (n, seed, first)
                assert verify_cdc(base, cover).accepted, (n, seed, first)
                tried += 1
    assert tried == 922


# ---------------------------------------------------------------------------
# fallback search against the exhaustive oracle


def test_dispatched_graphs_include_almost_good():
    bads = [bad for _, bad in (c.args for c in corpus().calls("_dispatch"))]
    assert bads.count(None) > 500
    assert len(bads) - bads.count(None) > 30


@functools.cache
def _small_dispatched(almost: bool) -> list[EdgeColoredGraph]:
    """The graphs on at most 24 vertices, those of the corpus's runs with
    n <= 16, that the engine dispatches as almost-good, or as good."""
    return [g for g, bad in (c.args for c in corpus().calls("_dispatch"))
            if (bad is not None) == almost and g.n <= 24]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fallback_matches_exhaustive_oracle(data):
    """On the good and almost-good graphs the corpus dispatches on at most
    24 vertices: the oracle enumerates every cycle before testing one, so
    larger graphs would cost more than the rest of the suite."""
    pool = _small_dispatched(data.draw(st.booleans(), label="almost_good"))
    g = pool[data.draw(st.integers(0, len(pool) - 1), label="graph")]
    # the engine's own cap is compared where that takes well under a second
    caps = [3, 4, 6, 8] + ([None] if len(g.edges) <= 32 else [])
    bad = check_goodness(g).bad_vertex
    for k in caps:
        with fallback_capped(k):
            cap = D._fallback_cap(g)
            got, want = fallback_search(g, bad), exhaustive_fallback(g, cap)
            assert (got.status, got.cycle) == (want.status, want.cycle), k


def test_color_pruned_cycles_match_the_reference():
    """The fallback's walk yields, for each length, exactly the reference's
    cycles of that length that repeat no color but `spare`, that one at
    most twice, in the reference's order: on the dispatched graphs of at
    most 24 edges (good ones with no spare, almost-good ones with the bad
    vertex's color) at every length up to their largest component, on both
    certificates, and on the 44-edge fallback graph up to 6 vertices."""
    cases = []
    for almost in (False, True):
        for g in _small_dispatched(almost):
            if len(g.edges) <= 24:
                bad = check_goodness(g).bad_vertex
                spare = None if bad is None else g.colors_at(bad)[0]
                cases.append((g, spare, max(len(c) for c in g.components)))
    assert {spare is None for _, spare, _ in cases} == {True, False}
    for name in ("good_but_undecomposable.txt", "good_but_undecomposable_k5_20.txt"):
        g = parse_colored_edge_list((FIXTURES / name).read_text())
        cases.append((g, None, max(len(c) for c in g.components)))
    cases.append((parse_colored_edge_list(
        (FIXTURES / "fallback_44_edges.txt").read_text()), None, 6))
    for g, spare, longest in cases:
        allowed = {c: 1 for c in g.coloring.values()}
        if spare is not None:
            allowed[spare] = 2
        reference = [
            c for c in enumerate_cycles_by_copying(g, longest)
            if all(n <= allowed[col] for col, n in
                   collections.Counter(g.coloring[e] for e in c.edges).items())]
        for length in range(3, longest + 1):
            assert (list(D._color_pruned_cycles(g, length, spare))
                    == [c for c in reference if len(c) == length]), length


def test_fallback_is_lazy(monkeypatch):
    """The first graph the engine searched for a fallback cycle on, while
    decomposing the line graph of n=20 seed 8, has 44 edges and 111,784
    simple cycles; the first safe one has 4 vertices, and no longer cycle
    is generated. A serialized copy finds the same cycle."""
    g = parse_colored_edge_list((FIXTURES / "fallback_44_edges.txt").read_text())
    assert len(g.edges) == 44
    lengths = []
    real_gen = D._color_pruned_cycles

    def counted(h, length, spare):
        for c in real_gen(h, length, spare):
            lengths.append(len(c))
            yield c

    monkeypatch.setattr(D, "_color_pruned_cycles", counted)
    res = fallback_search(g, None)
    assert res.status == "found" and res.cycle == Cycle((23, 24, 28, 27))
    assert lengths and max(lengths) <= len(res.cycle)
    again = parse_colored_edge_list(serialize_colored_edge_list(g))
    assert fallback_search(again, None).cycle == res.cycle


def test_decomposer_does_not_import_the_line_graph():
    """The engine works on colored graphs only: a caller projects a
    base-graph cycle to the line graph before prescribing it."""
    tree = ast.parse(Path(D.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "linegraph" not in (node.module or "").split("."), ast.dump(node)
            assert not (node.level and node.module is None
                        and any(a.name == "linegraph" for a in node.names))
        elif isinstance(node, ast.Import):
            assert not any("linegraph" in a.name.split(".") for a in node.names)


def test_decomposer_does_not_import_the_oracle():
    tree = ast.parse(Path(D.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "oracle" not in (node.module or "").split("."), ast.dump(node)
            assert not (node.level and node.module is None
                        and any(a.name == "oracle" for a in node.names))
        elif isinstance(node, ast.Import):
            assert not any("oracle" in a.name.split(".") for a in node.names)


# ---------------------------------------------------------------------------
# verifying a batch by one typing sweep and one check of what it leaves


def _covers(g, batch) -> bool:
    return sorted(e for _, c in batch for e in c.edges) == sorted(g.edges)


def _reference(g, rep, batch):
    """The per-cycle reference's outcome, as `_applied` reports it."""
    try:
        rest, rest_rep = remove_one_at_a_time(g, rep, batch)
    except CaseVerificationError as err:
        return "reject", str(err), err.case, err.cycle
    return "accept", rest.edges, rest_rep


def _applied(g, rep, batch):
    try:
        checked = D._check_removal(g, rep.bad_vertex, list(batch))
    except CaseVerificationError as err:
        return "reject", str(err), err.case, err.cycle
    return "accept", checked.rest.edges, _report_of(checked.bad)


def _assert_matches_reference(g, rep, batch) -> str:
    """`_check_removal` accepts what the per-cycle reference accepts, with
    the same remainder and report, and rejects the rest; returns the
    verdict. A rejection has the reference's message and culprit, except
    where the reference rejects a cycle of a batch of several for what its
    removal leaves: the sweep types every cycle before its one check, so it
    names a later cycle that its typing rejects, or the last cycle, with
    the verdict of what the whole batch leaves."""
    ref, got = _reference(g, rep, batch), _applied(g, rep, batch)
    if ref[0] == "accept" or len(batch) == 1 or "leaves a" not in ref[1]:
        assert got == ref
        return ref[0]
    assert got[0] == "reject"
    first = batch.index(ref[2:])
    last = len(batch) - 1 - batch[::-1].index(got[2:])
    tag, cyc = got[2:]
    if "leaves a" in got[1]:
        assert last == len(batch) - 1
        rest = g.edit(drop={e for _, c in batch for e in c.edges})
        expected = ("good" if rep.verdict is GoodnessVerdict.GOOD
                    or not all(_is_rainbow(g, c) for _, c in batch) else "almost_good")
        assert got[1] == (f"{tag}: removing {cyc.vertices} leaves a "
                          f"{check_goodness(rest).verdict.value} graph, "
                          f"expected {expected}")
    else:
        assert last > first
        assert got[1] in (
            f"{tag}: cycle {cyc.vertices} is not a cycle of the current graph",
            f"{tag}: cycle {cyc.vertices} is neither rainbow nor "
            f"almost-rainbow at the bad vertex")
    return "reject"


def _is_rainbow(g, c) -> bool:
    return len({g.coloring[e] for e in c.edges}) == len(c)


def _meeting_pairs(batch) -> list[tuple[int, int]]:
    """Index pairs i < j of cycles that share exactly two vertices."""
    return [(i, j) for i in range(len(batch)) for j in range(i + 1, len(batch))
            if len(set(batch[i][1].vertices) & set(batch[j][1].vertices)) == 2]


def _repaired(c1: Cycle, c2: Cycle) -> tuple[Cycle, Cycle]:
    """Two cycles that meet exactly at u and w, re-paired there: each new
    cycle runs from u to w along one and back along the other."""
    u, w = sorted(set(c1.vertices) & set(c2.vertices))

    def halves(c):
        seq = list(c.vertices)
        seq = seq[seq.index(u):] + seq[:seq.index(u)]
        k = seq.index(w)
        return seq[:k + 1], seq[k:] + [u]

    (a1, b1), (a2, b2) = halves(c1), halves(c2)
    return Cycle(tuple(a1 + b2[1:-1])), Cycle(tuple(a2 + b1[1:-1]))


def test_recorded_batches_include_lifts_and_almost_good():
    """The batches `_check_removal` accepts in the corpus, with the graph
    and bad vertex each is removed from, which the tests below take as
    samples: the cycles a case finds, a lift's batch, whole or partial, a
    fallback's cycle and the root certificate."""
    checks = corpus().calls("_check_removal")
    recorded = [c.args for c in checks if c.error is None]
    tags = {t for _, _, batch in recorded for t, _ in batch}
    assert {"Case1_1", "Case1_2", "Case2_1", "Case2_2_1a"} <= tags
    assert sum(bad is not None for _, bad, _ in recorded) > 20
    # partial batches of several cycles, not only the ones that cover
    assert sum(len(batch) > 1 and not _covers(g, batch)
               for g, _, batch in recorded) > 20
    # the engine's own check of a step and the root certificate reject
    # nothing; only a search that tries candidates in turn is refused
    assert {"_advance", "_verified_trace"} <= {c.caller for c in checks}
    refused = {c.caller for c in checks if c.error is not None}
    assert refused <= {"fallback_search", "_detour_x_cycle", "_case2_2_2a"}


MUTATIONS = ("none", "swap", "move almost-rainbow", "drop", "recolor", "re-pair",
             "repeat", "reroute")


def _equal_lengths(batch) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(batch)) for j in range(len(batch))
            if i != j and len(batch[i][1]) == len(batch[j][1])]


@functools.cache
def _mutable(mutation) -> list:
    """The recorded batches on at most 30 vertices that `mutation` can
    change."""
    recorded = [c.args for c in corpus().calls("_check_removal")
                if c.error is None and c.args[0].n <= 30]
    if mutation == "move almost-rainbow":
        return [r for r in recorded if len(r[2]) > 1
                and not all(_is_rainbow(r[0], c) for _, c in r[2])]
    if mutation == "re-pair":
        return [r for r in recorded if _meeting_pairs(r[2])]
    if mutation == "repeat":
        return [r for r in recorded if _equal_lengths(r[2])]
    if mutation != "none":
        return [r for r in recorded if len(r[2]) > 1]
    return recorded


def _mutated(data, mutation):
    """A recorded batch, changed as `mutation` says, with its graph's
    report, recomputed when the graph changes."""
    pool = _mutable(mutation)
    g, bad, batch = pool[data.draw(st.integers(0, len(pool) - 1), label="recorded")]
    rep = _report_of(bad)
    batch = list(batch)
    k = len(batch)
    if mutation == "swap":
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                  unique=True), label="swap")
        batch[i], batch[j] = batch[j], batch[i]
    elif mutation == "move almost-rainbow":
        i = next(i for i, (_, c) in enumerate(batch) if not _is_rainbow(g, c))
        batch.insert(data.draw(st.integers(0, k - 1), label="to"), batch.pop(i))
    elif mutation == "drop":
        batch.pop(data.draw(st.integers(0, k - 1), label="drop"))
    elif mutation == "recolor":
        _, c = data.draw(st.sampled_from(batch), label="cycle")
        e = data.draw(st.sampled_from(c.edges), label="edge")
        # a color of the same cycle, or one no edge has
        col = data.draw(st.sampled_from(
            sorted({g.coloring[f] for f in c.edges} | {-1})), label="color")
        g = EdgeColoredGraph(g.n, {**g.coloring, e: col})
        rep = check_goodness(g)
    elif mutation == "re-pair":
        i, j = data.draw(st.sampled_from(_meeting_pairs(batch)), label="pair")
        first, second = _repaired(batch[i][1], batch[j][1])
        if data.draw(st.booleans(), label="flip"):
            first, second = second, first
        batch[i], batch[j] = (batch[i][0], first), (batch[j][0], second)
    elif mutation == "repeat":
        # one cycle in place of another as long, so the lengths still add up
        i, j = data.draw(st.sampled_from(_equal_lengths(batch)), label="copy")
        batch[j] = batch[i]
    elif mutation == "reroute":
        # two vertices of one cycle trade places, mostly taking it off the graph
        at = data.draw(st.integers(0, k - 1), label="cycle")
        tag, c = batch[at]
        vs = list(c.vertices)
        i, j = data.draw(st.lists(st.integers(0, len(vs) - 1), min_size=2,
                                  max_size=2, unique=True), label="trade")
        vs[i], vs[j] = vs[j], vs[i]
        batch[at] = (tag, Cycle(tuple(vs)))
    return g, rep, batch


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_batch_sweep_matches_per_cycle_checks(data):
    """On the recorded batches of graphs on at most 30 vertices, those of
    the corpus's runs with n <= 20: the reference checks the goodness of
    every prefix in full, so larger graphs would cost more than the rest
    of the suite."""
    g, rep, batch = _mutated(
        data, data.draw(st.sampled_from(MUTATIONS), label="mutation"))
    if not rep.ok:
        return  # the engine removes cycles only from good or almost-good graphs
    _assert_matches_reference(g, rep, batch)


def test_almost_good_batches_re_paired_at_the_bad_vertex_cycle():
    """Re-pair an almost-good graph's almost-rainbow cycle with each cycle it
    meets at two vertices, either way round, so the bad vertex ends up on
    the earlier or the later cycle: the one check accepts exactly the
    batches the per-cycle reference accepts, and the rest fail with their
    message."""
    outcomes = set()
    for g, bad, batch in (c.args for c in corpus().calls("_check_removal")
                          if c.error is None):
        if bad is None:
            continue
        rep = almost_good_at(bad)
        at_bad = next((i for i, (_, c) in enumerate(batch) if bad in c), None)
        for i, j in _meeting_pairs(batch):
            if at_bad not in (i, j):
                continue
            for first, second in itertools.permutations(
                    _repaired(batch[i][1], batch[j][1])):
                mutated = list(batch)
                mutated[i] = (batch[i][0], first)
                mutated[j] = (batch[j][0], second)
                verdict = _assert_matches_reference(g, rep, mutated)
                outcomes.add((verdict, bad in first))
    assert outcomes == {(verdict, earlier) for verdict in ("accept", "reject")
                        for earlier in (True, False)}


def test_two_cycles_repeating_at_one_vertex_fail_the_typing_sweep():
    # two 4-cycles through 0 and 2, each repeating its color at 0: the graph
    # is good, but the batch is no rainbow split, so the sweep rejects its
    # first cycle before any goodness check or edit
    g = EdgeColoredGraph.from_triples(6, [
        (0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 0),
        (0, 4, 3), (2, 4, 1), (2, 5, 2), (0, 5, 3)])
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.GOOD
    batch = [(D.CASE_2_1, Cycle((0, 1, 2, 3))), (D.CASE_2_1, Cycle((0, 4, 2, 5)))]
    assert _covers(g, batch)
    assert _reference(g, rep, batch) == (
        "reject", "Case2_1: cycle (0, 1, 2, 3) is neither rainbow nor "
        "almost-rainbow at the bad vertex", *batch[0])
    with recording() as log:
        got = _applied(g, rep, batch)
    assert got == _reference(g, rep, batch)
    assert [c.name for c in log] == ["_check_removal"]


def test_batch_that_fails_on_goodness_names_its_last_cycle():
    """Removing the rainbow 5-cycle (1, 8, 11, 9, 10) from this good graph
    makes 3 a Type X cut vertex, and removing the rainbow 4-cycle
    (0, 4, 5, 9) as well leaves it so. The per-cycle reference rejects the
    5-cycle; the one check of what the batch leaves rejects the batch and
    names its last cycle, or names the first cycle after the 5-cycle that
    fails its typing, here the 5-cycle again."""
    g = EdgeColoredGraph.from_triples(12, [
        (0, 4, 2), (0, 9, 4), (1, 2, 7), (1, 6, 3), (1, 8, 3), (1, 10, 7),
        (2, 3, 1), (3, 4, 0), (3, 5, 0), (3, 6, 1), (4, 5, 0), (4, 7, 2),
        (5, 9, 5), (5, 11, 5), (7, 11, 6), (8, 11, 6), (9, 10, 4), (9, 11, 5)])
    rep = check_goodness(g)
    assert rep.verdict is GoodnessVerdict.GOOD
    five, four = Cycle((1, 8, 11, 9, 10)), Cycle((0, 4, 5, 9))
    assert _is_rainbow(g, five) and _is_rainbow(g, four)
    assert [v.witness for v in check_goodness(g.edit(drop=five.edges)).violations] == [3]
    batch = [(D.CASE_2_1, five), (D.CASE_2_2_1A, four)]
    assert _reference(g, rep, batch) == (
        "reject", "Case2_1: removing (1, 8, 11, 9, 10) leaves a not_good graph, "
        "expected good", *batch[0])
    assert _applied(g, rep, batch) == (
        "reject", "Case2_2_1a: removing (0, 4, 5, 9) leaves a not_good graph, "
        "expected good", *batch[1])
    again = [(D.CASE_2_1, five), (D.CASE_2_2_1A, five)]
    assert _applied(g, rep, again) == (
        "reject", "Case2_2_1a: cycle (1, 8, 11, 9, 10) is not a cycle of the "
        "current graph", *again[1])
    for b in (batch, again):
        assert _assert_matches_reference(g, rep, b) == "reject"


def test_partial_batch_makes_one_goodness_check_and_one_edit():
    """A batch of several cycles that leaves part of its graph, such as the
    lifted cycles the Case2_2_1a lift removes before its detour, is
    verified by one `edit` and one `removal_leaves_type_x` of the graph the
    edit made, however many cycles it has, and no full goodness check."""
    partial = [c for c in corpus().calls("_check_removal") if c.error is None
               and len(c.args[2]) > 1 and not _covers(c.args[0], c.args[2])]
    assert max(len(c.args[2]) for c in partial) >= 4
    for c in partial:
        made = [i for i in c.inner() if i.name in (*GOODNESS, "edit")]
        assert [i.name for i in made] == ["edit", "removal_leaves_type_x"]
        assert made[1].args[0] is made[0].result and made[1].args[1] is c.args[0]


def test_full_lift_makes_no_goodness_check():
    # per accepted removal: (tags, covers its graph, goodness checks made)
    made = [({t for t, _ in c.args[2]}, _covers(c.args[0], c.args[2]),
             sum(i.name in GOODNESS for i in c.inner()))
            for c in corpus().calls("_check_removal") if c.error is None]
    assert any("Case2_1" in tags and covers for tags, covers, _ in made)
    assert all(checks == 0 for _, covers, checks in made if covers)
    assert any(checks > 0 for _, covers, checks in made if not covers)


# sha256 over the trace JSON of every run below, in order; a change means
# the engine's accepts, rejects, cycles or reports changed, or the failure's
# graph text, which keeps the color ids the fixture gives
TRACE_DIGEST = "4295b800fbc75ff5de8a142c8705731e593d1867249e4d422a2f16bd33c62916"


# sha256 over the trace JSON of every run of the corpus, in `RUNS` order:
# n = 20 seeds 0-69, n = 10..24 seeds 0-4 and n = 40 seeds 0-2 with the
# fallback uncapped, then n = 10..20 seeds 0-4 capped at 6. It pins every
# size the corpus already decomposes, at no extra run
CORPUS_DIGEST = "3c9f87a020ee9cae35524c45ffc883742ab8be05237f57e4afd4858a1283ffc9"


def test_corpus_trace_digest_pinned():
    h = hashlib.sha256()
    for r in corpus().runs:
        h.update(json.dumps(r.trace.to_json(), sort_keys=True).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_trace_digest_pinned():
    """The corpus's runs n = 10..20, seeds 0-4, with the fallback uncapped
    and capped at 6, then the good graph with no rainbow decomposition."""
    runs = {(r.n, r.seed, r.cap): r for r in corpus().runs}
    traces = [runs[n, seed, cap].trace for n in range(10, 21, 2)
              for seed in range(5) for cap in (None, 6)]
    traces.append(decompose(parse_colored_edge_list(
        (FIXTURES / "good_but_undecomposable.txt").read_text())))
    h = hashlib.sha256()
    for trace in traces:
        h.update(json.dumps(trace.to_json(), sort_keys=True).encode())
    assert h.hexdigest() == TRACE_DIGEST
