import gc
import hashlib
import json
import math
import time
from functools import cache, partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cdcover import oracle
from cdcover.coloring import EdgeColoredGraph, check_goodness, parse_colored_edge_list, triangles
from cdcover.decomposer import decompose
from cdcover.graphs import Cycle, Graph, GraphError, find_bridges, is_cubic
from cdcover.linegraph import build_line_graph
from cdcover.oracle import (
    GeneratorConfig,
    SearchResult,
    _exact_multicover,
    brute_force_cdc,
    brute_force_rainbow_decomposition,
    enumerate_cycles,
    random_cubic_bridgeless,
)
from cdcover.verify import verify_cdc, verify_rainbow_decomposition
from graphsamples import (
    almost_good_c4,
    bridged_cubic_10,
    case1_1_host,
    case1_2_host,
    k4,
    k33,
    petersen,
    prism,
    rainbow_c4,
)
from oracles import (
    cdc_by_lowest_edge,
    cycles_of,
    enumerate_cycles_by_copying,
    exact_multicover_by_recount,
    rainbow_candidates,
    rainbow_decomposition_by_lowest_edge,
    with_edge_ids,
)


def test_enumerate_cycles_k4():
    cycles = enumerate_cycles(k4(), math.inf)
    assert len(cycles) == 7
    assert sorted(len(vertices) for vertices, _ in cycles) == [3, 3, 3, 3, 4, 4, 4]


def test_enumerate_cycles_c5():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert len(enumerate_cycles(c5, math.inf)) == 1


def test_enumerate_cycles_tree():
    tree = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert enumerate_cycles(tree, math.inf) == []


def test_enumerate_cycles_space_dimension_bound():
    for g in (k4(), petersen()):
        assert len(enumerate_cycles(g, math.inf)) >= g.m - g.n + 1


def test_enumerate_cycles_matches_the_reference():
    """The walk lists the cycles the path-copying reference lists, in the
    same order, and the edge ids it recorded for each name, in order, the
    edges its vertices give: cubic graphs, the degree-4 line graphs of K4,
    K33 and Petersen, and graphs with no cycle, one cycle, isolated
    vertices or three components."""
    graphs = [random_cubic_bridgeless(GeneratorConfig(n, seed))
              for n in range(4, 18, 2) for seed in range(3)]
    graphs += [build_line_graph(g).lg for g in (k4(), k33(), petersen())]
    graphs += [
        Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)]),
        Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
        Graph.from_edges(8, [(1, 3), (3, 6), (6, 1), (6, 4), (4, 1)]),
        Graph.from_edges(9, [(8, 0), (0, 5), (5, 8), (1, 7), (7, 2), (2, 6),
                             (6, 1), (1, 2), (3, 4)]),
    ]
    for g in graphs:
        _assert_matches_the_reference(g)


def _assert_matches_the_reference(g: Graph) -> None:
    cycles = enumerate_cycles(g, math.inf)
    reference = enumerate_cycles_by_copying(g)
    assert [vertices for vertices, _ in cycles] == [c.vertices for c in reference]
    edges = sorted(g.edges)
    for (_, ids), c in zip(cycles, reference):
        assert tuple(edges[k] for k in ids) == c.edges


@st.composite
def _simple_graphs(draw):
    """A simple graph on 0-9 vertices with each pair joined at its own
    drawn chance, so degrees, isolated vertices and components vary."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@given(_simple_graphs())
@settings(max_examples=300, deadline=None)
def test_enumerate_cycles_matches_the_reference_on_any_graph(g):
    """On any simple graph, whatever the number of neighbours above each
    start the walk's cuts branch on, the walk lists the reference's cycles,
    in its order, with the ids of the edges their vertices give, in order."""
    _assert_matches_the_reference(g)


def test_enumeration_is_bounded_by_the_budget():
    """The budget bounds the cycle enumeration, not only the cover search:
    on n = 34 the enumeration alone takes 0.9-1.7 s on a 2-vCPU VM, many
    times a 0.1 s budget, and the search used to run past that budget
    until it answered `found`."""
    g = random_cubic_bridgeless(GeneratorConfig(34, 0))
    start = time.monotonic()
    assert brute_force_cdc(g, time_budget=0.1).status == "indeterminate"
    assert time.monotonic() - start < 1.0
    deadline = time.monotonic() + 0.1
    with pytest.raises(TimeoutError):
        enumerate_cycles(g, deadline)


def test_zero_budget_is_a_budget():
    """A budget of 0 s runs out at once; it does not mean no budget."""
    g = random_cubic_bridgeless(GeneratorConfig(16, 0))
    assert brute_force_cdc(g, time_budget=0.0).status == "indeterminate"
    lg = build_line_graph(g).lg
    assert brute_force_rainbow_decomposition(lg, time_budget=0.0).status == "indeterminate"


def test_each_oracle_enumerates_cycles_once(monkeypatch):
    """Both oracles call `enumerate_cycles` once per search, looked up on
    the module, where the benchmark's span of that layer wraps it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return enumerate_cycles(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_cycles", counting)
    g, lg = petersen(), build_line_graph(k4()).lg
    assert brute_force_cdc(g, math.inf).found
    assert calls == [g]
    assert brute_force_rainbow_decomposition(lg, math.inf).found
    assert calls == [g, lg]


def test_oracles_build_cycles_only_for_the_cover(monkeypatch):
    """The oracles search the enumerated cycles by their edge ids and build
    a `Cycle` only for each member of the cover they return: none on
    `absent` or `indeterminate`. The rainbow oracle also builds one for
    each cycle through the bad vertex, to test it for almost-rainbow; no
    such cycle is rainbow, as the bad vertex's two edges share a color."""
    built = []

    def counting(vertices):
        built.append(vertices)
        return Cycle(vertices)

    monkeypatch.setattr(oracle, "Cycle", counting)

    def builds(search, *args) -> tuple[SearchResult, int]:
        built.clear()
        res = search(*args, math.inf)
        return res, len(built)

    for g in (petersen(), random_cubic_bridgeless(GeneratorConfig(16, 0))):
        res, count = builds(brute_force_cdc, g)
        assert res.found and count == len(res.cycles)
    res, count = builds(partial(_within, 3, brute_force_cdc), petersen())
    assert res.status == "indeterminate" and count == 0
    for g in (build_line_graph(k4()).lg, rainbow_c4()):
        res, count = builds(brute_force_rainbow_decomposition, g)
        assert res.found and count == len(res.cycles)
    mono = EdgeColoredGraph.from_triples(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    res, count = builds(brute_force_rainbow_decomposition, mono)
    assert res.status == "absent" and count == 0
    g = almost_good_c4()
    bad = check_goodness(g).bad_vertex
    through_bad = sum(bad in vertices for vertices, _ in enumerate_cycles(g, math.inf))
    res, count = builds(brute_force_rainbow_decomposition, g)
    assert res.found and through_bad and count == len(res.cycles) + through_bad


def test_brute_force_cdc_k4():
    res = brute_force_cdc(k4(), math.inf)
    assert res.found
    assert verify_cdc(k4(), res.cycles).accepted


def test_brute_force_cdc_bridge_absent():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert brute_force_cdc(g, math.inf).status == "absent"


def test_brute_force_cdc_petersen():
    res = brute_force_cdc(petersen(), math.inf)
    assert res.found
    assert verify_cdc(petersen(), res.cycles).accepted


def test_brute_force_cdc_branch_orders_agree():
    """The oracle, branching on the most constrained edge, and the
    reference search on the lowest both find a cover."""
    for g in (k4(), petersen()):
        assert brute_force_cdc(g, math.inf).status == cdc_by_lowest_edge(g).status == "found"


def test_brute_force_rainbow_l_k4():
    lg = build_line_graph(k4()).lg
    res = brute_force_rainbow_decomposition(lg, math.inf)
    assert res.found
    assert verify_rainbow_decomposition(lg, res.cycles).accepted


def test_brute_force_rainbow_mono_triangle_absent():
    g = EdgeColoredGraph.from_triples(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    assert brute_force_rainbow_decomposition(g, math.inf).status == "absent"


def test_brute_force_rainbow_single_c4():
    g = rainbow_c4()
    res = brute_force_rainbow_decomposition(g, math.inf)
    assert res.found and len(res.cycles) == 1


def test_brute_force_rainbow_almost_good():
    g = almost_good_c4()
    res = brute_force_rainbow_decomposition(g, math.inf)
    assert res.found
    assert verify_rainbow_decomposition(g, res.cycles).accepted


def _within(nodes, search, *args) -> SearchResult:
    """`search(*args)` with `oracle.MAX_NODES` set to `nodes`."""
    with mock.patch.object(oracle, "MAX_NODES", nodes):
        return search(*args)


def test_brute_force_indeterminate_on_tiny_budget():
    res = _within(3, brute_force_cdc, petersen(), math.inf)
    assert res.status == "indeterminate"


def test_searches_leave_no_garbage():
    """With the cyclic collector paused, no oracle search, found or run out
    of nodes, leaves garbage for it: the search's lists and candidate
    tuples are freed as it returns. The engine, run on a line graph,
    leaves none either."""
    g = random_cubic_bridgeless(GeneratorConfig(16, 3))
    lg = build_line_graph(random_cubic_bridgeless(GeneratorConfig(10, 0))).lg
    calls = [partial(brute_force_cdc, g, math.inf),
             partial(brute_force_rainbow_decomposition, lg, math.inf),
             partial(_within, 3, brute_force_cdc, petersen(), math.inf),
             partial(decompose, lg)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        if collecting:
            gc.enable()


def test_brute_force_cdc_searches_each_cycle_once():
    """Each enumerated cycle is one candidate, usable for both slots of its
    edges, so no failed subtree is explored twice: the first cover is found
    within 11 nodes by the oracle, branching on the most constrained edge,
    and 22 by the reference search on the lowest, where a list with every
    cycle twice needs 15 and 63."""
    g = petersen()
    lowest, _ = exact_multicover_by_recount(sorted(g.edges), cycles_of(g),
                                            2, branch="lowest", max_nodes=22)
    for res in (_within(11, brute_force_cdc, g, math.inf), lowest):
        assert res.found
        assert verify_cdc(g, res.cycles).accepted


def _result_line(res: SearchResult) -> bytes:
    cycles = " ".join(",".join(map(str, c.vertices)) for c in res.cycles or ())
    return f"{res.status}:{cycles}\n".encode()


def _colored_samples() -> list[EdgeColoredGraph]:
    """The line graphs of four small cubic graphs, the colored samples, the
    good graph with no rainbow decomposition, then the 11 almost-good
    graphs of at most 30 edges that the engine once dispatched while
    decomposing the line graphs of n = 10, 12, seeds 0-2, frozen in a
    fixture."""
    fixtures = Path(__file__).parent / "fixtures"
    colored = [build_line_graph(g).lg for g in (k4(), k33(), prism(), petersen())]
    colored += [almost_good_c4(), rainbow_c4(), case1_1_host(), case1_2_host(),
                parse_colored_edge_list(
                    (fixtures / "good_but_undecomposable.txt").read_text())]
    almost = json.loads((fixtures / "almost_good_dispatched.json").read_text())
    assert len(almost) == 11
    return colored + [parse_colored_edge_list(text) for text in almost]


# sha256 over the status and cycles of every search below, in order, first
# the oracle's, then the reference's on the lowest open edge; a change
# means an oracle's verdicts or the covers it finds changed
CDC_DIGEST = "6191968c369e9cb647d71a558ca04f156a4d9eaec2b5a4d132a7512c3651b6fe"
RAINBOW_DIGEST = "d3b8413c690cac327563b63681821d9ea1f1644d1b5b8bca4d49b540da1ff889"
# the same over the crosscheck benchmark's larger sizes, recorded before
# the search kept its counts of usable candidates up to date
LARGE_CDC_DIGEST = "2b5747ef13b39b420cc6f7e3bc91ee0707d68af74fe83586e9b9aee7755bbc2d"


def test_oracle_results_pinned():
    cubic = [k4(), k33(), prism(), petersen(), bridged_cubic_10()]
    cubic += [random_cubic_bridgeless(GeneratorConfig(n, seed))
              for n in (6, 8, 10, 12) for seed in range(4)]
    colored = _colored_samples()
    cdc, rainbow = hashlib.sha256(), hashlib.sha256()
    for cdc_search, rainbow_search in (
            (partial(brute_force_cdc, time_budget=math.inf),
             partial(brute_force_rainbow_decomposition, time_budget=math.inf)),
            (cdc_by_lowest_edge, rainbow_decomposition_by_lowest_edge)):
        for g in cubic:
            cdc.update(_result_line(cdc_search(g)))
        for g in colored:
            rainbow.update(_result_line(rainbow_search(g)))
    assert (cdc.hexdigest(), rainbow.hexdigest()) == (CDC_DIGEST, RAINBOW_DIGEST)


def test_oracle_results_pinned_on_benchmark_sizes():
    """`brute_force_cdc`, then the reference search on the lowest open
    edge, on n = 14 and 16, seeds 0-11: the sizes the crosscheck benchmark
    searches."""
    cubic = [random_cubic_bridgeless(GeneratorConfig(n, seed))
             for n in (14, 16) for seed in range(12)]
    cdc = hashlib.sha256()
    for search in (partial(brute_force_cdc, time_budget=math.inf), cdc_by_lowest_edge):
        for g in cubic:
            cdc.update(_result_line(search(g)))
    assert cdc.hexdigest() == LARGE_CDC_DIGEST


def _nodes_needed(search) -> int:
    """The nodes `search()` visits, by bisecting `oracle.MAX_NODES`: it
    answers `indeterminate` exactly when it needs more than that."""
    hi = 1
    while _within(hi, search).status == "indeterminate":
        hi *= 2
    lo = hi // 2  # too few, or 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _within(mid, search).status == "indeterminate":
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("branch", ["constrained"])
def test_multicover_search_matches_the_recount(branch):
    """The bitset search, which holds a node's usable candidates as one
    int and counts an edge's with `bit_count`, finds what the search that
    rescans every candidate's edges at every node finds, and visits as
    many nodes: demand 2 on cubic graphs of n = 6-16, demand 1 on the
    colored samples, an `absent` one among them. The package branches by
    one rule, the reference's `branch="constrained"`."""
    cases = []
    for n in range(6, 18, 2):
        for seed in range(3):
            g = random_cubic_bridgeless(GeneratorConfig(n, seed))
            cases.append((brute_force_cdc(g, math.inf), sorted(g.edges),
                          cycles_of(g), 2))
    for g in _colored_samples():
        cases.append((brute_force_rainbow_decomposition(g, math.inf),
                      sorted(g.edges), rainbow_candidates(g), 1))
    statuses = set()
    for result, edges, candidates, demand in cases:
        expected, nodes = exact_multicover_by_recount(edges, candidates, demand,
                                                      branch=branch)
        assert result == expected
        search = partial(_exact_multicover, len(edges), with_edge_ids(edges, candidates),
                         demand, math.inf)
        assert _nodes_needed(search) == nodes
        statuses.add(expected.status)
    assert statuses == {"found", "absent"}


def test_search_checks_its_deadline():
    """A double cover of n = 10, seed 0 by its cycles of at least 6
    vertices needs 345 search nodes, more than the 64 between two deadline
    checks. With a deadline already past and no node budget, the search
    answers `indeterminate` at its first check, on node 64; with no
    deadline it finds the cover below. A search of fewer than 64 nodes
    never reads the clock."""
    g = random_cubic_bridgeless(GeneratorConfig(10, 0))
    cycles = [(vertices, ids) for vertices, ids in enumerate_cycles(g, math.inf)
              if len(vertices) >= 6]
    search = partial(_exact_multicover, g.m, cycles, 2)
    assert _nodes_needed(partial(search, math.inf)) == 345
    past = time.monotonic() - 1.0
    assert _within(math.inf, search, past).status == "indeterminate"
    res = _within(math.inf, search, math.inf)
    assert [c.vertices for c in res.cycles] == [
        (0, 6, 4, 5, 3, 2, 7, 8, 1, 9), (0, 8, 1, 2, 7, 5, 3, 4, 6, 9),
        (0, 6, 9, 1, 2, 3, 4, 5, 7, 8)]
    assert verify_cdc(g, res.cycles).accepted
    p = petersen()
    assert _within(math.inf, _exact_multicover, p.m,
                   enumerate_cycles(p, math.inf), 2, past) == brute_force_cdc(p, math.inf)


@cache
def _edges_and_cycles(n: int, seed: int) -> tuple[list, list]:
    g = random_cubic_bridgeless(GeneratorConfig(n, seed))
    return sorted(g.edges), cycles_of(g)


@st.composite
def _multicover_instances(draw):
    """A cubic graph of n = 6-12, a sub-list of its cycles in their order,
    and a demand of 1 or 2."""
    edges, cycles = _edges_and_cycles(draw(st.sampled_from((6, 8, 10, 12))),
                                      draw(st.integers(0, 3)))
    keep = draw(st.lists(st.booleans(), min_size=len(cycles), max_size=len(cycles)))
    return edges, [c for c, k in zip(cycles, keep) if k], draw(st.sampled_from((1, 2)))


@given(_multicover_instances())
@settings(max_examples=60, deadline=None)
def test_multicover_search_matches_the_recount_on_sub_lists(instance):
    """On any sub-list of a graph's cycles, where `absent` and deep
    backtracking are common, the search answers what the recount answers,
    within the same node budget, and needs as many nodes: it answers with
    `nodes` and not with one fewer."""
    edges, cycles, demand = instance
    cap = 3000
    expected, nodes = exact_multicover_by_recount(edges, cycles, demand, max_nodes=cap)
    search = partial(_exact_multicover, len(edges), with_edge_ids(edges, cycles), demand,
                     math.inf)
    assert _within(cap, search) == expected
    if expected.status != "indeterminate":
        assert _within(nodes, search) == expected
        assert _within(nodes - 1, search).status == "indeterminate"


def test_generator_n4_is_k4():
    for seed in (0, 1, 99):
        g = random_cubic_bridgeless(GeneratorConfig(4, seed))
        assert g.edges == k4().edges


def test_generator_n6_two_kinds():
    kinds = set()
    for seed in range(30):
        g = random_cubic_bridgeless(GeneratorConfig(6, seed))
        assert is_cubic(g) and not find_bridges(g)
        kinds.add(bool(triangles(g)))
    assert kinds == {True, False}  # prism and K33 both appear


def test_generator_rejects_odd():
    with pytest.raises(GraphError, match="even"):
        GeneratorConfig(5, 0)


def test_generator_deterministic():
    a = random_cubic_bridgeless(GeneratorConfig(12, 42))
    b = random_cubic_bridgeless(GeneratorConfig(12, 42))
    assert a == b


def test_generator_contract_holds():
    for seed in range(20):
        g = random_cubic_bridgeless(GeneratorConfig(10, seed))
        assert is_cubic(g)
        assert not find_bridges(g)


def test_cdc_self_consistency():
    for seed in range(5):
        g = random_cubic_bridgeless(GeneratorConfig(8, seed))
        res = brute_force_cdc(g, math.inf)
        assert res.found
        assert verify_cdc(g, res.cycles).accepted
