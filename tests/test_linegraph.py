from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cdcover.coloring import GoodnessVerdict, check_goodness, triangles
from cdcover.decomposer import decompose
from cdcover.graphs import Cycle, Graph, edge
from cdcover.linegraph import (
    LineGraphError,
    build_line_graph,
    cover_from_decomposition,
    lift_rainbow_cycle,
    project_cycle,
)
from cdcover.oracle import GeneratorConfig, random_cubic_bridgeless
from graphsamples import k4, k33, petersen, prism, two_k4s
from oracles import (color_classes, cycles_of, enumerate_cycles_by_copying,
                     enumerate_rainbow_cycles)


def test_build_line_graph_k4_shape():
    clg = build_line_graph(k4())
    assert clg.lg.n == 6
    assert clg.lg.m == 12
    assert all(clg.lg.degree(v) == 4 for v in range(6))


def test_build_line_graph_petersen_shape():
    clg = build_line_graph(petersen())
    assert clg.lg.n == 15 and clg.lg.m == 30
    assert len(color_classes(clg.lg)) == 10


def test_build_line_graph_rejects_non_cubic():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(LineGraphError, match="not cubic"):
        build_line_graph(c5)


def test_build_line_graph_rejects_disconnected():
    with pytest.raises(LineGraphError) as err:
        build_line_graph(two_k4s())
    assert str(err.value) == "graph is not connected"


@given(st.sampled_from(range(4, 17, 2)), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_line_graph_lemmas(n, seed):
    """On the line graph L of a random cubic graph G: L is 4-regular with
    3n edges, and each color class is the triangle on a G-vertex's three
    edges. The lift of every rainbow cycle of L runs on exactly the G-edges
    its L-vertices name, and the lifts of a partition of E(L) into rainbow
    cycles use every G-edge twice. `lift_rainbow_cycle` and
    `cover_from_decomposition` rely on these and do not re-check them."""
    g = random_cubic_bridgeless(GeneratorConfig(n, seed))
    clg = build_line_graph(g)
    base_edges = sorted(g.edges)
    assert all(clg.lg.degree(x) == 4 for x in range(clg.lg.n))
    assert clg.lg.m == 3 * n
    for v, es in color_classes(clg.lg).items():
        spanned = {x for e in es for x in e}
        assert len(es) == 3 and {base_edges[x] for x in spanned} == {
            edge(v, w) for w in g.adj[v]}
    rainbow = [Cycle(vs) for vs in enumerate_rainbow_cycles(clg.lg)] if n <= 10 else []
    members = decompose(clg.lg).cycles
    lifts = {c: lift_rainbow_cycle(clg, c) for c in [*rainbow, *members]}
    for c, lifted in lifts.items():
        assert set(lifted.edges) == {base_edges[x] for x in c.vertices}
    counts = Counter(e for c in members for e in lifts[c].edges)
    assert counts == dict.fromkeys(g.edges, 2)


def test_line_graph_always_good():
    for g in (k4(), k33(), prism(), petersen()):
        assert check_goodness(build_line_graph(g).lg).verdict is GoodnessVerdict.GOOD


def test_triangle_free_base_gives_only_mono_triangles():
    for g in (k33(), petersen()):
        lg = build_line_graph(g).lg
        for u, v, w in triangles(lg):
            cols = {lg.color(u, v), lg.color(v, w), lg.color(u, w)}
            assert len(cols) == 1


def test_project_and_lift_k4_triangle():
    clg = build_line_graph(k4())
    tri = Cycle((0, 1, 2))
    proj = project_cycle(clg, tri)
    assert len(proj) == 3
    assert lift_rainbow_cycle(clg, proj) == tri


def test_lift_monochromatic_triangle_rejected():
    clg = build_line_graph(k4())
    # the color class of base vertex 0: its three incident edges
    ids = [i for i, e in enumerate(sorted(clg.base.edges)) if 0 in e]
    with pytest.raises(LineGraphError, match="rainbow"):
        lift_rainbow_cycle(clg, Cycle(tuple(ids)))


def test_lift_refuses_a_non_cycle_of_the_line_graph():
    """In L(K4), L-vertices 0 and 5 are the opposite edges (0, 1) and
    (2, 3), so 0 1 5 is no cycle of L."""
    clg = build_line_graph(k4())
    with pytest.raises(LineGraphError) as err:
        lift_rainbow_cycle(clg, Cycle((0, 1, 5)))
    assert str(err.value) == "not a cycle of the line graph: (0, 1, 5)"


def test_project_rejects_non_cycle():
    clg = build_line_graph(k4())
    with pytest.raises(Exception):
        project_cycle(clg, Cycle((0, 1, 9)))


def test_lift_project_bijection_small_graphs():
    for g in (k4(), k33(), prism()):
        clg = build_line_graph(g)
        base_cycles = cycles_of(g)
        projected = set()
        for c in base_cycles:
            p = project_cycle(clg, c)
            assert lift_rainbow_cycle(clg, p) == c
            projected.add(p.vertices)
        rainbow = {vs for vs in enumerate_rainbow_cycles(clg.lg)}
        assert projected == rainbow
        for vs in rainbow:
            c = lift_rainbow_cycle(clg, Cycle(vs))
            assert project_cycle(clg, c).vertices == vs


def test_cover_from_four_triangles():
    clg = build_line_graph(k4())
    tris = [c for c in enumerate_cycles_by_copying(clg.lg, 3)
            if len({clg.lg.coloring[e] for e in c.edges}) == 3]
    assert len(tris) == 4
    cover = cover_from_decomposition(clg, tris)
    counts = cover.edge_counts(k4())
    assert all(v == 2 for v in counts.values())


def test_cover_from_hamiltonian_projections():
    clg = build_line_graph(k4())
    hams = [Cycle((0, 1, 2, 3)), Cycle((0, 1, 3, 2)), Cycle((0, 2, 1, 3))]
    cover = cover_from_decomposition(clg, [project_cycle(clg, h) for h in hams])
    assert all(v == 2 for v in cover.edge_counts(k4()).values())
    assert sum(len(c) for c in cover.cycles) == 2 * k4().m


def test_cover_rejects_partial_decomposition():
    clg = build_line_graph(k4())
    tris = [c for c in enumerate_cycles_by_copying(clg.lg, 3)
            if len({clg.lg.coloring[e] for e in c.edges}) == 3]
    with pytest.raises(LineGraphError, match="partition"):
        cover_from_decomposition(clg, tris[:-1])


@pytest.mark.parametrize("member, message", [
    ("tuple", "not a cycle of the line graph"),
    ("mono triangle", "decomposition member is not rainbow"),
    ("repeat", "decomposition reuses line-graph edge"),
])
def test_cover_refuses_a_bad_member(member, message):
    """Every member is checked once, as it is lifted: a member that is no
    `Cycle`, a monochromatic triangle and a member given twice are each
    refused by name."""
    clg = build_line_graph(k4())
    tris = [c for c in enumerate_cycles_by_copying(clg.lg, 3)
            if len({clg.lg.coloring[e] for e in c.edges}) == 3]
    mono = next(c for c in enumerate_cycles_by_copying(clg.lg, 3)
                if len({clg.lg.coloring[e] for e in c.edges}) == 1)
    cycles = {"tuple": [*tris[:-1], tris[-1].vertices],
              "mono triangle": [mono, *tris],
              "repeat": [*tris, tris[0]]}[member]
    with pytest.raises(LineGraphError, match=message):
        cover_from_decomposition(clg, cycles)


def test_cover_length_identity():
    for g in (k4(), prism(), k33(), petersen()):
        clg = build_line_graph(g)
        from cdcover.decomposer import decompose
        tr = decompose(clg.lg)
        cover = cover_from_decomposition(clg, tr.cycles)
        assert sum(len(c) for c in cover.cycles) == 2 * g.m == 3 * g.n


def test_cover_json_shape():
    clg = build_line_graph(k4())
    from cdcover.decomposer import decompose
    cover = cover_from_decomposition(clg, decompose(clg.lg).cycles)
    data = cover.to_json(k4())
    assert set(data) == {"cycles", "edge_counts"}
    assert all(item["count"] == 2 for item in data["edge_counts"])
