import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cdcover.cli import main
from cdcover.coloring import (
    ColoredGraphError,
    EdgeColoredGraph,
    parse_colored_edge_list,
    split_components,
    triangles,
    x_block_decomposition,
)
from cdcover.graphs import (
    Cycle,
    Graph,
    GraphError,
    edge,
    find_bridges,
    is_connected,
    is_cubic,
    lowpoint_search,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from cdcover.oracle import GeneratorConfig, random_cubic_bridgeless
from graphsamples import bridged_cubic_10, k4, petersen
from oracles import (
    _components_avoiding,
    component_count,
    parse_graph6_by_bit_list,
    serialize_edge_list,
    serialize_graph6_by_bit_list,
    type_x_by_pseudoblock_splits,
    x_blocks_by_definition,
)


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert serialize_graph6(g) == "C~"


def test_parse_graph6_roundtrip_5_vertices():
    s = "DQc"
    assert serialize_graph6(parse_graph6(s)) == s


def test_parse_graph6_empty_is_truncated():
    with pytest.raises(GraphError, match="truncated|empty"):
        parse_graph6("")


def test_parse_graph6_truncated_bits():
    with pytest.raises(GraphError, match="truncated"):
        parse_graph6("D")  # 5 vertices need 2 body bytes


def test_parse_graph6_bad_characters():
    with pytest.raises(GraphError, match="byte"):
        parse_graph6("C" + chr(20))


def test_parse_graph6_header_prefix():
    assert parse_graph6(">>graph6<<C~").edges == k4().edges


def test_parse_graph6_refuses_non_ascii():
    """A non-ASCII character is refused at its offset, not replaced by
    `?`, which is a valid data byte: `Cé` is not 4 isolated vertices."""
    with pytest.raises(GraphError) as err:
        parse_graph6("Cé")
    assert str(err.value) == "graph6 parse error at byte 1: non-ASCII character"
    with pytest.raises(GraphError, match="at byte 0: non-ASCII character"):
        parse_graph6(">>graph6<<éC~")


def test_parse_graph6_refuses_the_36_bit_header():
    """`~~` opens graph6's header for n >= 258048, which is unsupported."""
    with pytest.raises(GraphError) as err:
        parse_graph6("~~" + "?" * 6)
    assert str(err.value) == (
        "graph6 parse error at byte 1: vertex counts above 258047 unsupported")


def test_serialize_graph6_refuses_n_above_258047():
    """The 36-bit header that n >= 258048 needs is unsupported: the
    refusal comes before the bit-vector is allocated."""
    with pytest.raises(GraphError) as err:
        serialize_graph6(Graph(258048, frozenset()))
    assert str(err.value) == "graph too large for supported graph6 headers: n=258048"


@pytest.mark.parametrize("n, head", [(63, "~??~"), (64, "~?@?")])
def test_graph6_four_byte_headers(n, head):
    """n > 62 takes `~` and then n in three 6-bit digits, high first."""
    g = Graph(n, frozenset({(0, n - 1)}))
    text = serialize_graph6(g)
    assert text.startswith(head) and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(text) == g


def test_graph6_ignores_set_padding_bits():
    """K2's one bit is the high bit of its one byte: the five bits after it
    pad the byte, and `A~` reads as `A_`."""
    assert parse_graph6("A~") == parse_graph6("A_") == Graph(2, frozenset({(0, 1)}))
    assert serialize_graph6(parse_graph6("A~")) == "A_"


def test_graph6_refusals_keep_their_offsets():
    for text, message in [
            ("D?", "at byte 2: truncated bit-vector (need 2 bytes, got 1)"),
            ("D???", "at byte 3: trailing data"),
            ("D?\x7f", "at byte 2: out-of-range character 127"),
            ("D>?", "at byte 1: out-of-range character 62"),
            ("~??", "at byte 3: truncated extended header"),
            ("~?@" + chr(127), "at byte 3: out-of-range character 127"),
            ("!", "at byte 0: bad header byte 33")]:
        with pytest.raises(GraphError) as err:
            parse_graph6(text)
        assert str(err.value) == "graph6 parse error " + message, text


def test_parse_edge_list_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0\n")
    assert g.n == 3 and g.m == 3


def test_parse_edge_list_errors():
    with pytest.raises(GraphError, match="self-loop"):
        parse_edge_list("0 0\n")
    with pytest.raises(GraphError, match="duplicate"):
        parse_edge_list("0 1\n0 1\n")
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("0 1\nx 2\n")


def test_parse_edge_list_header():
    g = parse_edge_list("n 5\n0 1\n")
    assert g.n == 5 and g.degree(4) == 0


@pytest.mark.parametrize("lines, message", [
    (["n"], "line 1: malformed vertex-count header"),
    (["n 3 4"], "line 1: malformed vertex-count header"),
    (["n x"], "line 1: non-integer vertex count in 'n x'"),
    (["n -1"], "line 1: negative vertex count -1"),
    (["0 1", "2"], "line 2: expected '{fields}', got '2{color}'"),
    (["0 1 2 3"], "line 1: expected '{fields}', got '0 1 2 3{color}'"),
    (["0 x"], "line 1: non-integer vertex id in '0 x{color}'"),
    (["0 -1"], "line 1: negative vertex id in '0 -1{color}'"),
    (["# a loop", "", "1 1"], "line 3: self-loop at vertex 1"),
    (["n 2", "0 5"], "line 2: edge (0, 5) out of range for declared n=2"),
    (["0 1", "1 0"], "line 2: duplicate edge (0, 1)"),
], ids=["short-header", "long-header", "non-integer-count", "negative-count",
        "short-line", "long-line", "non-integer-id", "negative-id", "self-loop",
        "out-of-range", "duplicate"])
def test_edge_list_parsers_refuse_alike(lines, message):
    """The plain and the colored edge-list parser refuse the same malformed
    text with the same message naming its line; the colored parser's edge
    lines carry a color token and it expects one more field."""
    for parse, error, fields, color in [
            (parse_edge_list, GraphError, "u v", ""),
            (parse_colored_edge_list, ColoredGraphError, "u v color", " c")]:
        text = "".join(ln + (color if ln[:1].isdigit() else "") + "\n"
                       for ln in lines)
        with pytest.raises(error) as err:
            parse(text)
        assert str(err.value) == message.format(fields=fields, color=color)


def test_edge_list_refusal_reaches_the_cli(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 2\n0 5\n")
    code = main(["decompose", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {path}: line 2: edge (0, 5) out of range "
                            f"for declared n=2\n")


def test_edge_list_roundtrip():
    g = petersen()
    assert parse_edge_list(serialize_edge_list(g)).edges == g.edges


def test_is_cubic():
    assert is_cubic(k4())
    assert is_cubic(petersen())
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not is_cubic(c5)


def test_find_bridges_two_triangles():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert find_bridges(g) == frozenset({(2, 3)})


def test_find_bridges_k4_none():
    assert find_bridges(k4()) == frozenset()


def test_cycle_canonical_forms():
    assert Cycle((2, 0, 1)).vertices == (0, 1, 2)
    assert Cycle((0, 2, 1)).vertices == (0, 1, 2)
    assert Cycle((3, 2, 1, 0)).vertices == (0, 1, 2, 3)
    assert Cycle((1, 0, 3, 2)).vertices == (0, 1, 2, 3)
    assert Cycle([3, 2, 1, 0]).vertices == (0, 1, 2, 3)


def test_cycle_rejects_bad_input():
    with pytest.raises(GraphError):
        Cycle((0, 1))
    with pytest.raises(GraphError):
        Cycle((0, 1, 1))


def test_connectivity_and_bridges_share_one_search(monkeypatch):
    """The input checks ask both questions of one graph: one lowpoint
    search per graph answers both."""
    calls = []
    monkeypatch.setattr("cdcover.graphs.lowpoint_search",
                        lambda adj: calls.append(adj) or lowpoint_search(adj))
    for g, bridges in ((petersen(), 0), (bridged_cubic_10(), 1)):
        calls.clear()
        assert is_connected(g) and len(find_bridges(g)) == bridges
        assert is_connected(g) and len(find_bridges(g)) == bridges
        assert calls == [g.adj]


def test_is_connected():
    """Isolated vertices count as components; no vertex and one vertex are
    connected."""
    assert is_connected(Graph(0, frozenset()))
    assert is_connected(Graph(1, frozenset()))
    assert not is_connected(Graph(2, frozenset()))
    assert is_connected(Graph.from_edges(2, [(0, 1)]))
    assert is_connected(petersen())
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert not is_connected(Graph.from_edges(5, [(0, 1), (2, 3)]))
    assert not is_connected(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]))
    assert is_connected(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=24))
    return Graph.from_edges(n, picked)


@st.composite
def even_graphs(draw, max_n=12):
    """Symmetric differences of cycles keep every degree even."""
    n = draw(st.integers(3, max_n))
    edges: set = set()
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(3, n))
        verts = draw(st.permutations(range(n)))[:k]
        cyc = {edge(verts[i], verts[(i + 1) % k]) for i in range(k)}
        edges ^= cyc
    return Graph.from_edges(n, edges)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_graph6_roundtrip_property(g):
    assert parse_graph6(serialize_graph6(g)).edges == g.edges


@st.composite
def graph6_lines(draw, max_n=150):
    """A graph on up to `max_n` vertices, so that 1- and 4-byte headers are
    both drawn, and a graph6 line for its n with any body, padding bits
    included."""
    n = draw(st.integers(0, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=3 * n))
    g = Graph.from_edges(n, {(u, v) for u, v in pairs if u != v})
    head = serialize_graph6(Graph(n, frozenset()))[:1 if n <= 62 else 4]
    body = draw(st.binary(min_size=(n * (n - 1) // 2 + 5) // 6,
                          max_size=(n * (n - 1) // 2 + 5) // 6))
    return g, head + "".join(chr(63 + b % 64) for b in body)


@given(graph6_lines())
@settings(max_examples=150, deadline=None)
def test_graph6_codec_matches_the_bit_list_reference(case):
    g, line = case
    text = serialize_graph6(g)
    assert text == serialize_graph6_by_bit_list(g)
    assert parse_graph6(text) == parse_graph6_by_bit_list(text) == g
    assert parse_graph6(line) == parse_graph6_by_bit_list(line)


@pytest.mark.parametrize("n", [100, 1000])
def test_graph6_codec_matches_the_reference_on_generated_graphs(n):
    g = random_cubic_bridgeless(GeneratorConfig(n, n))
    text = serialize_graph6(g)
    assert text == serialize_graph6_by_bit_list(g)
    assert parse_graph6(text) == parse_graph6_by_bit_list(text) == g


def test_graph6_codec_memory_is_linear_in_the_text():
    """The codec reads and writes the body's bits in place: on n = 2000,
    whose graph6 text has 333,171 characters, neither direction's
    `tracemalloc` peak reaches 8 bytes per character. A list of all
    n(n-1)/2 bits would take about 16 MB."""
    g = random_cubic_bridgeless(GeneratorConfig(2000, 0))
    tracemalloc.start()
    try:
        text = serialize_graph6(g)
        serialize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        parsed = parse_graph6(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 333171 and parsed == g
    assert serialize_peak < 8 * len(text) and parse_peak < 8 * len(text)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_edge_list_roundtrip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@st.composite
def patchwork_graphs(draw, max_n=14):
    """Simple graphs of one to four parts on disjoint vertex sets, each a
    path, a tree or a random graph, plus up to three edges anywhere, with
    the vertices shuffled."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), unique=True, max_size=3))
                  if n > 1 else [])
    edges: set = set()
    for lo, hi in zip([0] + cuts, cuts + [n]):
        part = order[lo:hi]
        kind = draw(st.sampled_from(["path", "tree", "random"]))
        if kind == "path":
            edges.update(edge(a, b) for a, b in zip(part, part[1:]))
        elif kind == "tree":
            edges.update(edge(part[i], part[draw(st.integers(0, i - 1))])
                         for i in range(1, len(part)))
        elif len(part) > 1:
            pairs = [edge(a, b) for i, a in enumerate(part) for b in part[i + 1:]]
            edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * len(part))))
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda t: t[0] != t[1])
        edges.update(edge(*t) for t in draw(st.lists(extra, max_size=3)))
    return Graph.from_edges(n, edges)


@given(patchwork_graphs())
@settings(max_examples=300, deadline=None)
def test_find_bridges_matches_the_definition(g):
    """An edge is a bridge exactly when deleting it adds a component, and
    the graph is connected when it has at most one."""
    count = component_count(g.n, g.edges)
    assert is_connected(g) == (count <= 1)
    assert find_bridges(g) == frozenset(
        e for e in g.edges if component_count(g.n, g.edges - {e}) > count)


@given(even_graphs())
@settings(max_examples=120, deadline=None)
def test_even_graphs_have_no_bridges(g):
    assert all(g.degree(v) % 2 == 0 for v in range(g.n))
    assert find_bridges(g) == frozenset()


@given(even_graphs())
@settings(max_examples=120, deadline=None)
def test_even_graph_degree2_vertices_not_cut(g):
    """Deleting a degree-2 vertex leaves its two neighbors connected, so,
    with every edge one color, it lies in exactly one x-block."""
    one_color = EdgeColoredGraph(g.n, {e: 0 for e in g.edges})
    blocks = [b for comp in split_components(one_color)
              for b in x_block_decomposition(comp)]
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        a, b = g.adj[v]
        assert any({a, b} <= c for c in _components_avoiding(g.n, g.edges, v))
        assert sum(v in blk for blk in blocks) == 1


@st.composite
def glued_even_graphs(draw):
    """Two to four `even_graphs`, each glued at one vertex to those before,
    so that the glued vertices are cut vertices, many of degree 4."""
    g = draw(even_graphs(max_n=7))
    n, edges = g.n, set(g.edges)
    for _ in range(draw(st.integers(1, 3))):
        h = draw(even_graphs(max_n=7))
        at = draw(st.integers(0, n - 1))
        ren = [at] + list(range(n, n + h.n - 1))  # h's vertex 0 becomes `at`
        edges |= {edge(ren[u], ren[v]) for u, v in h.edges}
        n += h.n - 1
    return Graph.from_edges(n, edges)


@given(glued_even_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_x_blocks_match_definition_on_even_graphs(g, data):
    """x-blocks of every component, colored with three colors so that
    monochromatic pairs, and so Type X vertices, are common (about a
    quarter of the components have one)."""
    colors = data.draw(st.lists(st.integers(0, 2), min_size=g.m, max_size=g.m))
    cg = EdgeColoredGraph(g.n, dict(zip(sorted(g.edges), colors)))
    for comp in split_components(cg):
        assert x_block_decomposition(comp) == x_blocks_by_definition(comp)
        assert set(comp.type_x_sides) == type_x_by_pseudoblock_splits(comp)


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_type_x_search_on_any_graph(g, data):
    """The Type X search reads any graph, even or not, colored with three
    colors: its components are those of a traversal, and each vertex it
    keeps has degree 4 and two monochromatic pairs of neighbors, each
    within one branch of g - u, in two different branches. A degree-4 cut
    vertex split 3+1 or 2+1+1, which no even graph has, is skipped."""
    colors = data.draw(st.lists(st.integers(0, 2), min_size=g.m, max_size=g.m))
    cg = EdgeColoredGraph(g.n, dict(zip(sorted(g.edges), colors)))
    assert cg.components == tuple(
        frozenset(c) for c in _components_avoiding(g.n, g.edges, -1))
    for u, sides in cg.type_x_sides.items():
        assert cg.degree(u) == 4 and len(sides) == 2
        assert sorted(w for pair in sides for w in pair) == list(cg.adj[u])
        branches = _components_avoiding(g.n, g.edges, u)
        at = []
        for a, b in sides:
            assert cg.color(u, a) == cg.color(u, b)
            (branch,) = [i for i, c in enumerate(branches) if a in c]
            assert b in branches[branch]
            at.append(branch)
        assert at[0] != at[1]


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_triangles_are_the_edge_triples_in_order(g):
    """`triangles` lists every triple of pairwise adjacent vertices once,
    sorted within and in lexicographic order, as `combinations` yields
    them."""
    assert triangles(g) == [
        t for t in itertools.combinations(range(g.n), 3)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(t, 2))]
