"""The package's public records behave as values: equal, and hashed alike,
field by field and only within one class; shown as `Name(field=value, ...)`;
closed to assignment and deletion; with their defaults; and refusing what
their constructors refuse, with the same messages. Their cached facts are
computed once per record, into its `__dict__`."""
import pytest

from cdcover.coloring import EdgeColoredGraph, GoodnessReport, GoodnessVerdict, Violation
from cdcover.decomposer import CaseFailure, DecompositionTrace, TraceStep
from cdcover.graphs import Cycle, Graph, GraphError, _Record, cached_property
from cdcover.linegraph import ColoredLineGraph, CycleDoubleCover
from cdcover.oracle import GeneratorConfig, SearchResult
from cdcover.verify import Verdict

TRI = Cycle((2, 0, 1))
AT_2 = GoodnessReport(GoodnessVerdict.ALMOST_GOOD, 2, (Violation(4, "vertex", 2),))


def samples():
    """(fields, build) for each public record: its field values in order,
    and its class. Each call builds new objects."""
    edge_graph = Graph(2, frozenset({(0, 1)}))
    step = TraceStep("BaseCycle", Cycle((0, 1, 2)), AT_2)
    return [
        ((3, frozenset({(0, 1), (1, 2)})), Graph),
        (((0, 1, 2),), Cycle),
        ((2, {(0, 1): 5}), EdgeColoredGraph),
        ((4, "vertex", 2), Violation),
        ((GoodnessVerdict.ALMOST_GOOD, 2, (Violation(4, "vertex", 2),)), GoodnessReport),
        ((edge_graph, EdgeColoredGraph(1, {}), {(0, 1): 0}),
         ColoredLineGraph),
        (((Cycle((0, 1, 2)),),), CycleDoubleCover),
        ((6, 1), GeneratorConfig),
        (("found", (Cycle((0, 1, 2)),)), SearchResult),
        ((False, ({"kind": "cover"},)), Verdict),
        (("BaseCycle", Cycle((0, 1, 2)), AT_2), TraceStep),
        (("Fallback", "n 3\n", "no cycle", Cycle((0, 1, 2)), AT_2, Cycle((0, 1, 2))),
         CaseFailure),
        (((step,), (Cycle((0, 1, 2)),), None), DecompositionTrace),
    ]


FIELDS = {
    "Graph": ("n", "edges"),
    "Cycle": ("vertices",),
    "EdgeColoredGraph": ("n", "coloring"),
    "Violation": ("condition", "kind", "witness"),
    "GoodnessReport": ("verdict", "bad_vertex", "violations"),
    "ColoredLineGraph": ("base", "lg", "vertex_of_edge"),
    "CycleDoubleCover": ("cycles",),
    "GeneratorConfig": ("vertex_count", "seed"),
    "SearchResult": ("status", "cycles"),
    "Verdict": ("accepted", "witnesses"),
    "TraceStep": ("case", "cycle", "goodness"),
    "CaseFailure": ("case", "graph_text", "message", "cycle", "goodness", "prescribed"),
    "DecompositionTrace": ("steps", "cycles", "failure"),
}

RECORDS = [cls for _, cls in samples()]
NAMES = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=NAMES)
def test_equality_is_field_wise(index):
    fields, cls = samples()[index]
    again, _ = samples()[index]
    a, b = cls(*fields), cls(*again)
    assert a == b and not a != b
    assert a is not b
    assert a != fields and not a == fields  # not a tuple of its fields


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=NAMES)
def test_keyword_construction(index):
    fields, cls = samples()[index]
    names = FIELDS[cls.__name__]
    assert cls(**dict(zip(names, fields))) == cls(*fields)


def test_records_differ_by_any_field():
    assert Graph(3, frozenset()) != Graph(4, frozenset())
    assert Graph(3, frozenset()) != Graph(3, frozenset({(0, 1)}))
    assert Cycle((0, 1, 2)) != Cycle((0, 1, 3))
    assert Violation(4, "vertex", 2) != Violation(4, "vertex", 3)
    assert GoodnessReport(GoodnessVerdict.GOOD, None, ()) != AT_2
    assert EdgeColoredGraph(2, {(0, 1): 5}) != EdgeColoredGraph(2, {(0, 1): 6})
    assert EdgeColoredGraph(2, {}) != EdgeColoredGraph(3, {})
    assert CaseFailure("X", "t", "m", None, None, None) != \
        CaseFailure("X", "t", "m", None, None, TRI)
    assert Verdict(True, ()) != Verdict(False, ())
    assert SearchResult("absent") != SearchResult("indeterminate")


def test_records_of_two_classes_with_equal_values_differ():
    pairs = [
        Graph(4, frozenset()), GeneratorConfig(4, frozenset()),
        SearchResult(4, frozenset()), Verdict(4, frozenset())]
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            assert a != b and not a == b
    assert Cycle((0, 1, 2)) != CycleDoubleCover((0, 1, 2))
    # a colored graph is a Graph, but never equal to a plain one
    assert EdgeColoredGraph(2, {(0, 1): 5}) != Graph(2, frozenset({(0, 1)}))
    assert GoodnessReport(4, "vertex", 2) != Violation(4, "vertex", 2)
    assert Violation(4, "vertex", 2) != TraceStep(4, "vertex", 2)


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=NAMES)
def test_hash_is_the_hash_of_the_fields(index):
    """Equal records hash alike, and a record hashes as the tuple of its
    fields does (`EdgeColoredGraph` hashes its coloring's items), so sets
    of records iterate in the same order from run to run."""
    fields, cls = samples()[index]
    a, b = cls(*fields), cls(*samples()[index][0])
    if cls in (ColoredLineGraph, Verdict):  # a dict field or witness
        with pytest.raises(TypeError):
            hash(a)
        return
    key = tuple(getattr(a, f) for f in FIELDS[cls.__name__])
    if cls is EdgeColoredGraph:
        key = (a.n, frozenset(a.coloring.items()))
    assert hash(a) == hash(b) == hash(key)
    assert len({a, b}) == 1


def test_hash_of_records_with_empty_fields():
    assert hash(Verdict(True, ())) == hash(Verdict(True, ())) == hash((True, ()))
    assert hash(SearchResult("absent")) == hash(("absent", None))


REPRS = [
    (Graph(3, frozenset({(0, 1)})), "Graph(n=3, edges=frozenset({(0, 1)}))"),
    (Cycle((2, 0, 1)), "Cycle(vertices=(0, 1, 2))"),
    (EdgeColoredGraph(2, {(0, 1): 5}), "EdgeColoredGraph(n=2, coloring={(0, 1): 5})"),
    (Violation(6, "triangle", (0, 1, 2)),
     "Violation(condition=6, kind='triangle', witness=(0, 1, 2))"),
    (AT_2, "GoodnessReport(verdict=<GoodnessVerdict.ALMOST_GOOD: 'almost_good'>, "
           "bad_vertex=2, violations=(Violation(condition=4, kind='vertex', witness=2),))"),
    (ColoredLineGraph(Graph(0, frozenset()), EdgeColoredGraph(0, {}), {}),
     "ColoredLineGraph(base=Graph(n=0, edges=frozenset()), lg=EdgeColoredGraph("
     "n=0, coloring={}), vertex_of_edge={})"),
    (CycleDoubleCover((TRI,)), "CycleDoubleCover(cycles=(Cycle(vertices=(0, 1, 2)),))"),
    (GeneratorConfig(6, 1), "GeneratorConfig(vertex_count=6, seed=1)"),
    (SearchResult("absent"), "SearchResult(status='absent', cycles=None)"),
    (Verdict(False, ({"kind": "cover"},)),
     "Verdict(accepted=False, witnesses=({'kind': 'cover'},))"),
    (TraceStep("BaseCycle", TRI, GoodnessReport(GoodnessVerdict.GOOD, None, ())),
     "TraceStep(case='BaseCycle', cycle=Cycle(vertices=(0, 1, 2)), goodness="
     "GoodnessReport(verdict=<GoodnessVerdict.GOOD: 'good'>, bad_vertex=None, "
     "violations=()))"),
    (CaseFailure("Fallback", "n 3\n", "no cycle", None, None, None),
     "CaseFailure(case='Fallback', graph_text='n 3\\n', message='no cycle', "
     "cycle=None, goodness=None, prescribed=None)"),
    (DecompositionTrace((), (TRI,)),
     "DecompositionTrace(steps=(), cycles=(Cycle(vertices=(0, 1, 2)),), failure=None)"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[r.__class__.__name__ for r, _ in REPRS])
def test_repr(record, text):
    assert repr(record) == text


def test_every_public_record_has_a_pinned_repr():
    assert sorted(r.__class__.__name__ for r, _ in REPRS) == sorted(NAMES)


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=NAMES)
def test_assignment_and_deletion_raise(index):
    fields, cls = samples()[index]
    rec = cls(*fields)
    for name in FIELDS[cls.__name__]:
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, before)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is before
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert not hasattr(rec, "extra")


def test_defaults():
    assert SearchResult("absent").cycles is None
    assert DecompositionTrace((), (TRI,)).failure is None


@pytest.mark.parametrize("build, error, message", [
    (lambda: Cycle((0, 1)), GraphError, "cycle needs at least 3 vertices, got (0, 1)"),
    (lambda: Cycle(()), GraphError, "cycle needs at least 3 vertices, got ()"),
    (lambda: Cycle((0, 1, 0)), GraphError, "repeated vertex in cycle (0, 1, 0)"),
    (lambda: Graph(-1, frozenset()), GraphError, "negative vertex count -1"),
    (lambda: Graph(3, frozenset({(0, 3)})), GraphError, "edge (0, 3) out of range for n=3"),
    (lambda: Graph(3, frozenset({(1, 0)})), GraphError, "edge (1, 0) out of range for n=3"),
    (lambda: Graph(3, frozenset({(0, 1, 2)})), GraphError, "bad edge (0, 1, 2)"),
    (lambda: EdgeColoredGraph(3, {(0, 1): 0, (1, 3): 1}), GraphError,
     "edge (1, 3) out of range for n=3"),
    (lambda: EdgeColoredGraph(-1, {}), GraphError, "negative vertex count -1"),
    (lambda: GeneratorConfig(7, 0), GraphError,
     "cubic graphs need an even vertex count >= 4, got 7"),
    (lambda: GeneratorConfig(2, 0), GraphError,
     "cubic graphs need an even vertex count >= 4, got 2"),
], ids=["cycle-short", "cycle-empty", "cycle-repeat", "graph-negative-n",
        "graph-edge-range", "graph-edge-order", "graph-bad-edge", "colored-edge-range",
        "colored-negative-n", "generator-odd", "generator-small"])
def test_constructor_refusals(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_cached_facts_are_computed_once_into_the_instance_dict():
    """`cached_property` computes a fact on its first read, once per
    record, and stores it in the record's `__dict__`, where later reads
    find it; read from the class, it is the descriptor, with the fact's
    docstring. The record stays closed to assignment and deletion, and its
    cached facts take no part in its equality."""
    computed = []

    class Probe(_Record):
        def __init__(self, x: int) -> None:
            self._set(x=x)

        @cached_property
        def double(self) -> int:
            """Twice x."""
            computed.append(self.x)
            return 2 * self.x

    a, b = Probe(3), Probe(4)
    assert "double" not in a.__dict__
    assert (a.double, a.double, b.double, b.double) == (6, 6, 8, 8)
    assert computed == [3, 4]
    assert a.__dict__ == {"x": 3, "double": 6}
    assert isinstance(Probe.double, cached_property)
    assert Probe.double.__doc__ == "Twice x."
    for name in ("double", "x"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.double == 6 and computed == [3, 4]
    assert a == Probe(3) and hash(a) == hash(Probe(3))


def test_package_facts_are_cached_by_the_lock_free_descriptor():
    g = EdgeColoredGraph(3, {(0, 1): 0, (1, 2): 1, (0, 2): 2})
    for cls, name in [(Graph, "adj"), (Graph, "connectivity"), (Cycle, "edges"),
                      (EdgeColoredGraph, "components"), (EdgeColoredGraph, "type_x_sides"),
                      (EdgeColoredGraph, "type1"), (EdgeColoredGraph, "rainbow_triangle"),
                      (EdgeColoredGraph, "singular_chains")]:
        fact = getattr(cls, name)
        assert isinstance(fact, cached_property) and fact.__doc__ == fact.func.__doc__
    assert g.adj is g.adj is g.__dict__["adj"]
    assert g.rainbow_triangle is g.__dict__["rainbow_triangle"] == TRI
    assert TRI.edges is TRI.__dict__["edges"]
