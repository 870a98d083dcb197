import math

import pytest

from cdcover.coloring import EdgeColoredGraph
from cdcover.graphs import Cycle
from cdcover.verify import Verdict, verify_cdc, verify_rainbow_decomposition
from cdcover.linegraph import build_line_graph
from cdcover.oracle import brute_force_rainbow_decomposition
from graphsamples import almost_good_c4, k4, rainbow_c4

TRIANGLES = [Cycle((0, 1, 2)), Cycle((0, 1, 3)), Cycle((0, 2, 3)), Cycle((1, 2, 3))]


def test_verify_cdc_accepts_triangles():
    assert verify_cdc(k4(), TRIANGLES).accepted


def test_verify_cdc_rejects_missing_cycle():
    verdict = verify_cdc(k4(), TRIANGLES[:3])
    assert not verdict.accepted
    ones = [w for w in verdict.witnesses if w.get("count") == 1]
    assert len(ones) == 3


def test_verify_cdc_accepts_hamiltonians():
    hams = [Cycle((0, 1, 2, 3)), Cycle((0, 1, 3, 2)), Cycle((0, 2, 1, 3))]
    assert verify_cdc(k4(), hams).accepted


def test_verify_cdc_rejects_foreign_vertex():
    verdict = verify_cdc(k4(), [[0, 1, 9]])
    assert not verdict.accepted
    assert any(w["kind"] == "cycle" for w in verdict.witnesses)


def test_verify_cdc_rejects_boolean_vertices():
    # True == 1 and hashes like it, so only its type tells it apart
    cycles = [[True if v == 1 else v for v in c.vertices] for c in TRIANGLES]
    verdict = verify_cdc(k4(), cycles)
    assert not verdict.accepted
    assert [w["problem"] for w in verdict.witnesses if w["kind"] == "cycle"] == [
        "non-integer vertex"] * 3


def test_verify_cdc_accepts_raw_vertex_lists():
    assert verify_cdc(k4(), [list(c.vertices) for c in TRIANGLES]).accepted


def test_verify_rainbow_decomposition_l_k4():
    lg = build_line_graph(k4()).lg
    res = brute_force_rainbow_decomposition(lg, math.inf)
    assert verify_rainbow_decomposition(lg, res.cycles).accepted
    partial = res.cycles[:-1]
    assert not verify_rainbow_decomposition(lg, partial).accepted


def test_verify_rainbow_decomposition_typing():
    """On a graph with a bad vertex, one member is almost-rainbow there."""
    g = almost_good_c4()
    assert verify_rainbow_decomposition(g, [Cycle((0, 1, 2, 3))]).accepted


def test_verify_rainbow_decomposition_good_on_rainbow_c4():
    g = rainbow_c4()
    assert verify_rainbow_decomposition(g, [Cycle((0, 1, 2, 3))]).accepted


def test_verify_rainbow_decomposition_two_color_degree_1_vertices():
    """With two degree-2 vertices whose edges share a color, the graph has
    no bad vertex, so every member must be rainbow: each almost-rainbow
    member is rejected, though each repeats its color at such a vertex."""
    g = EdgeColoredGraph.from_triples(8, [
        (0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 0),
        (4, 5, 4), (5, 6, 5), (6, 7, 6), (4, 7, 4)])
    verdict = verify_rainbow_decomposition(g, [Cycle((0, 1, 2, 3)), Cycle((4, 5, 6, 7))])
    assert not verdict.accepted
    assert [(w["index"], w["problem"]) for w in verdict.witnesses] == [
        (0, "almost-rainbow cycle, but no bad vertex"),
        (1, "almost-rainbow cycle, but no bad vertex")]


# a 4-cycle whose vertex 0 is the bad vertex, its two edges both color 0,
# beside two 4-cycles that share vertex 4 and so give it degree 4; the first
# of them repeats color 4 at vertex 4, the second is rainbow
BAD_AT_0_BESIDE_A_REPEAT_AT_4 = [
    (0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 0),
    (4, 5, 4), (5, 6, 5), (6, 7, 6), (4, 7, 4),
    (4, 8, 8), (8, 9, 9), (9, 10, 10), (4, 10, 11)]


def test_verify_rainbow_decomposition_names_a_malformed_member():
    verdict = verify_rainbow_decomposition(rainbow_c4(), [Cycle((0, 1, 2, 3)), 7])
    assert verdict == Verdict(False, (
        {"kind": "cycle", "index": 1, "problem": "not a vertex sequence"},))


def test_verify_rainbow_decomposition_wants_exactly_one_almost_rainbow_member():
    """With a bad vertex, none or two almost-rainbow members are refused by
    count, whatever else is wrong."""
    two = EdgeColoredGraph.from_triples(11, BAD_AT_0_BESIDE_A_REPEAT_AT_4)
    verdict = verify_rainbow_decomposition(
        two, [Cycle((0, 1, 2, 3)), Cycle((4, 5, 6, 7)), Cycle((4, 8, 9, 10))])
    assert verdict == Verdict(False, (
        {"kind": "typing", "problem": "expected exactly 1 almost-rainbow cycle, got 2"},))
    verdict = verify_rainbow_decomposition(almost_good_c4(), [])
    assert not verdict.accepted
    assert verdict.witnesses[-1] == {
        "kind": "typing", "problem": "expected exactly 1 almost-rainbow cycle, got 0"}
    assert [w["kind"] for w in verdict.witnesses[:-1]] == ["edge"] * 4


def test_verify_rainbow_decomposition_wants_the_repeat_at_the_bad_vertex():
    """The one almost-rainbow member repeats its color at vertex 4, not at
    the bad vertex 0, whose 4-cycle is left out."""
    g = EdgeColoredGraph.from_triples(11, BAD_AT_0_BESIDE_A_REPEAT_AT_4)
    verdict = verify_rainbow_decomposition(g, [Cycle((4, 5, 6, 7)), Cycle((4, 8, 9, 10))])
    uncovered = [{"kind": "edge", "edge": list(e), "count": 0}
                 for e in [(0, 1), (0, 3), (1, 2), (2, 3)]]
    assert verdict == Verdict(False, (*uncovered, {
        "kind": "typing", "index": 0,
        "problem": "almost-rainbow repeat is not at the bad vertex"}))


def test_verifiers_total_on_garbage():
    verdict = verify_cdc(k4(), ["nope", 7, [0], [0, 1, 1]])
    assert not verdict.accepted
    assert len(verdict.witnesses) >= 4


@pytest.mark.parametrize("cover", [None, 5, "cycles", {0: [0, 1, 2]}])
def test_verifiers_reject_a_cover_that_is_not_a_sequence(cover):
    """A cover that is not a list or tuple of cycles is rejected with one
    witness, not a crash."""
    witness = {"kind": "cover", "problem": "not a sequence of cycles"}
    for verdict in (verify_cdc(k4(), cover),
                    verify_rainbow_decomposition(rainbow_c4(), cover)):
        assert verdict == Verdict(False, (witness,))
