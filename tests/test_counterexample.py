"""Regression pin for a good colored graph with no rainbow decomposition.

The 500-instance fuzz reaches (deterministically, instance 106) a 22-edge
good colored graph from which no progress is possible: it satisfies all six
goodness conditions, yet its edges cannot be partitioned into rainbow
cycles at all. The decomposer correctly refuses to guess and returns a
replayable CaseFailure. This file keeps that certificate honest: goodness is
confirmed by two independent checkers, and nonexistence by the exhaustive
oracle and by the tests' reference search, which branches on the lowest
open edge instead.

Contracting the forced Type I chains reduces the graph to a K5 on its five
degree-4 hubs where rainbow cycles correspond exactly to vertex-simple
cycles respecting each hub's color pairing; none of the 32 pairing systems
partitions the 10 chains, which is how the certificate was verified by hand.

A smaller certificate has the same shape: 20 edges on 15 vertices, a K5
whose 10 chains all have 2 edges, met while decomposing the line graph of
n=28 seed 18 under an earlier engine. Every test below checks both.
"""
import math
import re
from pathlib import Path

from cdcover.coloring import check_goodness, parse_colored_edge_list
from cdcover.decomposer import decompose, fallback_search, replay_case_failure
from cdcover.graphs import Cycle
from cdcover.oracle import brute_force_rainbow_decomposition
from oracles import naive_goodness, rainbow_decomposition_by_lowest_edge

FIXTURES = Path(__file__).parent / "fixtures"


def certificates():
    """Both certificates, parsed: the 22-edge one, then the 20-edge one."""
    return [parse_colored_edge_list((FIXTURES / name).read_text())
            for name in ("good_but_undecomposable.txt",
                         "good_but_undecomposable_k5_20.txt")]



def test_certificate_is_good_but_undecomposable():
    for g in certificates():
        rep = check_goodness(g)
        assert rep.verdict.value == "good" and not rep.violations
        assert naive_goodness(g)[0] == "good"
        assert brute_force_rainbow_decomposition(g, math.inf).status == "absent"
        assert rainbow_decomposition_by_lowest_edge(g).status == "absent"
        assert fallback_search(g, rep).status == "absent"


def test_certificate_yields_replayable_case_failure():
    for g in certificates():
        trace = decompose(g)
        assert not trace.success
        assert trace.failure.case == "Case2_2_1a"
        again = replay_case_failure(trace.failure.to_json())
        assert not again.success
        assert again.failure.case == trace.failure.case


def test_certificate_failure_names_a_cycle_of_its_graph():
    """The cycle whose removal failed, two reductions below the root in the
    22-edge certificate and one in the 20-edge one, is named in the ids of
    the graph the failure serializes beside it."""
    for g in certificates():
        failure = decompose(g).failure
        named = re.findall(r"removing \(([\d, ]+)\)", failure.message)
        assert named
        graph = parse_colored_edge_list(failure.graph_text)
        for text in named:
            assert Cycle(tuple(int(v) for v in text.split(", "))).is_cycle_of(graph)
