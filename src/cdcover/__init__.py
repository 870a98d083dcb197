"""Cycle double covers of cubic bridgeless graphs.

The pipeline: build the vertex-colored line graph of a cubic graph, decompose
its edges into rainbow cycles by an inductive case analysis over "good"
edge-colored graphs, and lift the decomposition back to a verified cycle
double cover. Brute-force oracles and independent verifiers certify results
on small instances, and any step that fails its runtime verification ends in
a replayable CaseFailure rather than an unverified answer.
"""
from .coloring import (
    EdgeColoredGraph,
    GoodnessReport,
    GoodnessVerdict,
    check_goodness,
    parse_colored_edge_list,
    serialize_colored_edge_list,
)
from .decomposer import (
    CaseFailure,
    DecompositionTrace,
    decompose,
    replay_case_failure,
)
from .graphs import (
    Cycle,
    Graph,
    GraphError,
    find_bridges,
    is_cubic,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from .linegraph import (
    ColoredLineGraph,
    CycleDoubleCover,
    build_line_graph,
    cover_from_decomposition,
    project_cycle,
)
from .oracle import (
    GeneratorConfig,
    brute_force_cdc,
    brute_force_rainbow_decomposition,
    random_cubic_bridgeless,
)
from .verify import verify_cdc, verify_rainbow_decomposition

__all__ = [
    "CaseFailure",
    "ColoredLineGraph",
    "Cycle",
    "CycleDoubleCover",
    "DecompositionTrace",
    "EdgeColoredGraph",
    "GeneratorConfig",
    "GoodnessReport",
    "GoodnessVerdict",
    "Graph",
    "GraphError",
    "brute_force_cdc",
    "brute_force_rainbow_decomposition",
    "build_line_graph",
    "check_goodness",
    "cover_from_decomposition",
    "decompose",
    "find_bridges",
    "is_cubic",
    "parse_colored_edge_list",
    "parse_edge_list",
    "parse_graph6",
    "project_cycle",
    "random_cubic_bridgeless",
    "replay_case_failure",
    "serialize_colored_edge_list",
    "serialize_graph6",
    "verify_cdc",
    "verify_rainbow_decomposition",
]
