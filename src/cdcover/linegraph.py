"""Colored line graphs of cubic graphs and the cycle correspondence.

The line graph L of a cubic graph G has one vertex per edge of G, two
vertices adjacent when their edges share an endpoint, and each L-edge colored
by that shared endpoint. Cycles of G correspond exactly to rainbow cycles of
L, and a partition of E(L) into rainbow cycles lifts to a cycle double cover
of G: L is 4-regular, so a decomposition uses every L-vertex (= G-edge)
exactly twice.
"""
from __future__ import annotations

from .coloring import EdgeColoredGraph
from .graphs import Cycle, Edge, Graph, _Record, edge, is_connected


class LineGraphError(ValueError):
    """Bad input to a line-graph construction or correspondence."""


class ColoredLineGraph(_Record):
    """The colored line graph plus both directions of the correspondence.

    L-vertex ids follow the sorted order of the base graph's edges, and color
    ids equal base-graph vertex ids.
    """

    def __init__(self, base: Graph, lg: EdgeColoredGraph,
                 vertex_of_edge: dict[Edge, int],     # G-edge -> L-vertex id
                 ) -> None:
        self._set(base=base, lg=lg, vertex_of_edge=vertex_of_edge)


class CycleDoubleCover(_Record):
    """Cycles of a graph in which every edge appears exactly twice."""

    def __init__(self, cycles: tuple[Cycle, ...]) -> None:
        self._set(cycles=cycles)

    def edge_counts(self, g: Graph) -> dict[Edge, int]:
        counts = {e: 0 for e in g.edges}
        for c in self.cycles:
            for e in c.edges:
                counts[e] = counts.get(e, 0) + 1
        return counts

    def to_json(self, g: Graph) -> dict:
        return {
            "cycles": [list(c.vertices) for c in self.cycles],
            "edge_counts": [
                {"edge": [u, v], "count": k}
                for (u, v), k in sorted(self.edge_counts(g).items())
            ],
        }


def build_line_graph(g: Graph) -> ColoredLineGraph:
    """Construct the colored line graph of a connected cubic graph."""
    for v in range(g.n):
        if g.degree(v) != 3:
            raise LineGraphError(f"graph is not cubic: vertex {v} has degree {g.degree(v)}")
    if not is_connected(g):
        raise LineGraphError("graph is not connected")
    base_edges = sorted(g.edges)
    vertex_of_edge = {e: i for i, e in enumerate(base_edges)}
    triples = []
    for v in range(g.n):
        nbrs = g.adj[v]
        ids = sorted(vertex_of_edge[edge(v, w)] for w in nbrs)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                triples.append((ids[i], ids[j], v))
    lg = EdgeColoredGraph.from_triples(len(base_edges), triples)
    return ColoredLineGraph(g, lg, vertex_of_edge)


def lift_rainbow_cycle(clg: ColoredLineGraph, c: Cycle) -> Cycle:
    """Map a rainbow cycle of L to the base-graph cycle it encodes.

    The lifted cycle's vertices are the colors of consecutive L-edges; its
    edge set is exactly the set of G-edges named by the L-vertices of c:
    each L-vertex x meets its two edges on c in two colors a != b, and
    both are endpoints of the G-edge x, so x = {a, b}. Refuses a c that is
    not a cycle of L, or not rainbow, with the messages
    `cover_from_decomposition` gives for a decomposition member.
    """
    if not c.is_cycle_of(clg.lg):
        raise LineGraphError(f"not a cycle of the line graph: {c.vertices}")
    cols = [clg.lg.coloring[e] for e in c.edges]
    if len(set(cols)) != len(cols):
        raise LineGraphError(f"decomposition member is not rainbow: {c.vertices}")
    return Cycle(tuple(cols))


def project_cycle(clg: ColoredLineGraph, c: Cycle) -> Cycle:
    """Map a base-graph cycle to the rainbow L-cycle on its edges."""
    if not c.is_cycle_of(clg.base):
        raise LineGraphError(f"not a cycle of the base graph: {c.vertices}")
    return Cycle(tuple(clg.vertex_of_edge[e] for e in c.edges))


def cover_from_decomposition(clg: ColoredLineGraph, cycles) -> CycleDoubleCover:
    """Lift a rainbow cycle decomposition of L to a verified CDC of the base.

    Re-verifies the decomposition, each member once: `lift_rainbow_cycle`
    checks that it is a rainbow cycle of L; here, that the members are
    edge-disjoint and that their union is E(L). The double cover follows:
    a partition of the 4-regular L into cycles passes each L-vertex
    exactly twice, and each lift runs on the base edges its L-vertices
    name.
    """
    lifted = []
    used: set[Edge] = set()
    for c in cycles:
        if not isinstance(c, Cycle):
            raise LineGraphError(f"not a cycle of the line graph: {c}")
        lifted.append(lift_rainbow_cycle(clg, c))
        overlap = used.intersection(c.edges)
        if overlap:
            raise LineGraphError(f"decomposition reuses line-graph edge {min(overlap)}")
        used.update(c.edges)
    missing = clg.lg.edges - used
    if missing:
        raise LineGraphError(f"not a partition of the line graph's edges: "
                             f"{min(missing)} uncovered")
    return CycleDoubleCover(tuple(lifted))
