"""Named graphs and colored-graph hosts shared across the test suite."""
from __future__ import annotations

import random

from cdcover.coloring import EdgeColoredGraph
from cdcover.graphs import Graph


def k4() -> Graph:
    return Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def two_k4s() -> Graph:
    """Two disjoint K4s: cubic and bridgeless, but not connected."""
    return Graph.from_edges(8, [(a + s, b + s) for s in (0, 4)
                                for a in range(4) for b in range(a + 1, 4)])


def k33() -> Graph:
    return Graph.from_edges(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def prism() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def bridged_cubic_10() -> Graph:
    """The unique bridged connected cubic graph on 10 vertices: two copies of
    K4-with-one-edge-subdivided joined at their degree-2 vertices."""
    def gadget(base: int) -> list[tuple[int, int]]:
        a, b, c, d, s = (base + i for i in range(5))
        return [(a, c), (a, d), (b, c), (b, d), (c, d), (a, s), (b, s)]
    return Graph.from_edges(10, gadget(0) + gadget(5) + [(4, 9)])


def two_squares_type_x() -> EdgeColoredGraph:
    """Two squares sharing vertex 0, each pair at 0 monochromatic: 0 is Type X."""
    return EdgeColoredGraph.from_triples(7, [
        (0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 0),
        (0, 4, 5), (4, 5, 6), (5, 6, 7), (0, 6, 5),
    ])


def square_chain(k: int) -> EdgeColoredGraph:
    """k squares joined corner to corner, every interior joint Type X.

    Each square's edge pairs are anchored at its entry and exit corners, so
    both pairs at a joint are monochromatic into their squares.
    """
    triples = []
    for i in range(k):
        entry, b, d, exit_ = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        triples += [(entry, b, 2 * i), (entry, d, 2 * i),
                    (exit_, b, 2 * i + 1), (exit_, d, 2 * i + 1)]
    return EdgeColoredGraph.from_triples(3 * k + 1, triples)


def pentagons_on_a_hexagon(joints: tuple[int, ...]) -> EdgeColoredGraph:
    """A hexagon 0..5 with a pentagon hung at each of `joints`, no two of
    them adjacent. At a joint both pairs, the hexagon's and the
    pentagon's, are monochromatic, so the joints are the Type X vertices,
    and conditions 1-5 hold with no vertex of color degree 1."""
    color = {j: j for j in range(6)}  # hexagon edge j joins j and j + 1
    for j in joints:
        color[j] = color[(j - 1) % 6]
    triples = [(j, (j + 1) % 6, color[j]) for j in range(6)]
    for k, j in enumerate(joints):
        a, b, c, d = range(6 + 4 * k, 10 + 4 * k)
        triples += [(j, a, 6 + 4 * k), (j, d, 6 + 4 * k), (a, b, 7 + 4 * k),
                    (b, c, 8 + 4 * k), (c, d, 9 + 4 * k)]
    return EdgeColoredGraph.from_triples(6 + 4 * len(joints), triples)


def almost_good_c4() -> EdgeColoredGraph:
    return EdgeColoredGraph.from_triples(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                             (0, 3, 0)])


def rainbow_c4() -> EdgeColoredGraph:
    return EdgeColoredGraph.from_triples(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2),
                                             (0, 3, 3)])


def case1_1_host() -> EdgeColoredGraph:
    """Almost-good host whose first reduction contracts the bad triangle."""
    return EdgeColoredGraph.from_triples(7, [
        (0, 1, 0), (0, 2, 0), (1, 2, 0),
        (1, 3, 1), (1, 4, 1),
        (2, 5, 2), (2, 6, 2),
        (3, 5, 3), (4, 6, 4),
    ])


def case1_2_host() -> EdgeColoredGraph:
    """Almost-good host with non-adjacent Type I flanks at the bad vertex."""
    return EdgeColoredGraph.from_triples(8, [
        (0, 1, 0), (0, 2, 0),
        (1, 3, 1), (2, 4, 2),
        (3, 5, 1), (4, 5, 2),
        (3, 6, 3), (3, 7, 3),
        (4, 6, 4), (4, 7, 4),
    ])


def case2_2_2d_host() -> EdgeColoredGraph:
    """Good host whose first step is the doubly-shared rectangle.

    The rectangle pattern at vertex 0 closes through three monochromatic
    triangles with Type I satellites, so no earlier case preempts it.
    """
    al, be, ga, de, ze, ta, si, rh, up, ka, la, mu, pi, xi, ch, ps = range(100, 116)
    return EdgeColoredGraph.from_triples(24, [
        (0, 1, al), (0, 2, be), (1, 3, al), (1, 4, ga), (1, 5, ga),
        (2, 4, be), (2, 3, de), (2, 6, de),
        (5, 7, ze), (6, 10, ka),
        (7, 8, ta), (8, 9, ta), (7, 9, ta),
        (10, 11, up), (11, 12, up), (10, 12, up),
        (13, 14, xi), (14, 15, xi), (13, 15, xi),
        (7, 16, ze), (10, 16, ka),
        (8, 17, si), (11, 17, la),
        (8, 18, si), (13, 18, pi),
        (9, 19, rh), (13, 19, pi),
        (9, 20, rh), (14, 20, ch),
        (11, 21, la), (14, 21, ch),
        (12, 22, mu), (15, 22, ps),
        (12, 23, mu), (15, 23, ps),
    ])


def mutate_coloring(g: EdgeColoredGraph, rng: random.Random) -> EdgeColoredGraph:
    """Random local damage: recolor, delete, or add one edge."""
    triples = [(u, v, c) for (u, v), c in sorted(g.coloring.items())]
    colors = sorted({c for _, _, c in triples}) or [0]
    move = rng.randrange(3)
    if move == 0 and triples:
        i = rng.randrange(len(triples))
        u, v, _ = triples[i]
        triples[i] = (u, v, rng.choice(colors + [max(colors) + 1]))
    elif move == 1 and triples:
        triples.pop(rng.randrange(len(triples)))
    else:
        present = {(u, v) for u, v, _ in triples}
        for _ in range(20):
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            if u != v and (min(u, v), max(u, v)) not in present:
                triples.append((min(u, v), max(u, v), rng.choice(colors)))
                break
    return EdgeColoredGraph.from_triples(g.n, triples)
