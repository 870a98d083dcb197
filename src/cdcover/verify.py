"""Independent validators for every output artifact.

Everything here recomputes from raw adjacency and raw colorings, deliberately
sharing no logic with the constructions it checks. Verifiers are total: any
input yields an accept/reject verdict with witnesses, never a crash, and
reads the rule it checks off the graph alone.
"""
from __future__ import annotations

from .coloring import EdgeColoredGraph
from .graphs import Graph, _Record


class Verdict(_Record):
    def __init__(self, accepted: bool, witnesses: tuple[dict, ...]) -> None:
        self._set(accepted=accepted, witnesses=witnesses)

    def to_json(self) -> dict:
        return {"accepted": self.accepted, "witnesses": list(self.witnesses)}


def _not_a_sequence() -> Verdict:
    """The verdict on a cover or decomposition that is not a list or tuple."""
    return Verdict(False, ({"kind": "cover", "problem": "not a sequence of cycles"},))


def _cycle_vertices(item) -> list | None:
    vs = getattr(item, "vertices", item)
    if not isinstance(vs, (list, tuple)):
        return None
    return list(vs)


def _cycle_problem(g: Graph, vs: list) -> str | None:
    if len(vs) < 3:
        return "shorter than 3 vertices"
    if any(not isinstance(v, int) or isinstance(v, bool) for v in vs):
        return "non-integer vertex"  # JSON true and false are not vertex ids
    if any(v < 0 or v >= g.n for v in vs):
        return "vertex out of range"
    if len(set(vs)) != len(vs):
        return "repeated vertex"
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        if (min(a, b), max(a, b)) not in g.edges:
            return f"missing edge ({min(a, b)}, {max(a, b)})"
    return None


def verify_cdc(g: Graph, cover) -> Verdict:
    """Accept iff every member is a cycle of g and every edge is used twice."""
    items = getattr(cover, "cycles", cover)
    if not isinstance(items, (list, tuple)):
        return _not_a_sequence()
    witnesses: list[dict] = []
    counts = {e: 0 for e in g.edges}
    for idx, item in enumerate(items):
        vs = _cycle_vertices(item)
        if vs is None:
            witnesses.append({"kind": "cycle", "index": idx, "problem": "not a vertex sequence"})
            continue
        problem = _cycle_problem(g, vs)
        if problem:
            witnesses.append({"kind": "cycle", "index": idx,
                              "vertices": vs, "problem": problem})
            continue
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            counts[(min(a, b), max(a, b))] += 1
    for e, k in sorted(counts.items()):
        if k != 2:
            witnesses.append({"kind": "edge", "edge": list(e), "count": k})
    return Verdict(not witnesses, tuple(witnesses))


def _color_runs(g: EdgeColoredGraph, vs: list) -> list[int]:
    return [g.coloring[(min(vs[i], vs[(i + 1) % len(vs)]),
                        max(vs[i], vs[(i + 1) % len(vs)]))]
            for i in range(len(vs))]


def _find_bad_vertex(g: EdgeColoredGraph) -> int | None:
    """The unique degree-2, color-degree-1 vertex, recomputed from scratch."""
    incident: dict[int, list[int]] = {}
    for (u, v), c in g.coloring.items():
        incident.setdefault(u, []).append(c)
        incident.setdefault(v, []).append(c)
    bads = [v for v, cols in incident.items()
            if len(cols) == 2 and len(set(cols)) == 1]
    return bads[0] if len(bads) == 1 else None


def verify_rainbow_decomposition(g: EdgeColoredGraph, cycles) -> Verdict:
    """Accept iff `cycles` partition E(g) with the rainbow typing that g
    asks for: if g has a bad vertex, exactly one member is almost-rainbow,
    with its repeated color on the two edges there, and the rest rainbow;
    otherwise every member is rainbow. The member through a bad vertex uses
    both its edges, which share a color, so no graph admits both typings.
    """
    if not isinstance(cycles, (list, tuple)):
        return _not_a_sequence()
    witnesses: list[dict] = []
    counts = {e: 0 for e in g.graph.edges}
    almost_members: list[int] = []
    for idx, item in enumerate(cycles):
        vs = _cycle_vertices(item)
        problem = None if vs is not None else "not a vertex sequence"
        problem = problem or _cycle_problem(g.graph, vs)
        if problem:
            witnesses.append({"kind": "cycle", "index": idx, "problem": problem})
            continue
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            counts[(min(a, b), max(a, b))] += 1
        cols = _color_runs(g, vs)
        if len(set(cols)) == len(cols):
            continue
        k = len(cols)
        consecutive_repeat = (len(set(cols)) == len(cols) - 1 and
                              any(cols[i] == cols[(i + 1) % k] for i in range(k)))
        if consecutive_repeat:
            almost_members.append(idx)
        else:
            witnesses.append({"kind": "cycle", "index": idx, "vertices": vs,
                              "problem": "not rainbow"})
    for e, k in sorted(counts.items()):
        if k != 1:
            witnesses.append({"kind": "edge", "edge": list(e), "count": k})

    bad = _find_bad_vertex(g)
    if bad is None:
        for idx in almost_members:
            witnesses.append({"kind": "cycle", "index": idx,
                              "problem": "almost-rainbow cycle, but no bad vertex"})
    elif len(almost_members) != 1:
        witnesses.append({"kind": "typing",
                          "problem": f"expected exactly 1 almost-rainbow cycle, "
                                     f"got {len(almost_members)}"})
    else:
        idx = almost_members[0]
        vs = _cycle_vertices(cycles[idx])
        cols = _color_runs(g, vs)
        k = len(cols)
        # the repeat must sit on the two edges at the bad vertex
        if not any(cols[i] == cols[(i + 1) % k] and vs[(i + 1) % k] == bad
                   for i in range(k)):
            witnesses.append({"kind": "typing", "index": idx,
                              "problem": "almost-rainbow repeat is not at the bad vertex"})
    return Verdict(not witnesses, tuple(witnesses))
