"""One benchmark operation: the `cdcover decompose` path on one graph6 line.

The steps and their order follow `cdcover decompose`: parse and validate the
graph6 text, build the colored line graph, decompose it, lift the
decomposition to a cover, check the cover with the independent verifier and
write the cover JSON. A `crosscheck` op then runs the brute-force oracle on
the same graph and applies the agreement rule of `cdcover crosscheck`.

Every program call goes through a module attribute (`linegraph.build_line_graph`
rather than an imported name), so the tracer in `spans.py` can wrap it.
"""
from __future__ import annotations

import json

from cdcover import decomposer, graphs, linegraph, oracle, verify

# `cdcover crosscheck --budget` default, in seconds.
ORACLE_BUDGET_S = 30.0


def parse_validate(text: str):
    """Parse graph6 and reject what `cdcover decompose` rejects."""
    g = graphs.parse_graph6(text)
    if not graphs.is_cubic(g):
        raise graphs.GraphError("graph is not cubic")
    if not graphs.is_connected(g):
        raise graphs.GraphError("graph is not connected")
    if graphs.find_bridges(g):
        raise graphs.GraphError("graph has a bridge")
    return g


def dump_cover(cover, g) -> str:
    """The cover JSON exactly as `cdcover decompose` writes it."""
    return json.dumps(cover.to_json(g), indent=2, sort_keys=True)


def run_op(text: str, crosscheck: bool) -> tuple[str, str | None]:
    """Return (outcome, cover JSON); outcome is "ok" or the failure reason."""
    g = parse_validate(text)
    clg = linegraph.build_line_graph(g)
    trace = decomposer.decompose(clg.lg)
    if not trace.success:
        return f"case_failure:{trace.failure.case}", None
    try:
        cover = linegraph.cover_from_decomposition(clg, trace.cycles)
    except linegraph.LineGraphError:
        return "lift_rejected", None
    if not verify.verify_cdc(g, cover).accepted:
        return "verifier_rejected", None
    out = dump_cover(cover, g)
    if crosscheck:
        status = oracle.brute_force_cdc(g, time_budget=ORACLE_BUDGET_S).status
        if status not in ("found", "indeterminate"):
            return f"oracle_mismatch:{status}", out
    return "ok", out
