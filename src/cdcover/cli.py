"""Command-line front end.

Subcommands: `decompose` (cubic bridgeless graph -> verified cycle double
cover), `replay` (re-run the case failure of a `decompose` trace or a
`crosscheck` artifact), `verify` (check a cover file), `oracle`
(brute-force search), `gen` (random cubic bridgeless graphs), and
`crosscheck` (generate, solve both ways, and compare).

Exit codes: 0 success / definitive answer, 1 input, output or usage
error, 2 case failure or verification mismatch (a cover from `decompose`
or `oracle` that the independent verifier rejects), 3 indeterminate
oracle search.
Every refusal of an input, an output or an option exits 1 and prints exactly
one `error: <message>` line on stderr and nothing on stdout; only a
`--trace -` written before an unwritable `--output` stays on stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .decomposer import DecomposeError, decompose, replay_case_failure
from .graphs import (
    Cycle,
    Graph,
    GraphError,
    find_bridges,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)
from .linegraph import (
    ColoredLineGraph,
    LineGraphError,
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

class _Refused(Exception):
    """Input, output or an option that a command refuses; `main` prints it
    as one `error: <message>` line on stderr and exits 1."""


def _name(path: str) -> str:
    """How a refusal names the input at `path`: "stdin" for "-"."""
    return "stdin" if path == "-" else path


def _read_text(path: str) -> str:
    """The text of the file at `path`, read as UTF-8, or of stdin for "-"."""
    name = _name(path)
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        raise _Refused(f"{name}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise _Refused(f"{name}: not {err.encoding} text "
                       f"({err.reason} at byte {err.start})") from None


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at `path`, as UTF-8, or to stdout for None or
    "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as err:
        raise _Refused(f"{path}: {err.strerror or err}") from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_graph(path: str) -> Graph:
    """The one graph in the file at `path`: edge-list text when its first
    line that is neither blank nor a `#` comment holds two or more tokens,
    else graph6, whose lines are single tokens. A graph6 file holding more
    than one graph is refused, not read as its first graph."""
    text = _read_text(path)
    lines = [s for ln in text.splitlines() if (s := ln.strip())]
    first = next((s for s in lines if not s.startswith("#")), "")
    try:
        if len(first.split()) > 1:
            return parse_edge_list(text)
        if len(lines) > 1:
            raise GraphError(f"expected one graph6 line, got {len(lines)}")
        return parse_graph6(lines[0] if lines else "")
    except GraphError as err:
        raise _Refused(f"{_name(path)}: {err}") from None


def _bridgeless_line_graph(g: Graph) -> ColoredLineGraph:
    """The colored line graph of g; refused unless g is cubic, connected
    (both checked by `build_line_graph`) and bridgeless."""
    try:
        clg = build_line_graph(g)
    except LineGraphError as err:
        raise _Refused(str(err)) from None
    bridges = find_bridges(g)
    if bridges:
        raise _Refused(f"graph has a bridge: {sorted(bridges)[0]}")
    return clg


def _check_budget(budget: float) -> None:
    """Refuse an oracle --budget in seconds that is not finite and above 0."""
    if not (math.isfinite(budget) and budget > 0):
        raise _Refused(
            f"--budget must be a finite number of seconds above 0, got {budget}")


def _check_count(count: int) -> None:
    if count < 0:
        raise _Refused(f"--count must be at least 0, got {count}")


def _print_case_failure(trace) -> None:
    print(f"case failure in {trace.failure.case}: {trace.failure.message}",
          file=sys.stderr)


def cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    clg = _bridgeless_line_graph(g)
    prescribed = None
    if args.goddyn_cycle is not None:
        try:
            vs = tuple(int(t) for t in args.goddyn_cycle.replace(",", " ").split())
            first = Cycle(vs)
        except ValueError as err:  # GraphError included
            raise _Refused(f"bad --goddyn-cycle: {err}") from None
        if not first.is_cycle_of(g):
            raise _Refused(f"--goddyn-cycle {vs} is not a cycle of the input graph")
        prescribed = project_cycle(clg, first)
    trace = decompose(clg.lg, prescribed)

    if args.trace:
        _write_text(args.trace, _dump(trace.to_json()))
    if not trace.success:
        _print_case_failure(trace)
        if not args.trace:
            _write_text(None, _dump(trace.to_json()))
        return 2
    try:
        cover = cover_from_decomposition(clg, trace.cycles)
    except LineGraphError as err:
        print(f"error: produced decomposition failed verification: {err}",
              file=sys.stderr)
        return 2
    verdict = verify_cdc(g, cover)
    if not verdict.accepted:
        print("error: cover rejected by the independent verifier", file=sys.stderr)
        _write_text(None, _dump(verdict.to_json()))
        return 2
    _write_text(args.output, _dump(cover.to_json(g)))
    return 0


def cmd_replay(args) -> int:
    """Replay the case failure of a trace, or of the trace that a
    crosscheck artifact holds under "trace"; print the new trace."""
    name = _name(args.input)
    try:
        data = json.loads(_read_text(args.input))
    except json.JSONDecodeError as err:
        raise _Refused(f"{name}: not JSON: {err}") from None
    if isinstance(data, dict) and "trace" in data:
        data = data["trace"]
    outcome = data.get("outcome") if isinstance(data, dict) else None
    try:
        trace = replay_case_failure(outcome)
    except DecomposeError as err:
        raise _Refused(f"{name}: {err}") from None
    if not trace.success:
        _print_case_failure(trace)
    _write_text(None, _dump(trace.to_json()))
    return 0 if trace.success else 2


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    name = _name(args.cover)
    try:
        payload = json.loads(_read_text(args.cover))
    except json.JSONDecodeError as err:
        raise _Refused(f"{name}: not JSON: {err}") from None
    cycles = payload.get("cycles") if isinstance(payload, dict) else payload
    if not isinstance(cycles, list):
        raise _Refused(f'{name}: cover must be a JSON list of cycles or an '
                       f'object with a "cycles" list')
    verdict = verify_cdc(g, cycles)
    _write_text(None, _dump(verdict.to_json()))
    return 0 if verdict.accepted else 1


def cmd_oracle(args) -> int:
    _check_budget(args.budget)
    g = _load_graph(args.input)
    if args.mode == "cdc":
        result = brute_force_cdc(g, time_budget=args.budget)
        verdict = verify_cdc(g, result.cycles) if result.found else None
    else:
        lg = _bridgeless_line_graph(g).lg
        result = brute_force_rainbow_decomposition(lg, time_budget=args.budget)
        verdict = (verify_rainbow_decomposition(lg, result.cycles)
                   if result.found else None)
    if verdict is not None and not verdict.accepted:
        print("error: oracle cover rejected by the independent verifier", file=sys.stderr)
        _write_text(None, _dump(verdict.to_json()))
        return 2
    print(result.status)
    return 0 if result.status in ("found", "absent") else 3


def cmd_gen(args) -> int:
    _check_count(args.count)
    try:
        lines = []
        for i in range(args.count):
            cfg = GeneratorConfig(args.n, args.seed + i)
            lines.append(serialize_graph6(random_cubic_bridgeless(cfg)))
    except GraphError as err:
        raise _Refused(str(err)) from None
    _write_text(args.output, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def cmd_crosscheck(args) -> int:
    import random

    if args.n_max < 4 or args.n_max % 2:
        raise _Refused(f"--n-max must be an even integer >= 4, got {args.n_max}")
    _check_count(args.count)
    _check_budget(args.budget)
    rng = random.Random(args.seed)
    sizes = list(range(4, args.n_max + 1, 2))
    art_dir = "crosscheck-artifacts"
    rows = []
    bad = 0
    for idx in range(args.count):
        n = sizes[rng.randrange(len(sizes))]
        gseed = rng.getrandbits(32)
        g = random_cubic_bridgeless(GeneratorConfig(n, gseed))
        clg = build_line_graph(g)
        trace = decompose(clg.lg)
        if trace.success:
            try:
                cover = cover_from_decomposition(clg, trace.cycles)
            except LineGraphError:
                dec = "lift_rejected"
            else:
                dec = "success" if verify_cdc(g, cover).accepted else "unverified"
        else:
            dec = "case_failure"
        oracle = brute_force_cdc(g, time_budget=args.budget)
        ora = oracle.status
        if oracle.found and not verify_cdc(g, oracle.cycles).accepted:
            ora = "unverified"
        agree = dec == "success" and ora in ("found", "indeterminate")
        if not agree:
            bad += 1
            try:
                os.makedirs(art_dir, exist_ok=True)
            except OSError as err:
                raise _Refused(f"{art_dir}: {err.strerror or err}") from None
            art = {"index": idx, "n": n, "seed": gseed,
                   "graph6": serialize_graph6(g), "decompose": dec,
                   "oracle": ora, "trace": trace.to_json()}
            _write_text(os.path.join(art_dir, f"crosscheck_{idx:04d}.json"), _dump(art))
        rows.append((idx, n, gseed, dec, ora, "ok" if agree else "MISMATCH"))
    print(f"{'idx':>4} {'n':>3} {'seed':>10} {'decompose':>13} {'oracle':>13} verdict")
    for row in rows:
        print(f"{row[0]:>4} {row[1]:>3} {row[2]:>10} {row[3]:>13} {row[4]:>13} {row[5]}")
    print(f"{args.count} instances, {bad} mismatches")
    return 2 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cdcover",
        description="Cycle double covers of cubic bridgeless graphs via "
                    "rainbow cycle decompositions of colored line graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compute a verified cycle double cover")
    p.add_argument("--input", required=True, help="graph file, or - for stdin")
    p.add_argument("--goddyn-cycle", default=None, metavar="V0,V1,...",
                   help="cycle of the input graph the cover must contain")
    p.add_argument("--output", default=None, help="cover JSON (default stdout)")
    p.add_argument("--trace", default=None, help="write the decomposition trace JSON")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("replay", help="re-run a serialized case failure")
    p.add_argument("--input", required=True,
                   help="trace JSON from decompose, or a crosscheck artifact; "
                        "- for stdin")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("verify", help="verify a cover file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force search for covers")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["cdc", "rainbow"], default="cdc",
                   help="cdc on the graph, or rainbow on its line graph")
    p.add_argument("--budget", type=float, default=60.0, help="seconds")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate random cubic bridgeless graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("crosscheck", help="generate, decompose, and cross-check")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--budget", type=float, default=30.0,
                   help="oracle seconds per instance")
    p.set_defaults(func=cmd_crosscheck)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error, which here means a case failure
        return 1 if err.code else 0
    try:
        return args.func(args)
    except _Refused as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
