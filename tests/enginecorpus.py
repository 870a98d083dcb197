"""One recorded run of the engine over a fixed corpus, shared by the tests.

`corpus()` decomposes the line graph of every (n, seed, fallback cap) in
`RUNS`, once per session, under `recording()`, and a run with a cap under
`fallback_capped` as well. `recording()` wraps the engine points the tests
read and appends each call, as it starts, to one log:

  * `_dispatch`, and each reduction function in `REDUCTIONS`; a reduction
    the engine gets from `_dispatch` has its lift wrapped, so the call that
    made it points at the lift's call, whose argument is the list of child
    cycles the engine handed it;
  * `_check_removal`, with the function that called it and the `_Checked`
    it returned or the error it raised, and `_Frame.take`, which applies
    one, with the graph it is applied to;
  * `check_goodness`, `report_after_removal`, `EdgeColoredGraph.edit`,
    `_build_transform`, the Type X search `_cut_search`, `_verified_trace`
    and `fallback_search`.

A call's inner calls are the log between its own entry and its return, so
a test of the form "made no X while doing Y" reads `Call.inner` of Y.
Tests read the log and assert over every record of a kind; a test that
checks each record against a slow reference says in its docstring if it
reads only some of them.
"""
from __future__ import annotations

import functools
import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import pytest

import cdcover.coloring as C
import cdcover.decomposer as D
from cdcover.coloring import EdgeColoredGraph
from cdcover.linegraph import ColoredLineGraph, build_line_graph
from cdcover.oracle import GeneratorConfig, random_cubic_bridgeless

# the `small-default` benchmark's graphs (n = 20, seeds 0-69), n = 10..24
# with seeds 0-4 and n = 40 with seeds 0-2, with the fallback uncapped; then
# the n = 10..20, seeds 0-4 again with the fallback capped at 6 vertices,
# whose traces the trace digest pins with the uncapped ones
RUNS = tuple(dict.fromkeys(
    [(20, seed, None) for seed in range(70)]
    + [(n, seed, None) for n in range(10, 25, 2) for seed in range(5)]
    + [(40, seed, None) for seed in range(3)]
    + [(n, seed, 6) for n in range(10, 21, 2) for seed in range(5)]))

# the decomposer's functions that build a CaseReduction
REDUCTIONS = ("case1_1", "case1_2", "case2_1", "case2_2_1", "_case2_2_1b",
              "_case2_2_2a", "_case2_2_2b", "_case2_2_2c")

WRAPPED = ((D, "_dispatch"), *((D, name) for name in REDUCTIONS),
           (D, "_check_removal"), (D._Frame, "take"), (D, "check_goodness"),
           (D, "report_after_removal"),
           (EdgeColoredGraph, "edit"), (D, "_build_transform"),
           (C, "_cut_search"), (D, "_verified_trace"),
           (D, "fallback_search"))


@dataclass(eq=False)
class Call:
    """One call of a wrapped engine point. `args` are as given, except that
    `_build_transform`'s keyword iterables are listed (so the call can be
    made again) and `take`'s frame is replaced by the graph it held. For a
    call that made or checked a graph (`edit`, `_build_transform`, a
    reduction's child, the graph a goodness check reports on), `cached` is
    that graph's attributes just after the call."""

    log: list[Call] = field(repr=False)
    name: str
    args: tuple
    kw: dict
    caller: str  # the name of the function that made the call
    at: int  # its index in the log
    end: int = -1  # the log's length when it returned or raised
    result: object = None
    error: Exception | None = None
    cached: dict | None = None
    lift: Call | None = None  # a reduction's: the call of its lift

    def inner(self) -> list[Call]:
        """The calls made while this one ran."""
        return self.log[self.at + 1:self.end]


def _recorded(log: list[Call], name: str, real, made_by: Call | None = None):
    """`real`, logging each call to `log` as a Call named `name`; a lift's
    wrapper also points the call that made its reduction, `made_by`, at
    its own call."""
    def call(*args, **kw):
        if name == "_build_transform":
            kw = {k: list(v) for k, v in kw.items()}
        c = Call(log, name, args if name != "take" else (args[0].graph, *args[1:]),
                 kw, sys._getframe(1).f_code.co_name, len(log))
        log.append(c)
        if made_by is not None:
            made_by.lift = c
        try:
            out = real(*args, **kw)
        except Exception as err:
            c.error = err
            raise
        finally:
            c.end = len(log)
        c.result = out
        if name in ("check_goodness", "report_after_removal"):
            c.cached = dict(args[0].__dict__)
        elif isinstance(out, EdgeColoredGraph):
            c.cached = dict(out.__dict__)
        elif isinstance(out, D.CaseReduction):
            c.cached = dict(out.child.__dict__)
            if c.caller == "_dispatch":  # not Case2_2_1b's, which Case2_2_1 returns
                return D.CaseReduction(out.child, _recorded(log, "lift", out.lift, c),
                                       out.report)
        return out
    return call


@contextmanager
def recording() -> Iterator[list[Call]]:
    """Wrap the engine points in `WRAPPED`; yields the log of their calls."""
    log: list[Call] = []
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in WRAPPED:
            mp.setattr(owner, name, _recorded(log, name, getattr(owner, name)))
        yield log


@contextmanager
def fallback_capped(cap: int | None) -> Iterator[None]:
    """Cap every fallback search of the engine at `cap` vertices, by patching
    `_fallback_cap`; None keeps the engine's own rule. A test that generates
    graphs may make this one engine patch: it changes what the engine
    searches, and records nothing."""
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(D, "_fallback_cap", lambda g: cap)
        yield


@dataclass(frozen=True)
class Run:
    """One decomposition of the corpus: its line graph and its trace."""

    n: int
    seed: int
    cap: int | None
    clg: ColoredLineGraph
    trace: D.DecompositionTrace


@dataclass(frozen=True)
class Corpus:
    runs: tuple[Run, ...]
    log: tuple[Call, ...]
    named: dict[str, tuple[Call, ...]] = field(repr=False)

    def calls(self, name: str) -> tuple[Call, ...]:
        """The calls of one wrapped point, in order."""
        return self.named.get(name, ())


@functools.cache
def corpus() -> Corpus:
    lines = [build_line_graph(random_cubic_bridgeless(GeneratorConfig(n, seed)))
             for n, seed, _ in RUNS]
    runs = []
    # the log keeps every graph of the corpus alive and holds no garbage, so
    # a pass of the cyclic collector over it would only cost time: it is
    # recorded with the collector off, then frozen out of the collector's
    # passes for the rest of the session
    collecting = gc.isenabled()
    gc.disable()
    try:
        with recording() as log:
            for (n, seed, cap), clg in zip(RUNS, lines):
                with fallback_capped(cap):
                    trace = D.decompose(clg.lg)
                runs.append(Run(n, seed, cap, clg, trace))
    finally:
        gc.freeze()
        if collecting:
            gc.enable()
    named: dict[str, list[Call]] = {}
    for c in log:
        named.setdefault(c.name, []).append(c)
    return Corpus(tuple(runs), tuple(log), {k: tuple(v) for k, v in named.items()})
