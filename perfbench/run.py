"""End-to-end benchmark of the `cdcover decompose` path on fixed graph corpora.

Run from the repository root:

    python3 perfbench/run.py --workload small-default --seed 1 --seconds 50 --trace 0

Each op is one graph pushed through `op.run_op`. Ops run in a closed loop in
this process, one graph at a time: one pass over the corpus, then repeats of
the graphs as `plan_samples` says. `--trace 0` reports the end-to-end metrics
named in BENCHMARK.json. `--trace 1` runs the corpus once with spans around
every layer, and reports the per-layer metrics. The last line of stdout is
one JSON object; the lines before it say which percentile the tail is, why
ops failed, the digest of every cover written, and the unscaled times.

See README.md in this directory for the workloads, the metrics and the
baseline numbers.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

# Hang guard: an op still running after OP_LIMIT_S is stopped and counted as
# a `timeout`, scored at the limit. The slowest corpus graph takes about 5 s.
OP_LIMIT_S = 40.0
# Ops not started RUN_DEADLINE_S after the first op are counted as failed, so
# that a run ends inside 180 s even when the last op runs into OP_LIMIT_S.
RUN_DEADLINE_S = 130.0
SETUP_REPEATS = 10
# A graph is timed at most this many times in a run (see plan_samples).
MAX_SAMPLES = 8
# Repeats stop this many times --seconds after the first op.
REPEAT_STOP = 1.1
# The op time reported as op_tail_s has this many ops beyond it.
TAIL_BEYOND = 10
# Op times are reported at a fixed machine speed: the one at which
# reference.run() takes REF_S seconds (see Timeline).
REF_S = 0.004
# An op is scaled by the reference samples within this many seconds of it,
# or within its own duration if that is longer.
REF_WINDOW_S = 1.0

MODULES = ("graphs", "coloring", "linegraph", "decomposer", "oracle",
           "verify", "cli")

# Imports the op module (and with it cdcover), then runs one op; prints the
# seconds both took. argv: perfbench dir, src dir, graph6, crosscheck (0/1).
SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import op
op.run_op(sys.argv[3], sys.argv[4] == "1")
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Workload:
    """A fixed corpus: graph i is random_cubic_bridgeless(sizes[i % len], seed i)."""

    sizes: tuple[int, ...]
    count: int
    crosscheck: bool
    # sha256 over every cover JSON of the corpus, in corpus order, at the
    # commit that added the benchmark. A change of covers fails the run.
    covers_sha256: str


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "small-default": Workload(
        (20,), 70, False,
        "2551e64e79a747b00b36a3075ba948b4431ca729bddc4c64e1707d5f589a2593"),
    "crosscheck": Workload(
        (12, 14, 16), 48, True,
        "fb1ca900399bbd6ea13f1def4d0ad3ec56a90f4a93d4d4bcca98d4174ffb3e40"),
}


class OpTimeout(BaseException):
    """Raised from SIGALRM; not an Exception, so no handler in cdcover eats it."""


def _alarm(signum, frame):
    raise OpTimeout


def corpus(w: Workload) -> list[str]:
    from cdcover import graphs, oracle
    return [graphs.serialize_graph6(oracle.random_cubic_bridgeless(
                oracle.GeneratorConfig(w.sizes[i % len(w.sizes)], i)))
            for i in range(w.count)]


def warmup_graph() -> str:
    from cdcover import graphs, oracle
    return graphs.serialize_graph6(
        oracle.random_cubic_bridgeless(oracle.GeneratorConfig(10, 0)))


def measure_setup(w: Workload, warm: str) -> list[float]:
    """Seconds to import cdcover plus one op, in SETUP_REPEATS fresh interpreters.

    Each time is scaled like an op's (see Timeline), by reference samples
    taken just before and just after its interpreter.
    """
    import reference

    def ref_times():
        out = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference.run()
            out.append(time.perf_counter() - t0)
        return out

    args = [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), warm,
            "1" if w.crosscheck else "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = ref_times()
        done = subprocess.run(args, capture_output=True, text=True,
                              timeout=120, check=True)
        speed = REF_S / statistics.fmean(before + ref_times())
        times.append(float(done.stdout.split()[-1]) * speed)
    return times


def timed_op(call, i: int, text: str, w: Workload):
    """Run one op under the hang guard: (outcome, cover JSON, scored seconds)."""
    import op
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        outcome, out = call(i, op.run_op, text, w.crosscheck)
    except OpTimeout:
        outcome, out = "timeout", None
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        outcome, out = f"error:{type(err).__name__}", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    secs = time.perf_counter() - t0
    return outcome, out, secs if outcome == "ok" else OP_LIMIT_S


class Timeline:
    """Every op sample of a run, each after one sample of the reference.

    The machine's speed moves by up to 1.7x in spells of seconds to minutes,
    and a run cannot outlast them. The reference (reference.py) is fixed work
    timed just before each op, so the reference samples around an op show
    the speed the op ran at. Each op's wall time is scaled by REF_S over
    their mean; a long op uses the samples within its own duration of it.
    """

    def __init__(self) -> None:
        self.refs: list[tuple[float, float]] = []  # (start, seconds)
        self.ops: list[tuple[int, float, float]] = []  # (graph, start, seconds)

    def sample(self, call, i: int, text: str, w: Workload):
        import reference
        t0 = time.perf_counter()
        reference.run()
        t1 = time.perf_counter()
        self.refs.append((t0, t1 - t0))
        outcome, out, secs = timed_op(call, i, text, w)
        self.ops.append((i, t1, secs))
        return outcome, out, secs

    def scaled(self) -> dict[int, list[float]]:
        """Per graph, its op times at the speed where the reference takes REF_S."""
        starts = [t for t, _ in self.refs]
        out: dict[int, list[float]] = {}
        for i, t, secs in self.ops:
            d = max(secs, REF_WINDOW_S)
            near = self.refs[bisect.bisect_left(starts, t - d):
                             bisect.bisect_right(starts, t + secs + d)]
            speed = REF_S / statistics.fmean(s for _, s in near)
            out.setdefault(i, []).append(secs * speed)
        return out

    def raw_ref_ms(self) -> float:
        return 1000 * statistics.median(s for _, s in self.refs)


def run_pass(texts, order, w, call, deadline, timeline):
    results = {}
    for i in order:
        if time.perf_counter() > deadline:
            results[i] = ("deadline", None, OP_LIMIT_S)
        else:
            results[i] = timeline.sample(call, i, texts[i], w)
    return results


def plan_samples(first: dict[int, float], seconds: float) -> dict[int, int]:
    """How often to time each graph, from its first time.

    A short op's scaled time rests on few reference samples, so it is noisier
    than a long op's. So each graph is timed until its samples add up to
    about `r` seconds, 1 to MAX_SAMPLES times, with `r` the largest that
    keeps the expected total within `seconds`. A graph's time is the median
    of its scaled samples.
    """
    def samples(r: float, t: float) -> int:
        return max(1, min(MAX_SAMPLES, int(r / t)))

    lo, hi = 0.0, seconds
    for _ in range(50):
        r = (lo + hi) / 2
        if sum(samples(r, t) * t for t in first.values()) > seconds:
            hi = r
        else:
            lo = r
    return {i: samples(lo, t) for i, t in first.items()}


def repeat_ops(texts, first, w, seed, seconds, stop, timeline):
    """Time graphs again in a seeded random order, as plan_samples says.

    Returns (graph, outcome) for each repeat. A repeat whose cover JSON
    differs from the graph's first one fails.
    """
    ok = {i: r[2] for i, r in first.items() if r[0] == "ok"}
    schedule = [i for i, k in plan_samples(ok, seconds).items()
                for _ in range(k - 1)]
    random.Random(seed).shuffle(schedule)
    outcomes = []
    for i in schedule:
        if time.perf_counter() > stop:
            break
        outcome, out, _ = timeline.sample(untraced, i, texts[i], w)
        if outcome == "ok" and out != first[i][1]:
            outcome = "cover_changed"
        outcomes.append((i, outcome))
    return outcomes


def untraced(i, fn, *args):
    return fn(*args)


def digest(results) -> str:
    h = hashlib.sha256()
    for i in sorted(results):
        outcome, out, _ = results[i]
        h.update(f"{i}:{outcome}\n".encode())
        h.update((out or "").encode())
    return h.hexdigest()


def check_outputs(texts, results) -> list[str]:
    """Re-verify every cover JSON written, as `cdcover verify` would."""
    from cdcover import graphs, verify
    problems = []
    for i, (outcome, out, _) in results.items():
        if out is None:
            continue
        cycles = json.loads(out)["cycles"]
        if not verify.verify_cdc(graphs.parse_graph6(texts[i]), cycles).accepted:
            problems.append(f"graph {i}: cover JSON rejected by verify_cdc")
    return problems


def install_spans(tracer) -> None:
    """Wrap each layer where its caller looks it up."""
    import op
    from cdcover import decomposer, linegraph, oracle, verify

    def found(result):
        return int(result.status == "found")

    tracer.wrap(op, "parse_validate", "graphs.parse_validate")
    tracer.wrap(linegraph, "build_line_graph", "linegraph.build")
    tracer.wrap(decomposer, "decompose", "decomposer.decompose")
    tracer.wrap(decomposer, "check_goodness", "coloring.check_goodness")
    tracer.wrap(decomposer, "fallback_search", "decomposer.fallback_search",
                count=found)
    tracer.wrap(decomposer, "enumerate_cycles", "oracle.enumerate_cycles",
                count=len)
    tracer.wrap(decomposer, "_verified_trace", "decomposer.replay")
    tracer.wrap(linegraph, "cover_from_decomposition", "linegraph.lift")
    tracer.wrap(verify, "verify_cdc", "verify.verify_cdc")
    tracer.wrap(op, "dump_cover", "cli.output")
    tracer.wrap(oracle, "brute_force_cdc", "oracle.brute_force_cdc")
    tracer.wrap(oracle, "enumerate_cycles", "oracle.enumerate_cycles",
                count=len)


def layer_metrics(summary, traced_ops_per_s: float) -> dict:
    by_name = summary["by_name"]

    def get(name, key="total_s"):
        return by_name.get(name, {}).get(key, 0)

    fb_calls = get("decomposer.fallback_search", "calls")
    m = {
        "coloring.goodness_s": get("coloring.check_goodness"),
        "coloring.goodness_calls": get("coloring.check_goodness", "calls"),
        "decomposer.fallback_s": get("decomposer.fallback_search"),
        "decomposer.fallback_calls": fb_calls,
        "decomposer.fallback_found_share":
            get("decomposer.fallback_search", "count") / fb_calls if fb_calls else 0.0,
        "oracle.enumerate_cycles_s": get("oracle.enumerate_cycles"),
        "oracle.cycles_enumerated": get("oracle.enumerate_cycles", "count"),
        "oracle.brute_force_cdc_s": get("oracle.brute_force_cdc"),
        "decomposer.decompose_s": get("decomposer.decompose"),
        "decomposer.engine_self_s": get("decomposer.decompose", "self_s"),
        "decomposer.replay_s": get("decomposer.replay"),
        "graphs.parse_validate_s": get("graphs.parse_validate"),
        "linegraph.build_s": get("linegraph.build"),
        "linegraph.lift_s": get("linegraph.lift"),
        "verify.verify_cdc_s": get("verify.verify_cdc"),
        "cli.output_s": get("cli.output"),
    }
    for mod in MODULES:
        m[f"{mod}.total_s"] = summary["module_total_s"].get(mod, 0.0)
        m[f"{mod}.self_s"] = summary["module_self_s"].get(mod, 0.0)
    m["trace.op_wall_s"] = summary["op_wall_s"]
    m["trace.ops_per_s"] = traced_ops_per_s
    return m


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with the weights a beta
    distribution puts on each 1/n of [0, 1]. Unlike one order statistic it
    does not jump when a graph crosses a gap between its neighbours.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    def weight(lo: float, hi: float, steps: int = 32) -> float:
        # Simpson's rule; `steps` is even.
        h = (hi - lo) / steps
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        return h / 3 * (pdf(lo) + inner + pdf(hi))

    w = [weight(i / n, (i + 1) / n) for i in range(n)]
    return sum(wi * xi for wi, xi in zip(w, x)) / sum(w)


def tail(values: list[float]) -> tuple[float, float]:
    """The op time with TAIL_BEYOND ops beyond it, and its percentile."""
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import reference
    import spans

    w = WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}

    texts = corpus(w)
    warm = warmup_graph()
    # Set-up is timed before and after the ops, so that the median spans
    # two moments of the machine's speed rather than one.
    setup_times = [] if trace else measure_setup(w, warm)
    signal.signal(signal.SIGALRM, _alarm)
    timed_op(untraced, -1, warm, w)
    if reference.run() != reference.CYCLES:
        raise SystemExit("error: the reference no longer does its fixed work")

    order = list(range(w.count))
    random.Random(seed).shuffle(order)
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    timeline = Timeline()
    repeats = []
    if trace:
        tracer = spans.Tracer()
        install_spans(tracer)
        try:
            first = run_pass(texts, order, w, tracer.op, deadline, timeline)
        finally:
            tracer.unwrap()
    else:
        first = run_pass(texts, order, w, untraced, deadline, timeline)
        repeats = repeat_ops(texts, first, w, seed, seconds,
                             min(start + REPEAT_STOP * seconds, deadline),
                             timeline)
        setup_times += measure_setup(w, warm)

    problems = check_outputs(texts, first)
    covers = digest(first)
    if w.covers_sha256 and covers != w.covers_sha256:
        problems.append(f"covers differ from the pinned digest {w.covers_sha256}")

    outcomes = [r[0] for r in first.values()] + [o for _, o in repeats]
    failed = [o for o in outcomes if o != "ok"]
    reasons = {o: failed.count(o) for o in sorted(set(failed))}
    print(f"workload {name}: {w.count} graphs, {len(outcomes)} ops, "
          f"seed {seed}, trace {int(trace)}")
    print(f"failed_share {len(failed) / len(outcomes):.4f} "
          f"({len(failed)} of {len(outcomes)} ops), by reason: {json.dumps(reasons)}")
    print(f"covers sha256 {covers}")

    # A graph's time is the median of its scaled samples; a graph with a
    # failed op is scored at the per-op limit.
    bad = ({i for i, r in first.items() if r[0] != "ok"}
           | {i for i, o in repeats if o != "ok"})
    scaled = timeline.scaled()
    per_graph = [OP_LIMIT_S if i in bad else statistics.median(scaled[i])
                 for i in range(w.count)]
    # Verified graphs per second of one pass over the corpus, each graph
    # taking its own time.
    ops_per_s = (w.count - len(bad)) / sum(per_graph)
    raw_p50 = statistics.median(r[2] for r in first.values())
    print(f"unscaled: reference median {timeline.raw_ref_ms():.3f} ms "
          f"(scaled to {1000 * REF_S:g} ms), first-pass median op "
          f"{raw_p50:.4f} s, first pass {sum(r[2] for r in first.values()):.2f} s")

    if trace:
        tracer.write(SPANS_DIR / f"spans-{name}.jsonl")
        summary = spans.summarize(tracer.spans)
        metrics = layer_metrics(summary, ops_per_s)
        self_s = sum(summary["module_self_s"].values())
        print(f"per-module self times add up to {self_s:.4f} s of "
              f"{summary['op_wall_s']:.4f} s op wall time")
        if self_s > summary["op_wall_s"]:
            problems.append("per-module self times exceed the op wall time")
        print(f"missing layers: {json.dumps(tracer.missing)}")
        print(f"spans: {len(tracer.spans)} written to "
              f"{(SPANS_DIR / f'spans-{name}.jsonl').relative_to(ROOT)}")
    else:
        counts = [len(v) for v in scaled.values()]
        op_tail_s, pct = tail(per_graph)
        print(f"each graph timed {min(counts)} to {max(counts)} times, "
              f"median {statistics.median(counts):g}")
        print(f"op_tail_s is p{pct:.1f} of {len(per_graph)} graphs")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": hd_quantile(per_graph, 0.5),
            "op_tail_s": op_tail_s,
            "ops_per_s": ops_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    return {
        "correct": not problems and not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the first pass and the repeats")
    ap.add_argument("--seconds", type=float, required=True,
                    help="time ops for about this long, at least one pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cdcover" / "__init__.py").is_file():
        print(f"error: no cdcover sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
