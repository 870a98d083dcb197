"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is seeded and deterministic.
"""
import json
import random
import time
from pathlib import Path

from cdcover.cli import main as cli_main
from cdcover.coloring import check_goodness, triangles
from cdcover.decomposer import decompose, replay_case_failure
from cdcover.graphs import Cycle, find_bridges, serialize_graph6
from cdcover.linegraph import build_line_graph, cover_from_decomposition, project_cycle
from cdcover.oracle import (
    GeneratorConfig,
    brute_force_cdc,
    random_cubic_bridgeless,
)
from cdcover.verify import verify_cdc, verify_rainbow_decomposition
from graphsamples import (
    almost_good_c4,
    case1_1_host,
    case2_2_2d_host,
    k4,
    k33,
    mutate_coloring,
    petersen,
    prism,
    rainbow_c4,
    square_chain,
    two_squares_type_x,
)
from oracles import (
    IsoDeduper,
    connected_ignoring_isolated,
    cycles_of,
    enumerate_rainbow_cycles,
    find_type_x_vertices,
    naive_goodness,
    type_x_by_pseudoblock_splits,
)

CANONICAL = [("K4", k4(), 12), ("prism", prism(), 18),
             ("K33", k33(), 18), ("Petersen", petersen(), 30)]

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "casefailures"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _pipeline(g):
    clg = build_line_graph(g)
    trace = decompose(clg.lg)
    if not trace.success:
        return trace, None
    return trace, cover_from_decomposition(clg, trace.cycles)


def test_criterion_1_canonical_graphs(tmp_path):
    elapsed = {}
    for name, g, slots in CANONICAL:
        path = tmp_path / f"{name}.g6"
        path.write_text(serialize_graph6(g) + "\n")
        out = tmp_path / f"{name}.json"
        t0 = time.monotonic()
        code = cli_main(["decompose", "--input", str(path),
                         "--output", str(out)])
        elapsed[name] = time.monotonic() - t0
        assert code == 0, name
        data = json.loads(out.read_text())
        assert sum(len(c) for c in data["cycles"]) == slots, name
        assert verify_cdc(g, data["cycles"]).accepted, name
        assert elapsed[name] < 1.0, (name, elapsed[name])
    _report(1, True, "verified covers for K4/prism/K33/Petersen with "
                     f"2m edge-slots; max runtime {max(elapsed.values()):.3f}s")


def test_criterion_2_oracle_equivalence_up_to_10():
    t0 = time.monotonic()
    dedup = IsoDeduper()
    samples = {4: 30, 6: 200, 8: 2000, 10: 9000}
    per_n: dict[int, int] = {}
    for n, count in samples.items():
        before = len(dedup.classes)
        for seed in range(count):
            dedup.add(random_cubic_bridgeless(GeneratorConfig(n, seed)))
        per_n[n] = len(dedup.classes) - before
    # connected cubic classes are 1, 2, 5, 19; exactly one graph on 10
    # vertices has a bridge, and none below can
    assert per_n == {4: 1, 6: 2, 8: 5, 10: 18}, per_n
    for g in dedup.classes:
        assert not find_bridges(g)
        trace, cover = _pipeline(g)
        assert trace.success
        assert cover is not None and verify_cdc(g, cover).accepted
        oracle = brute_force_cdc(g, time_budget=60.0)
        assert oracle.status == "found"
        assert verify_cdc(g, oracle.cycles).accepted
    took = time.monotonic() - t0
    assert took < 300.0, took
    _report(2, True, f"{len(dedup.classes)} bridgeless classes <= 10 vertices; "
                     f"decompose and oracle agree on all ({took:.1f}s)")


def test_criterion_3_defensive_fuzz_500(tmp_path):
    failures = []
    unverified = 0
    for i in range(500):
        n = 8 + 2 * (i % 4)
        g = random_cubic_bridgeless(GeneratorConfig(n, 10_000 + i))
        clg = build_line_graph(g)
        trace = decompose(clg.lg)  # any crash fails the criterion
        if trace.success:
            ok = verify_rainbow_decomposition(clg.lg, trace.cycles).accepted
            cover = cover_from_decomposition(clg, trace.cycles)
            ok = ok and verify_cdc(g, cover).accepted
            if not ok:
                unverified += 1
        else:
            artifact = tmp_path / f"fuzz_{i:04d}.json"
            artifact.write_text(json.dumps(trace.to_json(), indent=2,
                                           sort_keys=True))
            outcome = json.loads(artifact.read_text())["outcome"]
            again = replay_case_failure(outcome).failure
            failures.append((trace.failure, again))
    assert unverified == 0
    # each failure replays from its artifact to an equal failure, graph
    # text included
    for failure, again in failures:
        assert again == failure
    # the committed artifact pins the failure JSON, nested message included
    assert (tmp_path / "fuzz_0106.json").read_bytes() == \
        (FIXTURE_DIR / "fuzz_0106.json").read_bytes()
    _report(3, True, f"500 runs: {500 - len(failures)} verified successes, "
                     f"{len(failures)} replayable case failures, "
                     f"0 unverified covers, 0 crashes")


def test_criterion_4_goodness_and_type_x_soundness():
    rng = random.Random(2024)
    seeds = [almost_good_c4(), rainbow_c4(), two_squares_type_x(),
             case1_1_host(), case2_2_2d_host(), square_chain(2),
             square_chain(3), build_line_graph(k4()).lg,
             build_line_graph(k33()).lg, build_line_graph(prism()).lg]
    corpus = list(seeds)
    g_idx = 0
    while len(corpus) < 200:
        corpus.append(mutate_coloring(seeds[g_idx % len(seeds)], rng))
        g_idx += 1
    mismatches = 0
    even_checked = 0
    for g in corpus:
        rep = check_goodness(g)
        verdict, bad, _ = naive_goodness(g)
        if rep.verdict.value != verdict or rep.bad_vertex != bad:
            mismatches += 1
        if all(len([w for (u, v) in g.coloring for w in (u, v) if w == x]) % 2 == 0
               for x in range(g.n)):
            assert set(find_type_x_vertices(g)) == type_x_by_pseudoblock_splits(g)
            even_checked += 1
    assert mismatches == 0
    assert even_checked >= 50
    _report(4, True, f"{len(corpus)}-instance corpus: verdicts match the "
                     f"brute-force evaluator; Type X matches the pseudoblock "
                     f"oracle on {even_checked} even instances")


def test_criterion_5_structural_properties():
    # cycle correspondence is a bijection on graphs up to 12 vertices
    corpus = [k4(), k33(), prism(),
              random_cubic_bridgeless(GeneratorConfig(8, 0)),
              random_cubic_bridgeless(GeneratorConfig(10, 1)),
              random_cubic_bridgeless(GeneratorConfig(12, 2)),
              petersen()]
    from cdcover.linegraph import lift_rainbow_cycle
    pairs = 0
    for g in corpus:
        clg = build_line_graph(g)
        base_cycles = cycles_of(g)
        projected = set()
        for c in base_cycles:
            p = project_cycle(clg, c)
            assert lift_rainbow_cycle(clg, p) == c
            projected.add(p.vertices)
        rainbow = set(enumerate_rainbow_cycles(clg.lg))
        assert projected == rainbow
        for vs in rainbow:
            lc = Cycle(vs)
            assert project_cycle(clg, lift_rainbow_cycle(clg, lc)) == lc
        pairs += len(base_cycles)

    # removing any rainbow cycle from an all-Type-II graph keeps it connected
    rng = random.Random(5)
    connectivity_checked = 0
    seed = 0
    while connectivity_checked < 100:
        g = random_cubic_bridgeless(GeneratorConfig(8 + 2 * (seed % 3), seed))
        lg = build_line_graph(g).lg
        cycles = enumerate_rainbow_cycles(lg)
        for _ in range(4):
            h = lg.edit(drop=Cycle(cycles[rng.randrange(len(cycles))]).edges)
            assert connected_ignoring_isolated(h.n, h.edges)
            connectivity_checked += 1
        seed += 1

    # every prefix of every successful trace leaves a good graph
    traces = 0
    for g in (k4(), k33(), prism(), petersen()):
        lg = build_line_graph(g).lg
        tr = decompose(lg)
        h = lg
        for step in tr.steps:
            h = h.edit(drop=step.cycle.edges)
            assert check_goodness(h).ok
        traces += 1

    # line graphs of triangle-free cubic graphs have only mono triangles
    for g in (k33(), petersen()):
        lg = build_line_graph(g).lg
        for u, v, w in triangles(lg):
            assert len({lg.color(u, v), lg.color(v, w), lg.color(u, w)}) == 1
    _report(5, True, f"cycle bijection over {pairs} cycles on 7 graphs; "
                     f"connectivity after {connectivity_checked} removals; "
                     f"prefix goodness on {traces} traces; mono triangles on "
                     f"triangle-free line graphs")


def test_criterion_6_goddyn_mode():
    t0 = time.monotonic()
    checked = 0
    clg = build_line_graph(k4())
    for c in cycles_of(k4()):
        tr = decompose(clg.lg, project_cycle(clg, c))
        assert tr.success
        cover = cover_from_decomposition(clg, tr.cycles)
        assert c in cover.cycles
        assert verify_cdc(k4(), cover).accepted
        checked += 1
    assert checked == 7
    rng = random.Random(6)
    pet = petersen()
    clg = build_line_graph(pet)
    cycles = cycles_of(pet)
    for _ in range(20):
        c = cycles[rng.randrange(len(cycles))]
        tr = decompose(clg.lg, project_cycle(clg, c))
        assert tr.success
        cover = cover_from_decomposition(clg, tr.cycles)
        assert c in cover.cycles
        assert verify_cdc(pet, cover).accepted
        checked += 1
    took = time.monotonic() - t0
    assert took < 30.0, took
    _report(6, True, f"{checked} prescribed cycles all contained in verified "
                     f"covers ({took:.1f}s)")


def test_criterion_7_determinism(tmp_path):
    outputs = []
    for attempt in range(2):
        blobs = []
        for name, g, _ in CANONICAL:
            path = tmp_path / f"{name}_{attempt}.g6"
            path.write_text(serialize_graph6(g) + "\n")
            out = tmp_path / f"{name}_{attempt}.json"
            trace = tmp_path / f"{name}_{attempt}_trace.json"
            assert cli_main(["decompose", "--input", str(path),
                             "--output", str(out), "--trace", str(trace)]) == 0
            blobs.append(out.read_bytes())
            blobs.append(trace.read_bytes())
        # a criterion-2 style instance
        g = random_cubic_bridgeless(GeneratorConfig(10, 3))
        clg = build_line_graph(g)
        tr = decompose(clg.lg)
        blobs.append(json.dumps(tr.to_json(), sort_keys=True).encode())
        # a goddyn run
        clg = build_line_graph(petersen())
        tr = decompose(clg.lg, project_cycle(clg, Cycle((0, 1, 2, 3, 4))))
        cover = cover_from_decomposition(clg, tr.cycles)
        blobs.append(json.dumps(cover.to_json(petersen()),
                                sort_keys=True).encode())
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
    _report(7, True, f"{len(outputs[0])} serialized artifacts byte-identical "
                     f"across repeated runs")
