import io
import json
from pathlib import Path

import pytest

import cdcover.decomposer as D
from cdcover import cli
from cdcover.cli import main
from cdcover.decomposer import DecompositionTrace
from cdcover.graphs import Cycle, parse_graph6, serialize_graph6
from cdcover.linegraph import CycleDoubleCover, build_line_graph, project_cycle
from cdcover.oracle import SearchResult
from cdcover.verify import verify_cdc
from graphsamples import bridged_cubic_10, k4, k33, petersen, prism, two_k4s
from oracles import serialize_edge_list


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    return path


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_k4(k4_file, capsys):
    code, out, _ = _run(capsys, "decompose", "--input", str(k4_file))
    assert code == 0
    data = json.loads(out)
    slots = sum(len(c) for c in data["cycles"])
    assert slots == 12
    assert verify_cdc(k4(), data["cycles"]).accepted


def test_decompose_writes_output_and_trace(k4_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    trace = tmp_path / "trace.json"
    code, _, _ = _run(capsys, "decompose", "--input", str(k4_file),
                      "--output", str(cover), "--trace", str(trace))
    assert code == 0
    assert json.loads(cover.read_text())["cycles"]
    tdata = json.loads(trace.read_text())
    assert tdata["outcome"]["status"] == "success"


def test_decompose_goddyn_contains_cycle(tmp_path, capsys):
    path = tmp_path / "petersen.g6"
    path.write_text(serialize_graph6(petersen()) + "\n")
    code, out, _ = _run(capsys, "decompose", "--input", str(path),
                        "--goddyn-cycle", "0,1,2,3,4")
    assert code == 0
    data = json.loads(out)
    assert [0, 1, 2, 3, 4] in data["cycles"]


def test_decompose_rejects_bridge(tmp_path, capsys):
    path = tmp_path / "bridged.g6"
    path.write_text(serialize_graph6(bridged_cubic_10()) + "\n")
    code, _, err = _run(capsys, "decompose", "--input", str(path))
    assert code == 1
    assert "bridge" in err


def test_decompose_rejects_non_cubic(tmp_path, capsys):
    path = tmp_path / "c5.g6"
    path.write_text("DQc\n")
    code, _, err = _run(capsys, "decompose", "--input", str(path))
    assert code == 1
    assert "cubic" in err


def test_decompose_rejects_disconnected(tmp_path, capsys):
    path = tmp_path / "two_k4.g6"
    path.write_text(serialize_graph6(two_k4s()) + "\n")
    code, out, err = _run(capsys, "decompose", "--input", str(path))
    assert (code, out, err) == (1, "", "error: graph is not connected\n")


def test_decompose_rejects_bad_goddyn_cycle(k4_file, capsys):
    """A prescribed cycle that is not one of the graph's, or names no vertex
    at all (an empty value included), is refused, not ignored."""
    for cycle in ("0,1,2,9", " , ", ""):
        code, out, err = _run(capsys, "decompose", "--input", str(k4_file),
                              "--goddyn-cycle", cycle)
        assert code == 1 and out == "", cycle
        assert err.startswith("error: ") and err.count("\n") == 1, cycle


REFUSED = "case failure in AllTypeII: prescribed cycle removal failed: refused\n"


def _refuse_prescribed(tmp_path, monkeypatch) -> tuple[Path, Cycle]:
    """A Petersen graph file, and the projection of its cycle 0,1,2,3,4,
    whose removal as a prescribed cycle the engine now refuses."""
    path = tmp_path / "petersen.g6"
    path.write_text(serialize_graph6(petersen()) + "\n")
    proj = project_cycle(build_line_graph(petersen()), Cycle((0, 1, 2, 3, 4)))
    real = D._check_removal

    def refuse_prescribed(h, rep, batch):
        if [c for _, c in batch] == [proj]:
            raise D.CaseVerificationError(batch[0][0], "refused", batch[0][1])
        return real(h, rep, batch)

    monkeypatch.setattr(D, "_check_removal", refuse_prescribed)
    return path, proj


def test_decompose_case_failure_exits_2(tmp_path, capsys, monkeypatch):
    """A refused prescribed cycle ends `decompose` with exit 2, one `case
    failure in ...` line on stderr and, with no --trace, the trace JSON on
    stdout, whose failure carries the projected prescribed cycle."""
    path, proj = _refuse_prescribed(tmp_path, monkeypatch)
    code, out, err = _run(capsys, "decompose", "--input", str(path),
                          "--goddyn-cycle", "0,1,2,3,4")
    assert code == 2
    assert err == REFUSED
    outcome = json.loads(out)["outcome"]
    assert outcome["status"] == "case_failure"
    assert outcome["prescribed"] == list(proj.vertices)


def test_replay_round_trip(tmp_path, capsys):
    """The case failure that `decompose` writes for n=12 seed 10106
    replays through `replay`, from the trace file and from the crosscheck
    artifact that holds it, to the same trace, graph text included, with
    exit 2 and decompose's stderr line."""
    code, out, _ = _run(capsys, "gen", "--n", "12", "--seed", "10106")
    assert code == 0 and out == "KAqOH_JOD?cQ\n"
    graph = tmp_path / "g.g6"
    graph.write_text(out)
    trace = tmp_path / "t.json"
    code, out, err = _run(capsys, "decompose", "--input", str(graph),
                          "--trace", str(trace))
    assert code == 2 and out == "" and err.startswith("case failure in Case2_2_1a: ")
    artifact = tmp_path / "crosscheck_0000.json"
    artifact.write_text(json.dumps({"graph6": "KAqOH_JOD?cQ",
                                    "trace": json.loads(trace.read_text())}))
    for path in (trace, artifact):
        code, out, again = _run(capsys, "replay", "--input", str(path))
        assert code == 2 and again == err
        assert json.loads(out) == json.loads(trace.read_text())


def test_replay_exits_0_once_the_failure_is_healed(tmp_path, capsys, monkeypatch):
    """A failure replays, prescribed cycle included, while its defect
    lasts, and once it is gone the replay succeeds: exit 0, nothing on
    stderr, and a trace that removes the prescribed cycle first."""
    path, proj = _refuse_prescribed(tmp_path, monkeypatch)
    trace = tmp_path / "t.json"
    code, _, _ = _run(capsys, "decompose", "--input", str(path),
                      "--goddyn-cycle", "0,1,2,3,4", "--trace", str(trace))
    assert code == 2
    code, _, err = _run(capsys, "replay", "--input", str(trace))
    assert code == 2 and err == REFUSED
    monkeypatch.undo()
    code, out, err = _run(capsys, "replay", "--input", str(trace))
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["outcome"]["status"] == "success"
    assert data["steps"][0]["cycle"] == list(proj.vertices)


@pytest.mark.parametrize("text, message", [
    ("case failure\n", "not JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"outcome": {"status": "success", "cycles": []}}',
     'a case failure holds its "graph" as edge-list text'),
    ('{"outcome": {"graph": "n 2\\n0 5 a\\n"}}',
     "malformed case failure: line 2: edge (0, 5) out of range for declared n=2"),
    ('{"outcome": {"graph": "0 1 a\\n", "prescribed": [0, "1", 2]}}',
     'a case failure\'s "prescribed" is a list of vertex ids'),
], ids=["not-json", "no-graph", "malformed-graph", "malformed-prescribed"])
def test_replay_refuses_bad_input(tmp_path, capsys, text, message):
    path = tmp_path / "t.json"
    path.write_text(text)
    code, out, err = _run(capsys, "replay", "--input", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_decompose_unliftable_decomposition_exits_2(k4_file, capsys, monkeypatch):
    """A decomposition that `cover_from_decomposition` refuses exits 2 with
    one error line and nothing on stdout."""
    real = cli.decompose

    def short(lg, prescribed):
        tr = real(lg, prescribed)
        return DecompositionTrace(tr.steps, tr.cycles[1:])

    monkeypatch.setattr(cli, "decompose", short)
    code, out, err = _run(capsys, "decompose", "--input", str(k4_file))
    assert code == 2 and out == ""
    assert err.startswith("error: produced decomposition failed verification: "
                          "not a partition")
    assert err.count("\n") == 1


def test_decompose_rejected_cover_exits_2(k4_file, capsys, monkeypatch):
    """A cover that `verify_cdc` rejects exits 2 with one error line on
    stderr and the verifier's verdict on stdout."""
    real = cli.cover_from_decomposition

    def short(clg, cycles):
        return CycleDoubleCover(real(clg, cycles).cycles[1:])

    monkeypatch.setattr(cli, "cover_from_decomposition", short)
    code, out, err = _run(capsys, "decompose", "--input", str(k4_file))
    assert code == 2
    assert err == "error: cover rejected by the independent verifier\n"
    assert json.loads(out)["accepted"] is False


def test_decompose_edgelist_format(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(serialize_edge_list(k4()))
    code, out, _ = _run(capsys, "decompose", "--input", str(path))
    assert code == 0


def _graph_texts(g) -> list[str]:
    """g as graph6, bare and with its `>>graph6<<` prefix, and as edge-list
    text, with its `n` header and without it but after a `#` comment."""
    g6 = serialize_graph6(g)
    edges = serialize_edge_list(g)
    return [g6 + "\n", ">>graph6<<" + g6 + "\n", edges,
            "# no header\n\n" + edges.partition("\n")[2]]


@pytest.mark.parametrize("graph", [k4, k33, prism, petersen, bridged_cubic_10])
def test_graph_format_is_read_from_the_text(graph, tmp_path, capsys):
    """Every command that reads a graph answers alike, exit code, stdout and
    stderr, on each way of writing it; no option names the format."""
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"cycles": [[0, 1, 2]]}))
    runs = []
    for i, text in enumerate(_graph_texts(graph())):
        path = tmp_path / f"g{i}"
        path.write_text(text)
        runs.append([_run(capsys, *argv) for argv in (
            ["decompose", "--input", str(path)],
            ["verify", "--graph", str(path), "--cover", str(cover)],
            ["oracle", "--input", str(path), "--mode", "cdc"],
            ["oracle", "--input", str(path), "--mode", "rainbow"])])
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("text, message", [
    ("", "graph6 parse error at byte 0: empty input (truncated)"),
    ("\n  \n", "graph6 parse error at byte 0: empty input (truncated)"),
    ("# a comment\n", "graph6 parse error at byte 0: bad header byte 35"),
])
def test_input_with_no_graph_line_is_refused(tmp_path, capsys, text, message):
    """Text with no line but blanks and comments is read as graph6 and
    refused, not read as a graph with no vertices."""
    path = tmp_path / "g"
    path.write_text(text)
    code, out, err = _run(capsys, "oracle", "--input", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_declared_empty_graph_is_read(tmp_path, capsys):
    path = tmp_path / "g"
    path.write_text("n 0\n")
    code, out, _ = _run(capsys, "oracle", "--input", str(path))
    assert code == 0 and out == "found\n"


def test_verify_command(k4_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    code, _, _ = _run(capsys, "decompose", "--input", str(k4_file),
                      "--output", str(cover))
    assert code == 0
    code, out, _ = _run(capsys, "verify", "--graph", str(k4_file),
                        "--cover", str(cover))
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_verify_command_rejects_truncated(k4_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    _run(capsys, "decompose", "--input", str(k4_file), "--output", str(cover))
    data = json.loads(cover.read_text())
    data["cycles"] = data["cycles"][:-1]
    cover.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "verify", "--graph", str(k4_file),
                        "--cover", str(cover))
    assert code == 1
    assert json.loads(out)["witnesses"]


def test_verify_command_mismatched_files(k4_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"cycles": [[0, 1, 9]]}))
    code, out, _ = _run(capsys, "verify", "--graph", str(k4_file),
                        "--cover", str(cover))
    assert code == 1


def test_verify_command_rejects_boolean_vertex(k4_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    _run(capsys, "decompose", "--input", str(k4_file), "--output", str(cover))
    data = json.loads(cover.read_text())
    data["cycles"] = [[True if v == 1 else v for v in c] for c in data["cycles"]]
    cover.write_text(json.dumps(data))
    assert "true" in cover.read_text()
    code, out, _ = _run(capsys, "verify", "--graph", str(k4_file),
                        "--cover", str(cover))
    assert code == 1
    assert "non-integer vertex" in {w.get("problem")
                                    for w in json.loads(out)["witnesses"]}


def test_oracle_cdc_found(k4_file, capsys):
    code, out, _ = _run(capsys, "oracle", "--input", str(k4_file), "--mode", "cdc")
    assert code == 0 and out.strip() == "found"


def test_oracle_cdc_absent(tmp_path, capsys):
    path = tmp_path / "bridged.txt"
    path.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
    code, out, _ = _run(capsys, "oracle", "--input", str(path), "--mode", "cdc")
    assert code == 0 and out.strip() == "absent"


def test_oracle_rainbow_petersen(tmp_path, capsys):
    path = tmp_path / "petersen.g6"
    path.write_text(serialize_graph6(petersen()) + "\n")
    code, out, _ = _run(capsys, "oracle", "--input", str(path),
                        "--mode", "rainbow", "--budget", "60")
    assert code == 0 and out.strip() == "found"


@pytest.mark.parametrize("mode, search", [("cdc", "brute_force_cdc"),
                                          ("rainbow", "brute_force_rainbow_decomposition")])
def test_oracle_checks_the_cover_it_reports(k4_file, capsys, monkeypatch, mode, search):
    """`oracle` checks a found cover with the independent verifier before
    it answers `found`: a bogus one, the single triangle 0 1 2, exits 2
    with the verifier's witnesses on stdout."""
    bogus = SearchResult("found", (Cycle((0, 1, 2)),))
    monkeypatch.setattr(cli, search, lambda *args, **kwargs: bogus)
    code, out, err = _run(capsys, "oracle", "--input", str(k4_file), "--mode", mode)
    assert code == 2
    assert err == "error: oracle cover rejected by the independent verifier\n"
    verdict = json.loads(out)
    assert not verdict["accepted"] and verdict["witnesses"]


def test_gen_k4(capsys):
    code, out, _ = _run(capsys, "gen", "--n", "4", "--count", "1")
    assert code == 0
    assert parse_graph6(out.strip()).edges == k4().edges


def test_gen_contract(capsys):
    from cdcover.graphs import find_bridges, is_cubic
    code, out, _ = _run(capsys, "gen", "--n", "10", "--seed", "7", "--count", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        g = parse_graph6(line)
        assert is_cubic(g) and not find_bridges(g)


def test_gen_rejects_odd(capsys):
    code, _, err = _run(capsys, "gen", "--n", "7", "--count", "1")
    assert code == 1 and "even" in err


@pytest.mark.parametrize("n_max", ["5", "2"])
def test_crosscheck_refuses_a_bad_n_max(capsys, n_max):
    code, out, err = _run(capsys, "crosscheck", "--n-max", n_max, "--count", "1")
    assert (code, out) == (1, "")
    assert err == f"error: --n-max must be an even integer >= 4, got {n_max}\n"


def test_crosscheck_small(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "crosscheck", "--n-max", "6", "--count", "4",
                        "--seed", "5")
    assert code == 0
    assert "0 mismatches" in out


def test_crosscheck_k4_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "crosscheck", "--n-max", "4", "--count", "1")
    assert code == 0


def test_crosscheck_records_a_rejected_lift(capsys, tmp_path, monkeypatch):
    """A decomposition the lift rejects is a mismatch with an artifact, as
    `cdcover decompose` reports it, not a traceback."""
    import cdcover.cli as cli
    from cdcover.linegraph import LineGraphError

    def reject(clg, cycles):
        raise LineGraphError("lift rejected")

    monkeypatch.setattr(cli, "cover_from_decomposition", reject)
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "crosscheck", "--n-max", "4", "--count", "1")
    assert code == 2
    assert "lift_rejected" in out and "1 mismatches" in out
    art = json.loads((tmp_path / "crosscheck-artifacts"
                      / "crosscheck_0000.json").read_text())
    assert art["decompose"] == "lift_rejected"


def test_crosscheck_records_a_case_failure(capsys, tmp_path, monkeypatch):
    """A decomposition that ends in a case failure is a `case_failure`
    mismatch whose artifact holds the failed trace, and `replay` of that
    artifact fails again, with decompose's exit code 2. The failure is the
    replay of the fuzz fixture's, which fails again in Case2_2_1a."""
    fixture = Path(__file__).parent / "fixtures" / "casefailures" / "fuzz_0106.json"
    outcome = json.loads(fixture.read_text())["outcome"]
    monkeypatch.setattr(cli, "decompose", lambda lg: D.replay_case_failure(outcome))
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "crosscheck", "--n-max", "4", "--count", "1")
    assert code == 2
    assert out.splitlines()[1].split()[3:] == ["case_failure", "found", "MISMATCH"]
    assert out.splitlines()[-1] == "1 instances, 1 mismatches"
    artifact = tmp_path / "crosscheck-artifacts" / "crosscheck_0000.json"
    art = json.loads(artifact.read_text())
    assert (art["decompose"], art["oracle"]) == ("case_failure", "found")
    assert art["trace"]["outcome"]["case"] == "Case2_2_1a"
    code, out, err = _run(capsys, "replay", "--input", str(artifact))
    assert code == 2 and err.startswith("case failure in Case2_2_1a: ")
    assert json.loads(out) == art["trace"]


def test_crosscheck_checks_the_oracle_cover(capsys, tmp_path, monkeypatch):
    """`crosscheck` checks a found oracle cover with the independent
    verifier, as `oracle` does: a bogus one, the single triangle 0 1 2, is
    reported as `unverified`, a mismatch with an artifact."""
    bogus = SearchResult("found", (Cycle((0, 1, 2)),))
    monkeypatch.setattr(cli, "brute_force_cdc", lambda *args, **kwargs: bogus)
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "crosscheck", "--n-max", "4", "--count", "1")
    assert code == 2
    assert "unverified" in out and "1 mismatches" in out
    art = json.loads((tmp_path / "crosscheck-artifacts"
                      / "crosscheck_0000.json").read_text())
    assert (art["decompose"], art["oracle"]) == ("success", "unverified")


def test_crosscheck_unwritable_artifacts(capsys, tmp_path, monkeypatch):
    """A mismatch whose artifact cannot be written is an error message and
    exit code 1, as an unwritable `--output` is, not a traceback."""
    import cdcover.cli as cli
    from cdcover.linegraph import LineGraphError

    def reject(clg, cycles):
        raise LineGraphError("lift rejected")

    monkeypatch.setattr(cli, "cover_from_decomposition", reject)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "crosscheck-artifacts").write_text("a file, not a directory\n")
    code, out, err = _run(capsys, "crosscheck", "--n-max", "4", "--count", "1")
    assert code == 1 and out == ""
    assert err == "error: crosscheck-artifacts: File exists\n"


def test_crosscheck_count_zero(capsys):
    code, out, _ = _run(capsys, "crosscheck", "--n-max", "8", "--count", "0")
    assert code == 0
    assert "0 instances" in out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, out, _ = _run(capsys, "decompose", "--input", "-")
    assert code == 0


def test_stdin_refusal_names_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\nC~\n"))
    code, out, err = _run(capsys, "decompose", "--input", "-")
    assert code == 1 and out == ""
    assert err == "error: stdin: expected one graph6 line, got 2\n"


@pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
def test_verify_refuses_a_cover_that_is_not_json(k4_file, tmp_path, capsys,
                                                  monkeypatch, via_stdin):
    """A cover that is not JSON is refused in `replay`'s words, naming it."""
    text = "{cycles: []}"
    if via_stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        cover, name = "-", "stdin"
    else:
        cover = name = str(tmp_path / "cover.json")
        Path(cover).write_text(text)
    code, out, err = _run(capsys, "verify", "--graph", str(k4_file), "--cover", cover)
    assert code == 1 and out == ""
    assert err == (f"error: {name}: not JSON: Expecting property name enclosed "
                   f"in double quotes: line 1 column 2 (char 1)\n")


def test_fallback_budget_flag_is_gone(k4_file, capsys):
    """The fallback has one cap rule and no option: the old flag is a usage
    error."""
    code, out, _ = _run(capsys, "decompose", "--input", str(k4_file),
                        "--fallback-budget", "5")
    assert code == 1 and out == ""


def test_fallback_budget_env_is_ignored(k4_file, capsys, monkeypatch):
    """The old environment variable neither refuses a run nor changes its
    cover."""
    code, plain, _ = _run(capsys, "decompose", "--input", str(k4_file))
    monkeypatch.setenv("CDCOVER_FALLBACK_BUDGET", "2")
    code_env, out, err = _run(capsys, "decompose", "--input", str(k4_file))
    assert code == code_env == 0 and err == ""
    assert out == plain


@pytest.mark.parametrize("command", ["oracle", "crosscheck"])
@pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
def test_oracle_budget_rejected(k4_file, capsys, command, budget):
    argv = [command, "--budget", budget]
    if command == "oracle":
        argv += ["--input", str(k4_file)]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"error: --budget must be a finite number of seconds "
                   f"above 0, got {float(budget)}\n")


@pytest.mark.parametrize("payload", [{"foo": 1}, {"cycles": 5}, 5, "cycles"])
def test_verify_command_rejects_malformed_cover(k4_file, tmp_path, capsys, payload):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(payload))
    code, out, err = _run(capsys, "verify", "--graph", str(k4_file),
                          "--cover", str(cover))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cover}: cover must be a JSON list")


@pytest.mark.parametrize("command, undecodable", [
    ("decompose", "input"), ("oracle", "input"), ("verify", "graph"),
    ("verify", "cover"),
])
def test_undecodable_input_is_an_error(k4_file, tmp_path, capsys, command,
                                       undecodable):
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe0 1\n")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"cycles": []}))
    files = {"input": binary, "graph": k4_file, "cover": cover}
    files[undecodable] = binary
    argv = [command]
    for flag in (("graph", "cover") if command == "verify" else ("input",)):
        argv += [f"--{flag}", str(files[flag])]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {binary}: not utf-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_non_ascii_graph6_is_refused(tmp_path, capsys, command):
    """A graph6 file holding `Cé` is refused, not read as 4 isolated
    vertices, whose empty cover `verify` would accept and `oracle` would
    answer `found`."""
    bad = tmp_path / "bad.g6"
    bad.write_text("Cé\n", encoding="utf-8")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"cycles": []}))
    argv = ([command, "--graph", str(bad), "--cover", str(cover)]
            if command == "verify" else [command, "--input", str(bad)])
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {bad}: graph6 parse error at byte 1: non-ASCII character\n"


@pytest.mark.parametrize("command", ["decompose", "verify", "oracle"])
def test_multi_graph_graph6_file_is_rejected(tmp_path, capsys, command):
    """A graph6 file with two graphs is an input error, not a run on the
    first one."""
    two = tmp_path / "two.g6"
    code, out, _ = _run(capsys, "gen", "--n", "10", "--count", "2")
    assert code == 0 and len(out.split()) == 2
    two.write_text(out)
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"cycles": []}))
    argv = ([command, "--graph", str(two), "--cover", str(cover)]
            if command == "verify" else [command, "--input", str(two)])
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {two}: expected one graph6 line, got 2\n"


@pytest.mark.parametrize("argv", [
    ["decompose", "--output"], ["decompose", "--trace"], ["gen", "--n", "4", "--output"],
], ids=["decompose-output", "decompose-trace", "gen-output"])
def test_unwritable_output_is_an_error(k4_file, tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    if argv[0] == "decompose":
        argv = ["decompose", "--input", str(k4_file)] + argv[1:]
    code, out, err = _run(capsys, *argv, str(target))
    assert code == 1 and out == ""
    assert err == f"error: {target}: No such file or directory\n"


def test_unreadable_input_is_an_error(tmp_path, capsys):
    """A missing input is refused in the words an unwritable output is."""
    missing = tmp_path / "missing"
    code, out, err = _run(capsys, "decompose", "--input", str(missing))
    assert code == 1 and out == ""
    assert err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", ["gen", "crosscheck"])
def test_negative_count_rejected(capsys, command):
    argv = [command, "--count", "-1"] + (["--n", "4"] if command == "gen" else [])
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: --count must be at least 0, got -1\n"


def test_gen_count_zero(capsys):
    code, out, err = _run(capsys, "gen", "--n", "4", "--count", "0")
    assert code == 0 and out == "" and err == ""


@pytest.mark.parametrize("argv", [
    ["decompose"],
    ["decompose", "--input", "x", "--format", "foo"],
    ["gen", "--n", "abc"],
    ["decompose", "--input", "x", "--format", "edgelist"],
    ["verify", "--graph", "x", "--cover", "y", "--format", "edgelist"],
    ["oracle", "--input", "x", "--format", "graph6"],
])
def test_usage_errors_exit_1(capsys, argv):
    """argparse's own exit code, 2, is the code of a case failure here. A
    graph's format is read from its text, so `--format` is no option."""
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert "usage: cdcover" in err and "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["decompose", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out.startswith("usage: cdcover") and err == ""
