"""The command-line front end: exit codes, outputs, and report round-trips."""
import json
import random
import sys
from pathlib import Path

import pytest

from snaplab import ALGORITHMS, OpScript, SimRun
from snaplab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from diff_checker import mutants, mutate  # noqa: E402


@pytest.fixture()
def script_file(tmp_path):
    p = tmp_path / "script.json"
    p.write_text(json.dumps({"threads": [
        {"pid": 0, "ops": [{"write": [0, 2]}]},
        {"pid": 1, "ops": ["scan"]},
    ]}))
    return str(p)


def test_explore_exit_zero_on_clean_sweep(script_file, capsys):
    rc = main(["explore", "--alg", "jayanti1", "--n", "1", "--script", script_file,
               "--mode", "exhaustive", "--check", "F,S,CHAIN", "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0 and out["schedules"] > 0


def test_repro_naive_03(capsys):
    rc = main(["repro", "naive_03"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scan_output"] == [0, 3]
    assert out["oracle"]["linearizable"] is False


def test_repro_fig3_then_check_round_trip(tmp_path, capsys):
    rc = main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scan_output"] == [2, 4]
    hist = tmp_path / "jayanti1_fig3.history.json"
    rc = main(["check", "--history", str(hist), "--suites", "RB,M,F,S",
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(s["pass"] for s in report["suites"].values())


def test_explore_reports_re_check_identically(tmp_path, script_file, capsys):
    rc = main(["explore", "--alg", "jayanti1", "--n", "1", "--script", script_file,
               "--mode", "dfs:5", "--check", "F,S", "--out", str(tmp_path / "runs")])
    assert rc == 0
    capsys.readouterr()
    for k in range(5):
        base = tmp_path / "runs" / f"history_{k:06d}"
        rc = main(["check", "--history", f"{base}.json", "--suites", "F,S",
                   "--out", f"{base}.recheck.json"])
        assert rc == 0
        first = json.loads((base.parent / f"{base.name}.report.json").read_text())
        again = json.loads((base.parent / f"{base.name}.recheck.json").read_text())
        assert first["suites"] == again["suites"]


def test_check_failure_exit_code(tmp_path, capsys):
    import sys
    sys.path.insert(0, "tests")
    from corruptions import scan_output_mismatch

    h, suite, expected = scan_output_mismatch()
    hist = tmp_path / "bad.json"
    hist.write_text(h.to_json())
    rc = main(["check", "--history", str(hist), "--suites", suite])
    assert rc == 1
    err = capsys.readouterr().err
    assert expected in err


def test_linearize_command(tmp_path, capsys):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["linearize", "--history",
               str(tmp_path / "jayanti1_fig3.history.json"), "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["linearization"]["legal"] is True
    assert out["oracle"]["legal"] is True


def test_dump_edges(tmp_path, capsys):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["dump-edges", "--history",
               str(tmp_path / "jayanti1_fig3.history.json"),
               "--labels", "rf,fwd,wr,sc"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    by_label = {x["label"]: x["pairs"] for x in out}
    assert set(by_label) == {"rf", "fwd", "wr", "sc"}
    assert len(by_label["fwd"]) == 1


def test_dump_edges_whb_prints_a_write_order_cycle(tmp_path, capsys):
    main(["repro", "naive_03", "--out", str(tmp_path)])
    ids = json.loads(capsys.readouterr().out)["ids"]
    rc = main(["dump-edges", "--history", str(tmp_path / "naive_03.history.json"),
               "--labels", "whb"])
    assert rc == 0
    pairs = json.loads(capsys.readouterr().out)[0]["pairs"]
    w0, w1 = ids["w0"], ids["w1"]
    assert [w0, w1] in pairs and [w1, w0] in pairs  # the cycle that linearize reports


def test_dump_edges_on_a_dangling_edge_exits_two(tmp_path, capsys):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    hist = tmp_path / "jayanti1_fig3.history.json"
    obj = json.loads(hist.read_text())
    scan = next(e["id"] for e in obj["events"] if e["op"] == "scan")
    obj["rf"].append([999, scan])
    hist.write_text(json.dumps(obj))
    rc = main(["dump-edges", "--history", str(hist), "--labels", "rf,hb-rep"])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"snaplab: {hist}: cannot derive hb-rep: edge references a missing event\n"


@pytest.mark.parametrize("cmd", ["check", "linearize"])
def test_unknown_algorithm_exits_two(tmp_path, capsys, cmd):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    hist = tmp_path / "jayanti1_fig3.history.json"
    obj = json.loads(hist.read_text())
    obj["meta"]["algorithm"] = "bogus"
    hist.write_text(json.dumps(obj))
    assert main([cmd, "--history", str(hist)]) == 2
    assert capsys.readouterr().err == \
        f"snaplab: malformed history {hist}: unknown algorithm 'bogus'\n"


def test_usage_errors_exit_two(script_file, capsys):
    assert main(["explore", "--alg", "nosuch", "--n", "1",
                 "--script", script_file]) == 2
    assert main(["check", "--history", "/nonexistent.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode", "bogus"],
     "snaplab: bad mode 'bogus': unknown mode 'bogus'\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode", "dfs:x"],
     "snaplab: bad mode 'dfs:x': invalid literal for int() with base 10: 'x'\n"),
    (["dump-edges", "--history", "{history}", "--labels", "rf,zz"],
     "snaplab: unknown edge label 'zz'; have rf,ll,fwd,wr,sc,rf-abs,hb1,hb,hb-rep,rb,"
     "wrDiff,whb\n"),
    (["stress", "--alg", "jayanti3", "--n", "0", "--threads", "1", "--ops", "2"],
     "snaplab: --n 0: want at least one cell\n"),
    # counts that would check nothing, or one schedule, and exit 0
    (["explore", "--alg", "jayanti2", "--n", "0", "--script", "{scans}"],
     "snaplab: n=0: want at least one cell\n"),
    (["explore", "--alg", "jayanti2", "--n", "-1", "--script", "{scans}"],
     "snaplab: n=-1: want at least one cell\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode", "dfs:0"],
     "snaplab: bad mode 'dfs:0': limit 0: want at least one schedule\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode", "dfs:-2"],
     "snaplab: bad mode 'dfs:-2': limit -2: want at least one schedule\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode",
      "random:1:0"],
     "snaplab: bad mode 'random:1:0': samples 0: want at least one schedule\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode",
      "exhaustive:0"],
     "snaplab: bad mode 'exhaustive:0': cap 0: want at least one schedule\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode",
      "exhaustive:-4"],
     "snaplab: bad mode 'exhaustive:-4': cap -4: want at least one schedule\n"),
    (["linearize", "--history", "{history}", "--oracle", "--guard", "-3"],
     "snaplab: --guard -3: want at least one event\n"),
    (["linearize", "--history", "{history}", "--guard", "0"],
     "snaplab: --guard 0: want at least one event\n"),
    (["stress", "--alg", "jayanti3", "--n", "1", "--threads", "0"],
     "snaplab: --threads 0: want at least one thread\n"),
    (["stress", "--alg", "jayanti3", "--n", "1", "--ops", "-1"],
     "snaplab: --ops -1: want at least one operation per thread\n"),
    (["stress", "--alg", "jayanti3", "--n", "1", "--runs", "0"],
     "snaplab: --runs 0: want at least one run\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode",
      "dfs:5:junk"],
     "snaplab: bad mode 'dfs:5:junk': want dfs:LIMIT\n"),
    (["explore", "--alg", "naive", "--n", "1", "--script", "{script}", "--mode",
      "exhaustive:3:x"],
     "snaplab: bad mode 'exhaustive:3:x': want exhaustive or exhaustive:CAP\n"),
], ids=["unknown-mode", "mode-count", "edge-label", "no-cells", "explore-no-cells",
        "explore-negative-cells", "dfs-zero", "dfs-negative", "random-no-samples",
        "exhaustive-zero", "exhaustive-negative", "guard-negative", "guard-zero", "no-threads",
        "negative-ops", "no-runs", "dfs-trailing-field", "exhaustive-trailing-field"])
def test_bad_arguments_exit_two(script_file, tmp_path, capsys, argv, message):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    history = str(tmp_path / "jayanti1_fig3.history.json")
    scans = tmp_path / "scans.json"
    scans.write_text(json.dumps({"threads": [{"pid": 0, "ops": ["scan"]}]}))
    assert main([a.format(script=script_file, history=history, scans=scans)
                 for a in argv]) == 2
    assert capsys.readouterr() == ("", message)


def test_program_fault_is_no_usage_error(tmp_path, capsys, monkeypatch):
    """A ValueError raised while checking a history that loaded is a fault
    of the program: it escapes ``main`` rather than exiting 2."""
    from snaplab import checker

    def fault(d, out):
        raise ValueError("a fault of the checker")

    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    monkeypatch.setitem(checker._SUITE_FNS, "S", fault)
    with pytest.raises(ValueError, match="a fault of the checker"):
        main(["check", "--history", str(tmp_path / "jayanti1_fig3.history.json")])


def _history_text(start=1, op="a[0].r", rf=(), n=1, initial=(0,), abs_op="scan",
                  register="A[0]", output=(0,)) -> str:
    """A one-scan jayanti1 history with one rep read, as JSON."""
    return json.dumps({
        "meta": {"algorithm": "jayanti1", "n": n, "initial": list(initial)},
        "events": [
            {"id": 0, "kind": "abs", "op": abs_op, "input": None, "output": output,
             "start": start, "end": 4, "parent": None, "object": None},
            {"id": 1, "kind": "rep", "op": op, "input": None, "output": 0,
             "start": 2, "end": 3, "parent": 0, "object": register}],
        "rf": list(rf), "ll": []})


@pytest.mark.parametrize("text", [
    '{"events": []}', "not json {", _history_text(start="a"), _history_text(op=7),
    _history_text(rf=[[1]]), _history_text(rf=[[False, 1]]), _history_text(op="x"),
    _history_text(op="a[z].r"),
    _history_text(n=False, initial=()), _history_text(initial=(0, 0)),
    _history_text(abs_op="write[1]"), _history_text(register=None), _history_text(output=5),
    _history_text(output=None), _history_text(output=(0, 0)), _history_text(output="0")],
    ids=["missing-meta", "not-json", "start-not-a-number", "rep-op-not-a-string",
         "rf-edge-not-a-pair", "rf-endpoint-a-bool", "rep-op-without-memop", "rep-op-cell-not-a-number",
         "n-not-a-number", "initial-not-n-values", "write-past-the-cells",
         "rep-without-register", "scan-output-a-number", "scan-output-null",
         "scan-output-not-n-values", "scan-output-a-string"])
def test_malformed_history_exits_two(tmp_path, capsys, text):
    hist = tmp_path / "bad.json"
    hist.write_text(text)
    rc = main(["check", "--history", str(hist)])
    assert rc == 2
    assert f"snaplab: malformed history {hist}:" in capsys.readouterr().err


def test_exhaustive_cap_instructs_switching(tmp_path, capsys):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"threads": [
        {"pid": 0, "ops": [{"write": [0, 1]}] * 3},
        {"pid": 1, "ops": [{"write": [1, 2]}] * 3},
        {"pid": 2, "ops": ["scan"] * 2},
    ]}))
    rc = main(["explore", "--alg", "naive", "--n", "2", "--script", str(p),
               "--mode", "exhaustive:50"])
    assert rc == 2
    assert capsys.readouterr().err == ("snaplab: more than 50 interleavings; use dfs:LIMIT "
                                       "or random:SEED:SAMPLES\n")


def test_check_edge_to_missing_event_reports_axioms(tmp_path, capsys):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    hist = tmp_path / "jayanti1_fig3.history.json"
    obj = json.loads(hist.read_text())
    scan = next(e["id"] for e in obj["events"] if e["op"] == "scan")
    obj["rf"].append([999, scan])
    hist.write_text(json.dumps(obj))
    rc = main(["check", "--history", str(hist), "--suites", "RB,M,F,S"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"H.edge-ref[999,{scan}]" in err
    assert f"H.corrupt[999,{scan}] edge references a missing event" in err



def test_check_defaults_to_structural_and_snapshot_suites(tmp_path, capsys):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    hist = tmp_path / "jayanti1_fig3.history.json"
    obj = json.loads(hist.read_text())
    scan = next(e["id"] for e in obj["events"] if e["op"] == "scan")
    obj["rf"].append([999, scan])
    hist.write_text(json.dumps(obj))
    assert main(["check", "--history", str(hist)]) == 1
    assert f"H.edge-ref[999,{scan}]" in capsys.readouterr().err


@pytest.fixture()
def naive_script(tmp_path):
    p = tmp_path / "naive.json"
    p.write_text(json.dumps({"threads": [
        {"pid": 0, "ops": ["scan"]},
        {"pid": 1, "ops": [{"write": [0, 2]}]},
        {"pid": 2, "ops": [{"write": [1, 3]}]},
    ]}))
    return str(p)


def _explore_naive(script, capsys, *extra):
    rc = main(["explore", "--alg", "naive", "--n", "2", "--script", script, *extra])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_explore_failure_output_is_the_same_for_any_jobs(naive_script, capsys):
    """Every schedule takes one path, so two runs print the same exit code,
    stdout and stderr, the naive control's CycleError line included."""
    one = _explore_naive(naive_script, capsys, "--mode", "exhaustive")
    assert _explore_naive(naive_script, capsys, "--mode", "exhaustive") == one
    assert one[0] == 1
    assert "CycleError: write order has a cycle" in one[2]


def test_explore_failure_replays_from_its_schedule_line(naive_script, tmp_path, capsys):
    _, _, err = _explore_naive(naive_script, capsys, "--mode", "exhaustive")
    lines = err.splitlines()
    starts = [k for k, line in enumerate(lines) if line.startswith('{"schedule": ')]
    assert starts
    block = lines[starts[0]:starts[1] if len(starts) > 1 else None]
    fixed = tmp_path / "failure.json"
    fixed.write_text(block[0] + "\n")
    rc, _, again = _explore_naive(naive_script, capsys, "--mode", f"fixed:{fixed}")
    assert rc == 1
    assert again.splitlines() == block
    assert any(line.startswith("S.") for line in block)


@pytest.mark.parametrize("threads", [
    [{"ops": ["scan"]}],
    [{"pid": 0, "ops": [{"write": 3}]}],
    [{"pid": "zero", "ops": ["scan"]}],
    "scan",
], ids=["missing-pid", "write-not-pair", "pid-not-int", "threads-not-list"])
def test_malformed_script_exits_two(tmp_path, capsys, threads):
    p = tmp_path / "script.json"
    p.write_text(json.dumps({"threads": threads}))
    rc = main(["explore", "--alg", "jayanti3", "--n", "1", "--script", str(p)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"snaplab: {p}: malformed script: ")


def test_stress_worker_exception_exits_one(monkeypatch, capsys):
    import threading

    import snaplab.harness as harness

    def failing(adef, bank, n, pid, op):
        raise RuntimeError("scan failed")

    monkeypatch.setattr(harness, "op_generator", failing)
    monkeypatch.setattr(threading, "excepthook", lambda args: None)
    rc = main(["stress", "--alg", "jayanti3", "--n", "1", "--threads", "2", "--ops", "2"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["worker_errors"] == 2


@pytest.mark.parametrize("text,message", [
    ('{"sched": [0]}', "KeyError: 'schedule'"),
    ("[0, 1]", "TypeError"),
    ("not json", "JSONDecodeError"),
    ('{"schedule": 0}', '"schedule" is not a list'),
    ('{"schedule": [0, "1"]}', "step 1 names thread '1', but the script has threads 0..2"),
    ('{"schedule": [1, -1]}', "step 1 names thread -1, but the script has threads 0..2"),
    ('{"schedule": [3]}', "step 0 names thread 3, but the script has threads 0..2"),
    ('{"schedule": [0, 0, 0, 0, 0]}', "step 2 runs thread 0, which has finished"),
], ids=["missing-key", "not-an-object", "not-json", "not-a-list", "not-an-int",
        "negative", "out-of-range", "finished-thread"])
def test_malformed_fixed_schedule_exits_two(naive_script, tmp_path, capsys, text, message):
    fixed = tmp_path / "schedule.json"
    fixed.write_text(text)
    rc, out, err = _explore_naive(naive_script, capsys, "--mode", f"fixed:{fixed}")
    assert rc == 2 and out == ""
    assert err.startswith(f"snaplab: {fixed}: malformed schedule: ")
    assert message in err and "Traceback" not in err


def test_explore_out_writes_replayable_schedules(naive_script, tmp_path, capsys):
    runs = tmp_path / "runs"
    _explore_naive(naive_script, capsys, "--mode", "exhaustive", "--out", str(runs))
    for k in (0, 5, 11):
        base = runs / f"history_{k:06d}"
        again = tmp_path / f"again_{k}"
        _explore_naive(naive_script, capsys, "--mode", f"fixed:{base}.schedule.json",
                       "--out", str(again))
        assert (again / "history_000000.json").read_text() == base.with_suffix(".json").read_text()
        first = json.loads((runs / f"history_{k:06d}.report.json").read_text())
        replayed = json.loads((again / "history_000000.report.json").read_text())
        assert first["suites"] == replayed["suites"]


def test_explore_prints_distinct_keys(script_file, capsys):
    rc = main(["explore", "--alg", "jayanti2", "--n", "1", "--script", script_file,
               "--mode", "exhaustive", "--check", "M,M+,L,F+,F,S,CHAIN"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["distinct_snapshot_keys"] < out["schedules"]
    assert out["distinct_register_keys"] > 0
    assert out["steps_executed"] > out["schedules"]


@pytest.mark.parametrize("argv", [
    ["explore", "--alg", "jayanti1", "--n", "1", "--script", "{script}", "--check", "S,Q"],
    ["stress", "--alg", "jayanti3", "--n", "1", "--threads", "2", "--ops", "2",
     "--check", "RB,Q"],
    ["check", "--history", "{history}", "--suites", "RB,Q"],
], ids=["explore", "stress", "check"])
def test_unknown_suite_exits_two(script_file, tmp_path, capsys, argv):
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    history = str(tmp_path / "jayanti1_fig3.history.json")
    rc = main([a.format(script=script_file, history=history) for a in argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "snaplab: unknown suite 'Q'; have RB,M,M+,L,F,F+,S,CHAIN\n"


def _fig3_history(tmp_path, capsys, edit):
    """The fig3 history, with ``edit`` applied to its event 2 (the wa.w of
    write 1, the only child of that write)."""
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    hist = tmp_path / "jayanti1_fig3.history.json"
    obj = json.loads(hist.read_text())
    edit(next(e for e in obj["events"] if e["id"] == 2))
    hist.write_text(json.dumps(obj))
    return str(hist)


def test_child_escaping_parent_is_one_rb_line(tmp_path, capsys):
    hist = _fig3_history(tmp_path, capsys, lambda e: e.update(end=6))  # the parent ends at 5
    assert main(["check", "--history", hist, "--suites", "RB"]) == 1
    assert capsys.readouterr().err.splitlines() == \
        ["EV.parent[2,1] child interval escapes parent"]


def test_missing_parent_is_reported(tmp_path, capsys):
    hist = _fig3_history(tmp_path, capsys, lambda e: e.update(parent=999))
    assert main(["check", "--history", hist]) == 1
    err = capsys.readouterr().err
    assert "EV.parent[2] parent id missing" in err.splitlines()
    assert "Traceback" not in err


def test_abs_event_with_a_parent_is_reported(tmp_path, capsys):
    """An operation nested in the scan is no step of it: RB reports it,
    and the derivations that read the scan's steps pass over it."""
    main(["repro", "jayanti1_fig3", "--out", str(tmp_path)])
    capsys.readouterr()
    hist = tmp_path / "jayanti1_fig3.history.json"
    obj = json.loads(hist.read_text())
    scan = next(e for e in obj["events"] if e["op"] == "scan")
    w1 = next(e for e in obj["events"] if e["op"] == "write[1]")
    w1["parent"] = scan["id"]
    hist.write_text(json.dumps(obj))
    assert main(["check", "--history", str(hist), "--suites", "RB,F,S"]) == 1
    err = capsys.readouterr().err
    witnesses = f"EV.parent[{w1['id']},{scan['id']}]"
    assert err.splitlines() == [f"{witnesses} abs event nested in an event",
                                f"{witnesses} child interval escapes parent"]


def test_main_array_register_without_a_cell_number_is_foreign(tmp_path, capsys):
    """A write into a register named like the main array but with no cell
    number is a foreign write (F.3a), not a fault of the checker."""
    hist = _fig3_history(tmp_path, capsys, lambda e: e.update(object="A[x]"))
    assert main(["check", "--history", hist, "--suites", "F"]) == 1
    assert "F.3a[2] foreign write into A[x]" in capsys.readouterr().err.splitlines()


def test_alg3_commit_without_load_link_is_corrupt(tmp_path, capsys):
    from snaplab import OpScript
    from snaplab.harness import ExploreConfig, RandomWalks, iter_sims

    cfg = ExploreConfig("jayanti3", 1, OpScript.from_lists([[("scan",)]]), RandomWalks(0, 1))
    obj = json.loads(next(iter_sims(cfg)).history().to_json())
    voff = next(e["id"] for e in obj["events"] if e["op"].startswith("voff"))
    obj["ll"] = [p for p in obj["ll"] if p[1] != voff]  # the phase-2 commit's link
    hist = tmp_path / "h.json"
    hist.write_text(json.dumps(obj))
    corrupt = f"H.corrupt[{voff}] phase-2 commit has no load-link"

    assert main(["check", "--history", str(hist), "--suites", "F+,F,S,CHAIN"]) == 1
    assert capsys.readouterr().err.splitlines().count(corrupt) == 3  # F+, F and S

    assert main(["linearize", "--history", str(hist), "--oracle"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "CorruptHistory: phase-2 commit has no load-link"


@pytest.mark.parametrize("edges", ["rf", "ll"])
def test_alg3_commit_edge_from_a_missing_event_is_corrupt(tmp_path, capsys, edges):
    """The rf or ll edge into a phase-2 commit names event 999: RB names the
    edge, and F and S, which derive the virtual scans first, report the
    history corrupt instead of raising."""
    from snaplab.harness import ExploreConfig, RandomWalks, iter_sims

    cfg = ExploreConfig("jayanti3", 2, OpScript.from_lists([[("scan",)], [("write", 0, 5)]]),
                        RandomWalks(0, 1))
    obj = json.loads(next(iter_sims(cfg)).history().to_json())
    voff = next(e["id"] for e in obj["events"] if e["op"] == "voff@1.sc")
    assert any(b == voff for _, b in obj[edges])
    obj[edges] = [[999, b] if b == voff else [a, b] for a, b in obj[edges]]
    hist = tmp_path / "h.json"
    hist.write_text(json.dumps(obj))
    corrupt = f"H.corrupt[999,{voff}] edge references a missing event"

    assert main(["check", "--history", str(hist), "--suites", "RB,S"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert f"H.edge-ref[999,{voff}] {edges} edge references missing id" in err
    assert corrupt in err
    assert main(["check", "--history", str(hist), "--suites", "F"]) == 1
    assert corrupt in capsys.readouterr().err.splitlines()


def _naive_scan_observes_a_scan() -> str:
    """A naive history whose second scan's read of A[1] observes only the
    first scan's read of it, so the scan observes a scan at cell 1."""
    sim = SimRun("naive", 2, OpScript.from_lists([[("scan",)], [("scan",)]]))
    sim.run_all(lambda en: en[0])
    obj = json.loads(sim.history().to_json())
    r1, r2 = [e["id"] for e in obj["events"] if e["op"] == "a[1].r"]
    obj["rf"] = [p for p in obj["rf"] if p[1] != r2] + [[r1, r2]]
    return json.dumps(obj)


def _mutated_histories():
    """Per algorithm, histories mutated one to six times, and some with a
    rep op rewritten to a malformed one; then the naive reproducer."""
    rng = random.Random(7)
    for alg in sorted(ALGORITHMS):
        for k, text in enumerate(mutants(alg, 3, 24, seed=11)):
            for _ in range(rng.randint(0, 3)):
                text = mutate(text, rng)
            if k % 6 == 0:
                obj = json.loads(text)
                e = rng.choice([e for e in obj["events"] if e["kind"] == "rep"])
                e["op"] = rng.choice(("x", "a[z].r", e["op"].rsplit(".", 1)[0],
                                      e["op"].replace(".", "@1@2.")))
                text = json.dumps(obj)
            yield text
    yield _naive_scan_observes_a_scan()


def test_mutated_histories_never_raise(tmp_path, capsys):
    """check and linearize on mutated histories exit 0, 1 or 2, never with
    an exception, and exit 2 only for a malformed history."""
    hist = tmp_path / "h.json"
    codes = []
    for text in _mutated_histories():
        hist.write_text(text)
        for argv in (["check", "--suites", "RB,M,M+,L,F+,F,S,CHAIN"],
                     ["linearize", "--oracle"]):
            rc = main(argv + ["--history", str(hist)])
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), (argv, text)
            if rc == 2:
                assert err.startswith(f"snaplab: malformed history {hist}: "), (err, text)
            codes.append(rc)
    assert {1, 2} <= set(codes)
