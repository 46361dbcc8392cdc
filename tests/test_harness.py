"""Exploration drivers: determinism, coverage accounting, stress recording."""
import math

import pytest

from snaplab import ExploreConfig, Exhaustive, FixedSchedule, OpScript, SimRun, \
    StressConfig, derive, explore, random_script, repro, run_checks, stress
from snaplab.harness import DfsBounded, ExploreCapExceeded, RandomWalks, iter_sims, \
    stress_once


def test_repro_is_byte_identical():
    a = repro("jayanti1_fig3").history.to_json()
    b = repro("jayanti1_fig3").history.to_json()
    assert a == b


def test_fixed_schedule_replays_byte_identical():
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)]])
    sched = (1, 0, 0, 1, 1, 1, 1)
    texts = set()
    for _ in range(2):
        cfg = ExploreConfig("jayanti1", 1, script, FixedSchedule(sched))
        for sim in iter_sims(cfg):
            texts.add(sim.history().to_json())
    assert len(texts) == 1


def test_random_mode_is_seed_deterministic():
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)], [("scan",)]])
    hashes = []
    for _ in range(2):
        cfg = ExploreConfig("jayanti3", 1, script, RandomWalks(42, 40),
                            suites=("S",), linearize=True, hash_stream=True)
        hashes.append(explore(cfg).stream_sha256)
    assert hashes[0] == hashes[1]
    cfg = ExploreConfig("jayanti3", 1, script, RandomWalks(43, 40),
                        suites=("S",), linearize=True, hash_stream=True)
    assert explore(cfg).stream_sha256 != hashes[0]


def test_exhaustive_coverage_matches_multinomial():
    # naive: fixed step counts, so the schedule count is the multinomial
    cases = [
        (2, [[("scan",)], [("write", 0, 2)], [("write", 1, 3)]], (2, 1, 1)),
        (1, [[("write", 0, 1), ("write", 0, 2)], [("scan",)]], (2, 1)),
    ]
    for n, threads, lens in cases:
        cfg = ExploreConfig("naive", n, OpScript.from_lists(threads), Exhaustive(10000))
        schedules = set()
        explore(cfg, per_result=lambda res: schedules.add(res.schedule))
        total = math.factorial(sum(lens))
        for l in lens:
            total //= math.factorial(l)
        assert len(schedules) == total


def test_exhaustive_cap_exceeded_raises():
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 1, 3)], [("scan",)]])
    cfg = ExploreConfig("naive", 2, script, Exhaustive(cap=3))
    with pytest.raises(ExploreCapExceeded):
        explore(cfg)


def test_fixed_partial_schedule_keeps_unterminated_events():
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)]])
    cfg = ExploreConfig("jayanti1", 1, script, FixedSchedule((0, 1, 1)),
                        suites=("RB",))
    summary = explore(cfg)
    assert summary.violations == 0


def test_max_steps_counts_the_steps_of_unfinished_operations():
    """A fixed schedule that stops mid-operation: max_steps counts the
    steps each open operation has run so far."""
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)]])
    cfg = ExploreConfig("jayanti1", 1, script, FixedSchedule((1, 1, 1, 0)), suites=("RB",))
    assert explore(cfg).max_steps == {"scan": 3, "write": 1}
    cfg = ExploreConfig("jayanti1", 1, script, FixedSchedule((0, 0, 1)), suites=("RB",))
    assert explore(cfg).max_steps == {"write": 2, "scan": 1}


def test_schedule_recorded_matches_request():
    sim = SimRun("naive", 2, OpScript.from_lists([[("scan",)], [("write", 0, 2)]]))
    sim.run_schedule([0, 1, 0])
    assert sim.schedule == [0, 1, 0]
    assert sim.done


def test_single_threaded_stress_equals_sequential_sim():
    script = OpScript.from_lists([[("write", 0, 2), ("scan",), ("write", 0, 5),
                                   ("scan",)]])
    h_stress = stress_once(StressConfig("jayanti2", 2, script))
    sim = SimRun("jayanti2", 2, script)
    sim.run_all(lambda en: en[0])
    h_sim = sim.history()
    outs = lambda h: [list(e.output) for e in h.events if e.op == "scan"]
    assert outs(h_stress) == outs(h_sim) == [[2, 0], [5, 0]]


def test_stress_histories_pass_structural_checks():
    script = random_script(2, 3, 15, seed=5)
    h = stress_once(StressConfig("jayanti3", 2, script))
    report = run_checks(derive(h), ("RB",))
    assert report.passed, report.to_obj()


def test_stress_summary_counts_runs():
    script = random_script(2, 2, 6, seed=9)
    summary = stress(StressConfig("jayanti2", 2,
                                  _single_scanner(script), runs=3, suites=("RB", "S")))
    assert summary.runs == 3
    assert summary.clean


def test_stress_chain_reads_the_linearizer(monkeypatch):
    """CHAIN under stress gets the linearizer's verdict: with a linearizer
    that rejects every history, each clean run fails CHAIN.snap-lin."""
    import importlib

    linearize = importlib.import_module("snaplab.linearize")  # the package exports the function
    calls = []

    def illegal(d):
        calls.append(d)
        return linearize.Linearization([], [], False)

    monkeypatch.setattr(linearize, "linearize", illegal)
    script = random_script(2, 2, 6, seed=9)
    summary = stress(StressConfig("jayanti2", 2, _single_scanner(script), runs=2,
                                  suites=("RB", "S", "CHAIN")))
    assert len(calls) == 2
    assert summary.violations == 2
    assert [[v.axiom for v in r.all_violations()] for r in summary.failing] == \
        [["CHAIN.snap-lin"]] * 2


def test_run_checks_reads_the_linearizer_for_chain(monkeypatch):
    """run_checks asked for CHAIN without a linearizer verdict runs the
    linearizer itself: with one that fails, a clean S fails CHAIN.snap-lin."""
    import snaplab.checker

    monkeypatch.setattr(snaplab.checker, "lin_verdict", lambda d: (None, False, "refused"))
    d = derive(repro("jayanti1_fig3").history)
    report = run_checks(d, ("S", "CHAIN"))
    assert [v.axiom for v in report.all_violations()] == ["CHAIN.snap-lin"]
    assert run_checks(d, ("S", "CHAIN"), lin_ok=True).passed


def test_stress_worker_exception_is_counted(monkeypatch):
    """A scan that raises in its worker thread still reaches
    threading.excepthook, and the run is not clean."""
    import threading

    import snaplab.harness as harness

    real = harness.op_generator
    raised = []

    def failing_once(adef, bank, n, pid, op):
        if op[0] == "scan" and not raised:
            raised.append(pid)
            raise RuntimeError("scan failed")
        return real(adef, bank, n, pid, op)

    hooked = []
    monkeypatch.setattr(harness, "op_generator", failing_once)
    monkeypatch.setattr(threading, "excepthook", lambda args: hooked.append(args.exc_type))
    script = OpScript.from_lists([[("write", 0, 2), ("scan",)], [("scan",), ("write", 1, 3)]])
    summary = stress(StressConfig("jayanti3", 2, script, runs=2, suites=("RB", "S")))
    assert summary.runs == 2
    assert summary.worker_errors == 1 and hooked == [RuntimeError]
    assert not summary.clean


def _single_scanner(script):
    """Rewrite a random script so only thread 0 scans (single-scanner rule)."""
    rows = []
    for k, t in enumerate(script.threads):
        if k == 0:
            rows.append(list(t.ops))
        else:
            rows.append([op if op[0] == "write" else ("write", 0, 77) for op in t.ops])
    return OpScript.from_lists(rows)


def test_random_script_is_deterministic():
    assert random_script(3, 2, 9, seed=4).to_json() == \
        random_script(3, 2, 9, seed=4).to_json()


def test_dfs_bounded_stops_at_limit():
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 1, 3)], [("scan",)]])
    cfg = ExploreConfig("naive", 2, script, DfsBounded(5))
    assert explore(cfg).schedules == 5


def test_renamed_algorithm_checks_like_its_original(monkeypatch):
    """An algorithm's derivations and signatures come from the rules entry
    its registry definition names, not from its name."""
    from dataclasses import replace

    from snaplab.algorithms import ALGORITHMS
    from snaplab.checker import SUITES

    monkeypatch.setitem(ALGORITHMS, "jayanti2-copy",
                        replace(ALGORITHMS["jayanti2"], name="jayanti2-copy"))
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])

    def run(algorithm):
        seen = []
        cfg = ExploreConfig(algorithm, 1, script, DfsBounded(2000), suites=SUITES,
                            linearize=True, oracle=True)
        summary = explore(cfg, per_result=lambda res: seen.append(
            (tuple(res.report.suites),
             [(v.axiom, v.witnesses, v.note) for v in res.report.all_violations()])))
        counts = {k: v for k, v in vars(summary).items() if k != "failing"}
        return counts, seen

    original, copy = run("jayanti2"), run("jayanti2-copy")
    assert copy == original
    assert original[0]["schedules"] == 2000
    assert original[1][0][0] == ("RB", "M", "M+", "L", "F", "F+", "S", "CHAIN")
