"""Behavior of the five subject algorithms and their script constraints."""
import pytest

from snaplab import ALGORITHMS, ExploreConfig, Exhaustive, OpScript, ScriptError, \
    SimRun, explore
from snaplab.harness import DfsBounded, RandomWalks


def scan_outputs(h):
    return [list(e.output) for e in h.events if e.op == "scan" and e.terminated]


def solo_scan(algorithm, n=2):
    sim = SimRun(algorithm, n, OpScript.from_lists([[("scan",)]]))
    sim.run_all(lambda en: en[0])
    return scan_outputs(sim.history())[0]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_solo_scan_returns_initial_array(algorithm):
    assert solo_scan(algorithm) == [0, 0]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_sequential_write_then_scan(algorithm):
    script = OpScript.from_lists([[("write", 0, 2), ("scan",)]])
    sim = SimRun(algorithm, 2, script)
    sim.run_all(lambda en: en[0])
    assert scan_outputs(sim.history()) == [[2, 0]]


def test_naive_single_threaded_scan_equals_last_writes():
    script = OpScript.from_lists([[("write", 0, 2), ("write", 1, 9),
                                   ("write", 0, 4), ("scan",)]])
    sim = SimRun("naive", 2, script)
    sim.run_all(lambda en: en[0])
    assert scan_outputs(sim.history()) == [[4, 9]]


def test_script_constraints():
    two_scanners = OpScript.from_lists([[("scan",)], [("scan",)]])
    same_cell = OpScript.from_lists([[("write", 0, 1)], [("write", 0, 2)]])
    ALGORITHMS["jayanti2"].validate(same_cell, 1)  # multi-writer is fine
    with pytest.raises(ScriptError):
        ALGORITHMS["jayanti1"].validate(two_scanners, 1)
    with pytest.raises(ScriptError):
        ALGORITHMS["jayanti2"].validate(two_scanners, 1)
    with pytest.raises(ScriptError):
        ALGORITHMS["jayanti1"].validate(same_cell, 1)
    with pytest.raises(ScriptError):
        ALGORITHMS["afek"].validate(same_cell, 1)
    ALGORITHMS["jayanti3"].validate(two_scanners, 1)
    with pytest.raises(ScriptError):
        ALGORITHMS["naive"].validate(OpScript.from_lists([[("write", 3, 1)]]), 2)
    with pytest.raises(ScriptError):
        ALGORITHMS["naive"].validate(
            OpScript(tuple(OpScript.from_lists([[("scan",)]]).threads) * 2), 1)


def test_opscript_json_round_trip():
    script = OpScript.from_lists([[("write", 0, 2), ("scan",)], [("scan",)]])
    text = script.to_json()
    assert OpScript.from_json(text) == script
    assert '"write":[0,2]' in text.replace(" ", "")


@pytest.mark.parametrize("algorithm,n,threads,mode", [
    ("naive", 2, [[("write", 0, 2)], [("scan",)]], Exhaustive(50000)),
    ("jayanti1", 1, [[("write", 0, 2)], [("scan",)]], Exhaustive(50000)),
    ("jayanti2", 1, [[("write", 0, 2)], [("write", 0, 3)], [("scan",)]],
     DfsBounded(8000)),
])
def test_wait_freedom_step_bounds_exhaustive(algorithm, n, threads, mode):
    adef = ALGORITHMS[algorithm]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), mode, suites=())
    summary = explore(cfg)
    assert summary.max_steps.get("write", 0) <= adef.write_bound(n)
    assert summary.max_steps.get("scan", 0) <= adef.scan_bound(n)


def test_wait_freedom_step_bounds_alg3_random():
    adef = ALGORITHMS["jayanti3"]
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)], [("scan",)]])
    cfg = ExploreConfig("jayanti3", 1, script, RandomWalks(5, 300), suites=())
    summary = explore(cfg)
    assert summary.max_steps["scan"] <= adef.scan_bound(1)
    assert summary.max_steps["write"] <= adef.write_bound(1)


def test_afek_writer_mutating_twice_forces_view_return():
    """With a writer moving a cell twice during the scan, some interleaving
    makes the scan borrow the writer's embedded view."""
    script = OpScript.from_lists([[("write", 0, 1), ("write", 0, 2)], [("scan",)]])
    cfg = ExploreConfig("afek", 2, script, Exhaustive(50000), suites=("S",))
    summary = explore(cfg)
    assert summary.violations == 0
    assert summary.afek_view_returns > 0


def test_afek_scan_terminates_within_bounded_rounds():
    script = OpScript.from_lists([[("write", 0, 1), ("write", 0, 2)], [("scan",)]])
    cfg = ExploreConfig("afek", 2, script, Exhaustive(50000), suites=())
    summary = explore(cfg)
    # n=2 and two cell changes: at most 2 collect rounds of 2n reads each
    assert summary.max_steps["scan"] <= 8


def test_jayanti3_ss_written_exactly_once_per_virtual_scan():
    from snaplab import derive

    sim = SimRun("jayanti3", 2, OpScript.from_lists([[("scan",)]]))
    sim.run_all(lambda en: en[0])
    h = sim.history()
    d = derive(h)
    ss_writes = [e for e in h.events
                 if e.object == "SS" and e.op.endswith(".sc") and e.output is True]
    assert len(ss_writes) == len(d.sigmas)
    assert sorted(s.ss for s in d.sigmas) == sorted(e.id for e in ss_writes)
