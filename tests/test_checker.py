"""Axiom suites: clean histories pass, corruptions are flagged with genuine
witnesses, reports are deterministic."""
import pytest

from corruptions import ALL as CORRUPTIONS
from snaplab import ExploreConfig, Exhaustive, History, OpScript, SimRun, derive, \
    random_script, repro, run_checks
from snaplab.harness import DfsBounded, RandomWalks, explore, iter_sims

ALL_SUITES = ("RB", "M", "M+", "L", "F+", "F", "S", "CHAIN")


@pytest.mark.parametrize("algorithm,n,threads,mode", [
    ("naive", 2, [[("write", 0, 2)], [("write", 1, 3)], [("scan",)]], Exhaustive(30000)),
    ("jayanti1", 1, [[("write", 0, 2)], [("scan",)]], Exhaustive(30000)),
    ("jayanti2", 1, [[("write", 0, 2)], [("write", 0, 3)], [("scan",)]],
     DfsBounded(4000)),
    ("afek", 1, [[("write", 0, 2)], [("scan",)]], Exhaustive(30000)),
])
def test_small_exhaustive_sweeps_pass(algorithm, n, threads, mode):
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), mode,
                        suites=ALL_SUITES, linearize=True, oracle=True)
    summary = explore(cfg)
    if algorithm == "naive":
        # the negative control must fail somewhere, and the oracle must agree
        assert summary.violations > 0 or summary.lin_failures > 0
        assert summary.oracle_mismatches == 0
    else:
        assert summary.clean, summary.failing[0].report.to_obj() if summary.failing else None


def test_alg3_random_sweep_passes():
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)], [("scan",)]])
    cfg = ExploreConfig("jayanti3", 1, script, RandomWalks(21, 250),
                        suites=ALL_SUITES, linearize=True, oracle=True)
    summary = explore(cfg)
    assert summary.clean


def test_empty_history_passes():
    sim = SimRun("jayanti2", 2, OpScript.from_lists([]))
    report = run_checks(derive(sim.history()), ALL_SUITES, lin_ok=True)
    assert report.passed


@pytest.mark.parametrize("fixture", CORRUPTIONS, ids=lambda f: f.__name__)
def test_corruption_detected(fixture):
    history, suite, expected = fixture()
    report = run_checks(derive(history), (suite,))
    assert expected in report.axiom_ids(), report.to_obj()


def test_corruption_witnesses_are_genuine():
    history, suite, expected = CORRUPTIONS[0]()  # duplicated reads-from
    report = run_checks(derive(history), (suite,))
    v = next(v for v in report.all_violations() if v.axiom == "M.robsuniq")
    *writers, reader = v.witnesses
    assert len(set(writers)) > 1
    assert all((w, reader) in [tuple(p) for p in history.rf] for w in writers)


def test_checker_is_deterministic():
    h = repro("jayanti1_fig3").history
    r1 = run_checks(derive(h), ("RB", "M", "F", "S"))
    r2 = run_checks(derive(h), ("RB", "M", "F", "S"))
    o1, o2 = r1.to_obj(), r2.to_obj()
    o1["stats"].pop("wall_s")
    o2["stats"].pop("wall_s")
    assert o1 == o2


def test_naive_control_flags_snapshot_axiom():
    h = repro("naive_03").history
    report = run_checks(derive(h), ("S",))
    assert report.axiom_ids() & {"S.2", "S.7"}


def test_suites_inapplicable_to_algorithm_are_dropped():
    h = repro("naive_03").history
    report = run_checks(derive(h), ("M+", "L", "F+", "S"))
    assert set(report.suites) == {"S"}


def test_chain_suite_reports_snapshot_to_linearization_break():
    from snaplab.checker import check_chain
    from snaplab.report import SuiteResult

    out = []
    check_chain({"S": SuiteResult("S", [])}, lin_ok=False, out=out)
    assert [v.axiom for v in out] == ["CHAIN.snap-lin"]
    out = []
    check_chain({"S": SuiteResult("S", [])}, lin_ok=True, out=out)
    assert out == []


# -- what F and F+ share ------------------------------------------------------

def _count_builds(monkeypatch) -> dict:
    """Counts of ForwardingFacts built and of forward-instance groupings."""
    from snaplab import visibility

    counts = {"facts": 0, "groupings": 0}
    real_facts, real_group = visibility.ForwardingFacts, visibility.collect_forwards

    class Counted(real_facts):
        def __init__(self, d):
            counts["facts"] += 1
            super().__init__(d)

    def group(idx):
        counts["groupings"] += 1
        return real_group(idx)

    monkeypatch.setattr(visibility, "ForwardingFacts", Counted)
    monkeypatch.setattr(visibility, "collect_forwards", group)
    return counts


def test_forwarding_facts_are_built_once_per_history(monkeypatch):
    counts = _count_builds(monkeypatch)
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])
    hs = [sim.history() for sim in iter_sims(ExploreConfig("jayanti2", 1, script,
                                                             DfsBounded(40)))]
    hs += [sim.history() for sim in iter_sims(ExploreConfig(
        "jayanti3", 2, random_script(2, 2, 6, 3), RandomWalks(3, 1)))]
    assert len({h.to_json() for h in hs}) == len(hs)
    for h in hs:
        d = derive(h)
        before = dict(counts)
        report = run_checks(d, ("F+", "F", "S"))
        assert report.passed, report.to_obj()
        assert counts["facts"] - before["facts"] == 1
        assert counts["groupings"] - before["groupings"] == 1


def test_forwarding_facts_corruption_is_reported_by_each_suite(monkeypatch):
    """A jayanti3 phase-2 commit without its ll edge stops the virtual-scan
    extraction: F and F+ report that one CorruptHistory, found once."""
    counts = _count_builds(monkeypatch)
    sim = next(iter_sims(ExploreConfig("jayanti3", 1,
                                       OpScript.from_lists([[("scan",)], [("write", 0, 2)]]),
                                       DfsBounded(1))))
    h = sim.history()
    voff = {e.id for e in h.events if e.op.startswith("voff")}
    assert voff
    h = History(h.algorithm, h.n, h.initial, h.events, h.rf,
                [(a, b) for a, b in h.ll if b not in voff])
    report = run_checks(derive(h), ("F+", "F", "S"))
    found = {name: [(v.axiom, v.witnesses, v.note) for v in res.violations]
             for name, res in report.suites.items()}
    assert found["F+"] == found["F"] == found["S"] == \
        [("H.corrupt", (min(voff),), "phase-2 commit has no load-link")]
    assert counts["facts"] == 1
