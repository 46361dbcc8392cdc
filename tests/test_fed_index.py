"""The recorder-fed event index against one built from the loaded history.

A recorder feeds its ``EventIndex`` one event and one edge at a time and
truncates it when the DFS rewinds; a history gets the index itself, and
while that history is alive the recorder lets the index go and feeds a
new one for the next history.  A history taken while an operation is
open gets none.  So the index, the rep closure and the register traces
that ``derive`` reads from a recorder's history, threadsafe or not, must
equal those built by feeding the same history after a JSON round trip,
and what a history derived must not change when the DFS moves on.
"""
import sys
from pathlib import Path

import pytest

from snaplab import ExploreConfig, History, OpScript, SimRun, derive, explore, events
from snaplab.events import EventIndex
from snaplab.harness import DfsBounded, StressConfig, iter_sims, random_script, stress_once
from snaplab.memo import register_keys
from snaplab.visibility import HbClosure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from report_stream import QUICK  # noqa: E402
from sweep import sweep_config  # noqa: E402

ALG2 = ("jayanti2", 1, [[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])


def _ids(events) -> list:
    return [e.id for e in events]


def index_state(idx: EventIndex) -> dict:
    """Everything the index holds, with events named by id."""
    return {
        "kids": {p: _ids(k) for p, k in idx.kids.items()},
        "regs": {reg: ([_ids(getattr(ops, m)) for m in ("writes", "reads", "lls", "scs",
                                                         "vls", "trace")],
                       ops.keyparts, ops.rf_pairs, ops.ll_pairs)
                 for reg, ops in idx.regs.items()},
        "rf_src": idx.rf_src, "ll_src": idx.ll_src,
        "abs_writes": {c: _ids(ws) for c, ws in idx.abs_writes.items()},
        "abs_scans": _ids(idx.abs_scans),
        "wa_of": {w: e.id for w, e in idx.wa_of.items()},
        "effectful": {c: _ids(ws) for c, ws in idx.effectful.items()},
        "reps": _ids(idx.reps), "rep_pos": idx.rep_pos,
        "chained": idx.chained, "traced": idx.traced,
        "instances": {p: {inst: {base: _ids(g.values()) if isinstance(g, dict) else _ids(g)
                                 for base, g in groups.items()}
                          for inst, groups in idx.instances(p).items()}
                      for p in idx.kids},
    }


def derived_state(h) -> tuple:
    """What ``derive`` reads off the index of ``h``: the index, the rep
    closure's pairs and the register keys."""
    d = derive(h)
    return index_state(d.idx), sorted(d.rep_hb.pairs()), register_keys(d)


def _holds_its_own_events(h) -> bool:
    idx = derive(h).idx
    held = {id(e) for e in h.events}
    return all(id(e) in held for e in (*idx.reps, *idx.abs_scans,
                                        *(w for ws in idx.abs_writes.values() for w in ws)))


@pytest.mark.parametrize("name", list(QUICK))
def test_fed_index_equals_the_rebuilt_one(name):
    """At every leaf of each quick sweep prefix: the fed index, the rep
    closure and the register traces equal those of the loaded copy, and
    the rep closure equals the generic closure over rf ∪ ll."""
    leaves = 0
    for sim in iter_sims(sweep_config(name, QUICK[name])):
        h = sim.history()
        loaded = History.from_json(h.to_json())
        assert h.index is not None and loaded.index is None
        fed = derived_state(h)
        assert fed == derived_state(loaded)
        intervals = {e.id: (e.start, e.end) for e in h.events if e.kind == events.REP}
        assert fed[1] == sorted(HbClosure(intervals, h.rf + h.ll).pairs())
        assert fed[0]["chained"] and fed[2] is not None
        del h, loaded  # so the recorder feeds the same index on, in place
        leaves += 1
    assert leaves == QUICK[name].limit if isinstance(QUICK[name], DfsBounded) else leaves > 0


def test_explore_lets_each_leaf_go(monkeypatch):
    """explore() holds no leaf's history when the DFS moves on, so the
    recorder feeds its one index in place and makes no other."""
    made = []
    init = EventIndex.__init__
    monkeypatch.setattr(EventIndex, "__init__", lambda idx, *a: made.append(a) or init(idx, *a))
    algorithm, n, threads = ALG2
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(200),
                        suites=("M", "M+", "L", "F+", "F", "S", "CHAIN"), linearize=True)
    assert explore(cfg).schedules == 200
    assert len(made) == 1


def test_a_stress_history_comes_with_its_index():
    """A real-thread run's history holds the index its recorder fed, equal
    to one fed from its loaded copy, and ``derive`` reads it."""
    h = stress_once(StressConfig("jayanti3", 2, random_script(2, 2, 10, 7)))
    loaded = History.from_json(h.to_json())
    assert h.index is not None and h.index.describes(h) and derive(h).idx is h.index
    assert index_state(h.index) == index_state(EventIndex(loaded))
    assert derived_state(h) == derived_state(loaded)


def test_a_leaf_derivation_survives_the_dfs_moving_on():
    """A leaf kept while the DFS yields 50 more, and a mid-run history
    taken before the DFS restores past it, derive what they did."""
    algorithm, n, threads = ALG2
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(200))
    sims = iter_sims(cfg)
    for _ in range(20):
        sim = next(sims)
    kept = sim.history()
    d = derive(kept)
    before = index_state(d.idx), sorted(d.rep_hb.pairs()), register_keys(d)
    for _ in range(50):
        next(sims)
    assert (index_state(d.idx), sorted(d.rep_hb.pairs()), register_keys(d)) == before
    assert derived_state(kept) == derived_state(History.from_json(kept.to_json()))
    assert _holds_its_own_events(kept)

    sim = SimRun(algorithm, n, OpScript.from_lists(threads))
    cp = sim.checkpoint()
    sim.run_schedule([2, 2, 0, 2])  # the scan and a write are open
    mid = sim.history()
    assert any(not e.terminated for e in mid.events)
    assert mid.index is None  # derive feeds one from its own events
    before = derived_state(mid)
    sim.run_all(lambda en: en[-1])
    sim.restore(cp)
    sim.run_all(lambda en: en[0])
    assert derived_state(mid) == before
    assert before == derived_state(History.from_json(mid.to_json()))
    assert _holds_its_own_events(mid)


def test_explore_parses_no_rep_op(monkeypatch):
    """The recorder keeps each rep event's parsed step label, so an
    exploration parses no op text."""
    calls = []
    parse = events.parse_rep_op

    def counting(op):
        calls.append(op)
        return parse(op)

    monkeypatch.setattr(events, "parse_rep_op", counting)
    algorithm, n, threads = ALG2
    summary = explore(ExploreConfig(algorithm, n, OpScript.from_lists(threads),
                                    DfsBounded(1000), suites=("M", "M+", "L", "F+", "F", "S")))
    assert summary.schedules == 1000
    assert calls == []
    History.from_json(SimRun(algorithm, n, OpScript.from_lists(threads)).history().to_json())
    assert calls  # the loader parses
