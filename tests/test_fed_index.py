"""The recorder-fed event index against one built from the loaded history.

A recorder feeds its ``EventIndex`` one event and one edge at a time and
truncates it when the DFS rewinds; a history gets the index itself, and
while that history is alive the recorder lets the index go and feeds a
new one for the next history.  A history taken while an operation is
open gets none.  So the index, the rep closure and the register traces
that ``derive`` reads from a recorder's history, threadsafe or not, must
equal those built by feeding the same history after a JSON round trip,
and what a history derived must not change when the DFS moves on.

The forwarding facts the index feeds or keeps per operation (the
identity virtual scans, the forward instances, the step layout and the
wa masks) must equal those rebuilt from the whole history by the
reference functions below, which read every event as the facts were
read before they were fed.
"""
import copy
import sys
import weakref
from pathlib import Path

import pytest

from snaplab import ExploreConfig, History, OpScript, SimRun, derive, explore, events
from snaplab.events import EventIndex
from snaplab.harness import DfsBounded, StressConfig, iter_sims, random_script, stress_once
from snaplab.memo import register_keys, scan_marks, step_layout
from snaplab.visibility import CorruptHistory, HbClosure, VirtualScan, _identity_sigmas, \
    collect_forwards

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


# -- the four forwarding facts, fed and rebuilt ---------------------------------

def _rebuilt_sigmas(idx: EventIndex) -> list:
    """Each abs scan as its own virtual scan, from its steps by start."""
    out = []
    for s in idx.abs_scans:
        sigma = VirtualScan(s.id, s.start, s.end, fwd_array="B", owner=s.id)
        for e in idx.kids.get(s.id, ()):
            base, i, _, _ = e.info
            if base in ("r", "a", "b"):
                getattr(sigma, base)[i] = e.id
            elif base in ("on", "off"):
                setattr(sigma, base, e.id)
        sigma.on_obs, sigma.off_obs = sigma.on, sigma.off
        sigma.complete = s.terminated and sigma.covers(idx.h.n)
        out.append(vars(sigma))
    return out


def _rebuilt_forwards(idx: EventIndex):
    """The forward instances by (parent, k) from the rep events in history
    order, or the message of the CorruptHistory that stops the grouping."""
    found = {}
    for e in idx.reps:
        base, i, inst, _ = e.info
        if base in ("fll", "fa", "fvl", "fsc"):
            if e.parent is None or inst is None:
                return "forward step outside an operation's instance"
            if e.parent not in idx.abs_rank and e.parent not in {x.id for x in idx.h.events}:
                return "parent references a missing event"
            f = found.setdefault((e.parent, inst), {"write": e.parent, "cell": i})
            f[base] = e.id
            if base in ("fll", "fsc"):
                f["reg"] = e.object
    out = [found[k] for k in sorted(found)]
    for f in out:
        f["first"] = min(f[b] for b in ("fll", "fa", "fvl", "fsc") if b in f)
    return out


def _fed_forwards(idx: EventIndex):
    try:
        fwds = collect_forwards(idx)
    except CorruptHistory as exc:
        return str(exc)
    out = []
    for f in fwds:
        got = {"write": f.write, "cell": f.cell, "first": f.first.id}
        got.update((b, getattr(f, b).id) for b in ("fll", "fa", "fvl", "fsc")
                   if getattr(f, b) is not None)
        if f.reg is not None:
            got["reg"] = f.reg
        out.append(got)
    return out


def _rebuilt_layout(idx: EventIndex):
    """Per abs operation, then for the rep events of none, the registers of
    the steps by start; None unless ids ascend along each, no abs event
    has a rep event's id and no operation has two wa steps."""
    def registers(steps):
        ids = [e.id for e in steps]
        return tuple(e.object for e in steps) if ids == sorted(set(ids)) else None

    if any(sum(e.info[0] == "wa" for e in steps) > 1 for steps in idx.kids.values()):
        return None
    layout = [None if a in idx.rep_pos else registers(idx.kids.get(a, ()))
              for a in idx.abs_rank]
    layout.append(registers([e for e in idx.reps if e.parent is None]))
    return None if None in layout else layout


def _rebuilt_wa_masks(idx: EventIndex) -> list:
    """Per rep event, the writes whose last wa step comes before it in
    ``reps``, as a bit mask over their invocation ranks."""
    was = [(idx.rep_pos[wa.id], w) for w, wa in idx.wa_of.items()]
    return [sum(1 << idx.abs_rank[w] for q, w in was if q < p) for p in range(len(idx.reps))]


def forwarding_facts(idx: EventIndex, rebuilt: bool) -> dict:
    """The four forwarding facts of ``idx``: as fed, or rebuilt.  The layout
    and the masks are compared where the forwarding key reads them."""
    keyed = idx.traced and idx.laid
    return {
        "sigmas": _rebuilt_sigmas(idx) if rebuilt else [vars(s) for s in
                                                        _identity_sigmas(idx)[0]],
        "forwards": (_rebuilt_forwards if rebuilt else _fed_forwards)(idx),
        "layout": (_rebuilt_layout(idx) if rebuilt else step_layout(idx)) if idx.traced
        else None,
        "wa_masks": (_rebuilt_wa_masks(idx) if rebuilt else idx.wa_masks) if keyed else None,
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
    closure and the register traces equal those of the loaded copy, the
    rep closure equals the generic closure over rf ∪ ll, and the fed
    forwarding facts, of the leaf and of its loaded copy, equal the
    rebuilt ones."""
    leaves = 0
    for sim in iter_sims(sweep_config(name, QUICK[name])):
        h = sim.history()
        loaded = History.from_json(h.to_json())
        assert h.index is not None and loaded.index is None
        fed = derived_state(h)
        assert fed == derived_state(loaded)
        for idx in (derive(h).idx, derive(loaded).idx):
            assert forwarding_facts(idx, False) == forwarding_facts(idx, True)
        intervals = {e.id: (e.start, e.end) for e in h.events if e.kind == events.REP}
        assert fed[1] == sorted(HbClosure(intervals, h.rf + h.ll).pairs())
        assert fed[0]["chained"] and fed[2] is not None
        del h, loaded  # so the recorder feeds the same index on, in place
        leaves += 1
    assert leaves == QUICK[name].limit if isinstance(QUICK[name], DfsBounded) else leaves > 0


def test_truncate_equals_feeding_the_prefix():
    """An index fed a whole alg2 leaf and read, then truncated to a mark,
    holds and reads what one fed only the events and edges before that
    mark does, for every mark; so does a loaded jayanti3 stress history,
    whose rep events overlap."""
    algorithm, n, threads = ALG2
    sims = iter_sims(ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(30)))
    leaves = [sim.history() for sim in sims][::7]
    loaded = History.from_json(stress_once(StressConfig(
        "jayanti3", 2, random_script(2, 2, 4, 3))).to_json())
    loaded.rf.sort(key=lambda edge: edge[1])  # as a recorder adds them
    loaded.ll.sort(key=lambda edge: edge[1])
    leaves.append(loaded)
    compared = 0
    for h in leaves:
        for k in range(len(h.events) + 1):
            mark = (k, sum(b < k for _, b in h.rf), sum(b < k for _, b in h.ll))
            if any(b >= k for _, b in h.rf[:mark[1]] + h.ll[:mark[2]]):
                continue  # an edge before the mark leads past it: no recorder's mark
            prefix = History(h.algorithm, h.n, h.initial, h.events[:k], h.rf[:mark[1]],
                             h.ll[:mark[2]])
            idx = EventIndex(h)
            forwarding_facts(idx, False)
            idx.truncate(h.events, h.rf, h.ll, mark)
            idx._h = weakref.ref(prefix)
            want = EventIndex(prefix)
            assert index_state(idx) == index_state(want)
            assert forwarding_facts(idx, False) == forwarding_facts(want, False)
            assert [idx.registers(a) for a in idx.kids] == [want.registers(a) for a in want.kids]
            compared += 1
    assert compared == sum(len(h.events) + 1 for h in leaves)


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
    for idx in (h.index, derive(loaded).idx):
        facts = forwarding_facts(idx, False)
        assert facts == forwarding_facts(idx, True)
        assert facts["sigmas"] and facts["wa_masks"]  # forwards depend on the threads' timing


def leaf_facts(d) -> tuple:
    """What a leaf's forwarding level and keys read, copied, so that a
    later change to an object the leaf holds shows."""
    return copy.deepcopy(([vars(s) for s in d.sigmas], d.fwd_edges, step_layout(d.idx),
                          scan_marks(d)))


def test_a_leaf_derivation_survives_the_dfs_moving_on():
    """A leaf kept while the DFS yields 50 more, and a mid-run history
    taken before the DFS restores past it, derive what they did: the
    index, the rep closure, the register keys, and the virtual scans,
    forwarding edges, step layout and scan marks the leaf read."""
    algorithm, n, threads = ALG2
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(200))
    sims = iter_sims(cfg)
    for _ in range(20):
        sim = next(sims)
    kept = sim.history()
    d = derive(kept)
    held = d.sigmas, d.fwd_edges, step_layout(d.idx), scan_marks(d)
    before = index_state(d.idx), sorted(d.rep_hb.pairs()), register_keys(d), leaf_facts(d)
    assert None not in held[2:] and held[0] and held[1]
    for _ in range(50):
        next(sims)
    assert (index_state(d.idx), sorted(d.rep_hb.pairs()), register_keys(d),
            leaf_facts(d)) == before
    assert copy.deepcopy(([vars(s) for s in held[0]], *held[1:])) == before[3]
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
