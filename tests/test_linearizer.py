"""The constructive linearization, sequential replay, and the oracle."""
import sys
from pathlib import Path

import pytest

from snaplab import History, Linearization, NotLinearizable, OpScript, SimRun, \
    brute_force_linearize, completed_set, derive, linearize, repro
from snaplab.harness import DfsBounded, RandomWalks, iter_sims
from snaplab.linearize import CycleError, LinearizeError, NoCandidate, SizeGuard, \
    build_whb, extend_total_writes, pick_maximal_candidate, replay_order, wrdiff_pairs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from diff_checker import mutants  # noqa: E402
from sweep import sweep_config  # noqa: E402


@pytest.fixture(scope="module")
def fig3():
    res = repro("jayanti1_fig3")
    return res, derive(res.history)


def test_completed_set_includes_effectful_unterminated_writes(fig3):
    res, d = fig3
    ec = completed_set(d)
    assert res.ids["w0p"] in ec  # never returned, but its cell write ran
    assert res.ids["scan"] in ec


def test_completed_set_excludes_unterminated_scans():
    sim = SimRun("jayanti1", 1, OpScript.from_lists([[("scan",)]]))
    sim.step(0)  # scan barely started
    d = derive(sim.history())
    scan = next(e for e in d.history.events if e.op == "scan")
    assert scan.id not in completed_set(d)


def run_one_op(sim, k):
    target = sim.threads[k].op_idx + 1
    while sim.threads[k].op_idx < target:
        sim.step(k)


def test_wrdiff_pairs_definition():
    # sequential: w(0,2); w(1,4); scan; w(1,5)  =>  wrDiff(w_{0}, w'_{1})
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 1, 4), ("write", 1, 5)],
                                  [("scan",)]])
    sim = SimRun("jayanti1", 2, script)
    for k in (0, 1, 2, 1):
        run_one_op(sim, k)
    h = sim.history()
    d = derive(h)
    w02 = next(e for e in h.events if e.op == "write[0]" and e.input == 2)
    w15 = next(e for e in h.events if e.op == "write[1]" and e.input == 5)
    assert (w02.id, w15.id) in wrdiff_pairs(d)


def test_single_cell_history_has_no_wrdiff(fig3):
    sim = SimRun("jayanti1", 1, OpScript.from_lists([[("write", 0, 2)], [("scan",)]]))
    sim.run_all(lambda en: en[0])
    assert wrdiff_pairs(derive(sim.history())) == set()


def test_mask_built_write_order_matches_pairwise_definition():
    """build_whb reads one successor mask per write; the definition asks
    the snapshot closure about every pair of effectful writes, and adds
    wrDiff.  The mutated naive history's write order has a cycle."""
    histories = [sim.history() for sim in iter_sims(sweep_config("alg1", DfsBounded(300)))]
    histories += [sim.history() for sim in iter_sims(sweep_config("alg3", RandomWalks(7, 40)))]
    cyclic = History.from_json(list(mutants("naive", 3, 75, 1))[-1])
    with pytest.raises(CycleError):
        extend_total_writes(derive(cyclic))
    for h in histories + [cyclic]:
        d = derive(h)
        hb = d.snap.hb
        writes = [w.id for ws in d.idx.effectful.values() for w in ws]
        want = {(a, b) for a in writes for b in writes if hb.hb(a, b)} | wrdiff_pairs(d)
        ids, _, adj = build_whb(d)
        got = {(a, ids[j]) for k, a in enumerate(ids) for j in range(len(ids)) if adj[k] >> j & 1}
        assert got == want


def test_naive_control_cycles_or_fails(fig3):
    d = derive(repro("naive_03").history)
    with pytest.raises(LinearizeError):
        linearize(d)
    assert isinstance(brute_force_linearize(d), NotLinearizable)


def test_extend_total_writes_is_deterministic(fig3):
    _, d = fig3
    t1 = extend_total_writes(d).total
    t2 = extend_total_writes(d).total
    assert t1 == t2
    ids, pos, adj = build_whb(d)
    rank = {w: k for k, w in enumerate(t1)}
    for k, w in enumerate(ids):
        m = adj[k]
        while m:
            low = m & -m
            assert rank[w] < rank[ids[low.bit_length() - 1]]
            m ^= low


def test_fig3_write_order_and_first_candidate(fig3):
    res, d = fig3
    worder = extend_total_writes(d)
    rank = worder.rank
    assert rank[res.ids["w0"]] < rank[res.ids["w1"]]
    assert rank[res.ids["w0"]] < rank[res.ids["w0p"]]
    assert rank[res.ids["w1"]] < rank[res.ids["w0p"]]  # forced by wrDiff
    lin = linearize(d)
    picks = lin.order[::-1]  # the backward construction's picks
    assert picks[0] == res.ids["w0p"]  # greatest unobserved write goes last
    assert pick_maximal_candidate(d) == res.ids["w0p"]
    assert lin.legal
    # a scan observing every per-cell greatest remaining write is selectable
    assert picks[1] == res.ids["scan"]


def test_fig3_linearization_replays_to_2_4(fig3):
    res, d = fig3
    lin = linearize(d)
    order = lin.order
    assert order.index(res.ids["w0"]) < order.index(res.ids["w1"])
    assert order.index(res.ids["w0"]) < order.index(res.ids["w0p"])
    scan_state = dict(lin.replay)[res.ids["scan"]]
    assert scan_state == [2, 4]


def test_replay_examples():
    sim = SimRun("naive", 2, OpScript.from_lists([[("write", 0, 2), ("scan",)]]))
    sim.run_all(lambda en: en[0])
    d = derive(sim.history())
    h = d.history
    w = next(e for e in h.events if e.op == "write[0]" and e.input == 2)
    s = next(e for e in h.events if e.op == "scan")
    inits = [e.id for e in h.events if e.op.startswith("write[") and e.id not in (w.id,)]
    good, _ = replay_order(d, inits + [w.id, s.id])
    assert good
    bad, _ = replay_order(d, inits + [s.id, w.id])
    assert not bad


def test_sequential_history_linearizes_in_program_order():
    sim = SimRun("jayanti1", 1, OpScript.from_lists([[("write", 0, 2), ("scan",)]]))
    sim.run_all(lambda en: en[0])
    d = derive(sim.history())
    lin = linearize(d)
    h = d.history
    w = next(e for e in h.events if e.op == "write[0]" and e.input == 2)
    s = next(e for e in h.events if e.op == "scan")
    assert lin.legal and lin.order.index(w.id) < lin.order.index(s.id)


def test_oracle_single_op_trivial():
    sim = SimRun("naive", 1, OpScript.from_lists([[("scan",)]]))
    sim.run_all(lambda en: en[0])
    verdict = brute_force_linearize(derive(sim.history()))
    assert isinstance(verdict, Linearization) and verdict.legal


def test_oracle_size_guard():
    script = OpScript.from_lists([[("write", 0, k) for k in range(1, 12)]])
    sim = SimRun("naive", 1, script)
    sim.run_all(lambda en: en[0])
    with pytest.raises(SizeGuard):
        brute_force_linearize(derive(sim.history()), guard=10)


def test_linearize_deterministic(fig3):
    res, _ = fig3
    l1 = linearize(derive(res.history)).to_json()
    l2 = linearize(derive(res.history)).to_json()
    assert l1 == l2


def test_monotone_extension(fig3):
    """The emitted order contains returns-before and the derived visibility."""
    res, d = fig3
    lin = linearize(d)
    pos = {e: k for k, e in enumerate(lin.order)}
    hb = d.snap.hb
    for a in lin.order:
        for b in lin.order:
            if a != b and hb.hb(a, b):
                assert pos[a] < pos[b]
