"""Derived relations: closures, virtual scans, forwarding, snapshot edges."""
import pytest
from hypothesis import given, strategies as st

from snaplab import CorruptHistory, ExploreConfig, Exhaustive, HbClosure, OpScript, \
    SimRun, derive, repro
from snaplab.harness import RandomWalks, iter_sims
from snaplab.visibility import EventIndex


# -- HbClosure against a Floyd-Warshall oracle --------------------------------

def warshall(intervals, edges):
    ids = sorted(intervals)
    pos = {e: k for k, e in enumerate(ids)}
    n = len(ids)
    m = [[False] * n for _ in range(n)]
    for a in ids:
        for b in ids:
            if a != b and intervals[a][1] < intervals[b][0]:
                m[pos[a]][pos[b]] = True
    for a, b in edges:
        m[pos[a]][pos[b]] = True
    for k in range(n):
        for i in range(n):
            if m[i][k]:
                for j in range(n):
                    if m[k][j]:
                        m[i][j] = True
    cyclic = any(m[i][i] for i in range(n))
    return ids, pos, m, cyclic


def compare_closures(intervals, edges):
    ids, pos, m, cyclic = warshall(intervals, edges)
    if cyclic:
        with pytest.raises(CorruptHistory):
            HbClosure(intervals, edges)
        return
    hb = HbClosure(intervals, edges)
    for a in ids:
        for b in ids:
            assert hb.hb(a, b) == m[pos[a]][pos[b]], (a, b)


def test_closure_small_frozen_case():
    intervals = {0: (0, 1), 1: (0, 5), 2: (2, 3), 3: (6, 7)}
    edges = [(1, 2)]
    # oracle by hand: 0<2 (rb), 0<3, 2<3, 1->2 (edge), 1<3, and 1->2<3
    hb = HbClosure(intervals, edges)
    expected = {(0, 2), (0, 3), (2, 3), (1, 2), (1, 3)}
    assert set(hb.pairs()) == expected
    compare_closures(intervals, edges)


def test_closure_detects_cycles():
    intervals = {0: (0, 1), 1: (2, 3)}
    with pytest.raises(CorruptHistory):
        HbClosure(intervals, [(1, 0)])  # edge against returns-before


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4)), min_size=1,
                max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10))
def test_closure_matches_warshall(spans, raw_edges):
    intervals = {i: (s, s + d) for i, (s, d) in enumerate(spans)}
    edges = [(a % len(spans), b % len(spans)) for a, b in raw_edges
             if a % len(spans) != b % len(spans)]
    compare_closures(intervals, edges)


def test_max_pred_start():
    """``max_pred`` names the node that starts last among a node and its
    predecessors."""
    intervals = {0: (0, 1), 1: (4, 5), 2: (2, 9)}
    hb = HbClosure(intervals, [(2, 1)])
    best = hb.max_pred()
    assert best[0] == 0
    assert best[1] == 1  # preds {0, 2} start at 0 and 2, before its own 4
    assert best[2] == 2
    # an edge from a later-starting node: 2's predecessors are 0 and 1
    assert HbClosure(intervals, [(1, 2)]).max_pred() == {0: 0, 1: 1, 2: 1}
    # a chain, where every predecessor starts earlier: each node itself
    chain = HbClosure({0: (0, 1), 1: (2, 3), 2: (4, 5)}, [(0, 2)])
    assert chain.max_pred() == {0: 0, 1: 1, 2: 2}


# -- rep-level visibility ------------------------------------------------------

def test_two_sequential_reads_of_one_write():
    from snaplab import HistoryRecorder, Memory
    from snaplab.algorithms import R, W
    from snaplab.events import ABS

    rec = HistoryRecorder("naive", 1, [0])
    mem = Memory(rec)
    mem.make("A[0]", None)
    par = rec.begin(ABS, "probe", None, None, None).id
    mem.step((W, "A[0]", 5, "wa"), 0, par)
    mem.step((R, "A[0]", None, "a[0]"), 0, par)
    mem.step((R, "A[0]", None, "a[0]"), 0, par)
    h = rec.history()
    d = derive(h)
    w = next(e for e in h.events if e.op == "wa.w")
    r1, r2 = [e for e in h.events if e.op == "a[0].r"]
    assert (w.id, r1.id) in h.rf and (w.id, r2.id) in h.rf
    hb = d.rep_hb
    assert hb.hb(w.id, r1.id) and hb.hb(w.id, r2.id) and hb.hb(r1.id, r2.id)


def test_empty_history_has_empty_edges():
    sim = SimRun("naive", 1, OpScript.from_lists([]))
    d = derive(sim.history())
    assert d.history.rf == [] or all(
        d.history.event(w).op == "wa.w" for w, _ in d.history.rf)
    assert d.fwd_edges == []


# -- Fig. 3 scripted history ----------------------------------------------------

@pytest.fixture(scope="module")
def fig3():
    res = repro("jayanti1_fig3")
    return res, derive(res.history)


def test_fig3_forwarding_edge(fig3):
    res, d = fig3
    assert (res.ids["w0"], res.ids["scan"], 0) in d.fwd_edges
    assert len(d.fwd_edges) == 1


def test_fig3_snapshot_edges(fig3):
    res, d = fig3
    rf = d.snap.rf_pairs
    assert (res.ids["w0"], res.ids["scan"]) in rf
    assert (res.ids["w1"], res.ids["scan"]) in rf
    assert not any(w == res.ids["w0p"] for w, _ in rf)
    effectful = {w.id for ws in d.idx.effectful.values() for w in ws}
    assert {res.ids["w0"], res.ids["w0p"], res.ids["w1"]} <= effectful


def test_fig3_rep_hb_reaches_forward_chain(fig3):
    res, d = fig3
    h = res.history
    wa_w0 = d.idx.wa_of[res.ids["w0"]]
    b0 = next(e for e in h.events if e.op == "b[0].r")
    assert d.rep_hb.hb(wa_w0.id, b0.id)


def test_identity_sigma_intervals_equal_scan(fig3):
    res, d = fig3
    sigma = next(s for s in d.sigmas)
    scan = res.history.event(res.ids["scan"])
    assert (sigma.start, sigma.end) == (scan.start, scan.end)
    assert d.sigma_of[scan.id] == sigma.id == scan.id


def test_fig3_direct_vs_forwarded_observation(fig3):
    res, d = fig3
    sigma_id = d.sigma_of[res.ids["scan"]]
    fl = d.flevel
    assert fl.obs[sigma_id] == {0: [res.ids["w0"]], 1: [res.ids["w1"]]}
    assert fl.fwd_by_slot == {(sigma_id, 0): [res.ids["w0"]]}  # cell 1 was read directly


# -- Lemma-style instance checks -------------------------------------------------

def reps_of(d, node_id):
    if node_id in {s.id for s in d.sigmas}:
        sigma = next(s for s in d.sigmas if s.id == node_id)
        return [*sigma.r.values(), *sigma.a.values(), *sigma.b.values(),
                *(v for v in (sigma.on, sigma.off) if v is not None)]
    return [e.id for e in d.idx.kids.get(node_id, ())]


def test_abs_hb_has_rep_witnesses():
    """Whenever the forwarding-level order relates populated events, some
    pair of their rep events is ordered the same way."""
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)]])
    cfg = ExploreConfig("jayanti1", 1, script, Exhaustive(2000))
    for sim in iter_sims(cfg):
        d = derive(sim.history())
        fl = d.flevel
        rep_hb = d.rep_hb
        for a in fl.hb.ids:
            for b in fl.hb.ids:
                if a == b or not fl.hb.hb(a, b):
                    continue
                if not reps_of(d, b):
                    continue
                assert any(rep_hb.hb(x, y) for x in reps_of(d, a)
                           for y in reps_of(d, b)), (a, b)


def test_sigma_containment_all_algorithms():
    cases = [
        ("jayanti3", 1, [[("write", 0, 2)], [("scan",)], [("scan",)]]),
        ("afek", 2, [[("write", 0, 1), ("write", 0, 2)], [("scan",)]]),
    ]
    for algorithm, n, threads in cases:
        cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads),
                            RandomWalks(3, 120))
        for sim in iter_sims(cfg):
            d = derive(sim.history())
            by_id = {s.id: s for s in d.sigmas}
            for scan_id, sid in d.sigma_of.items():
                scan = d.history.event(scan_id)
                sigma = by_id[sid]
                assert scan.start <= sigma.start and sigma.end <= scan.end


def test_alg3_solo_scan_has_one_sigma():
    sim = SimRun("jayanti3", 1, OpScript.from_lists([[("scan",)]]))
    sim.run_all(lambda en: en[0])
    d = derive(sim.history())
    assert len(d.sigmas) in (1, 2)  # the second pushVS may complete another
    scan = next(e for e in d.history.events if e.op == "scan")
    assert scan.id in d.sigma_of


def test_alg3_sigmas_pairwise_disjoint():
    script = OpScript.from_lists([[("write", 0, 2)], [("scan",)], [("scan",)]])
    cfg = ExploreConfig("jayanti3", 1, script, RandomWalks(11, 200))
    for sim in iter_sims(cfg):
        d = derive(sim.history())
        order = sorted((s for s in d.sigmas if s.complete), key=lambda s: s.start)
        for s1, s2 in zip(order, order[1:]):
            assert s1.end < s2.start


def test_afek_clean_scan_is_its_own_sigma():
    sim = SimRun("afek", 2, OpScript.from_lists([[("scan",)]]))
    sim.run_all(lambda en: en[0])
    d = derive(sim.history())
    scan = next(e for e in d.history.events if e.op == "scan")
    sigma = next(s for s in d.sigmas)
    assert d.sigma_of[scan.id] == sigma.id
    assert sigma.owner == scan.id
    assert all(d.history.event(v).parent == scan.id
               for v in [*sigma.a.values(), *sigma.b.values()])


def test_afek_view_scan_maps_to_writers_collect():
    script = OpScript.from_lists([[("write", 0, 1), ("write", 0, 2)], [("scan",)]])
    cfg = ExploreConfig("afek", 2, script, Exhaustive(50000))
    seen = False
    for sim in iter_sims(cfg):
        d = derive(sim.history())
        if not d.borrowed_views:
            continue
        seen = True
        scan = next(e for e in d.history.events if e.op == "scan")
        assert d.borrowed_views == [scan.id]
        sigma = next(s for s in d.sigmas if s.id == d.sigma_of[scan.id])
        assert sigma.owner != scan.id  # borrowed from a write's embedded collect
        owner = d.history.event(sigma.owner)
        assert owner.op.startswith("write[")
    assert seen


def test_fwd_unique_per_sigma_cell():
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])
    from snaplab.harness import DfsBounded
    cfg = ExploreConfig("jayanti2", 1, script, DfsBounded(3000))
    for sim in iter_sims(cfg):
        d = derive(sim.history())
        seen = {}
        for w, sid, i in d.fwd_edges:
            assert seen.setdefault((sid, i), w) == w
