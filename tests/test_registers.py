"""Instrumented register semantics: atomic cells, LL/SC/VL, link state,
all through ``Memory.step``."""
import pytest

from snaplab import HistoryRecorder, Memory, UsageError
from snaplab.algorithms import LL, R, SC, VL, W
from snaplab.events import ABS, UNIT


def fresh(threadsafe=False):
    rec = HistoryRecorder("naive", 1, [0], threadsafe=threadsafe)
    mem = Memory(rec, threadsafe=threadsafe)
    abs_ev = rec.begin(ABS, "probe", None, None, None)
    return rec, mem, abs_ev.id


def test_write_then_read_observes_value_and_rf():
    rec, mem, par = fresh()
    mem.make("A[0]", None)
    assert mem.step((W, "A[0]", 2, "wa"), 0, par) is None
    got = mem.step((R, "A[0]", None, "a[0]"), 0, par)
    assert got == 2
    h = rec.history()
    w = next(e for e in h.events if e.op == "wa.w")
    r = next(e for e in h.events if e.op == "a[0].r")
    assert (w.id, r.id) in h.rf
    assert w.input == r.output == 2
    assert w.output == UNIT


def test_sequential_writes_read_latest():
    rec, mem, par = fresh()
    mem.make("A[0]", None)
    mem.step((W, "A[0]", 2, "wa"), 0, par)
    mem.step((W, "A[0]", 3, "wa"), 0, par)
    assert mem.step((R, "A[0]", None, "a[0]"), 0, par) == 3


def test_read_of_initialized_register_observes_init_event():
    rec, mem, par = fresh()
    mem.make("X", False, init_event=True)
    assert mem.step((R, "X", None, "wx"), 0, par) is False
    h = rec.history()
    init = next(e for e in h.events if e.op == "init.w")
    r = next(e for e in h.events if e.op == "wx.r")
    assert (init.id, r.id) in h.rf


def test_ll_sc_no_interference_succeeds():
    rec, mem, par = fresh()
    mem.make("B", None)
    assert mem.step((LL, "B", None, "fll[0]"), 0, par) is None
    assert mem.step((SC, "B", 5, "fsc[0]"), 0, par) is True
    assert mem.step((R, "B", None, "b[0]"), 0, par) == 5


def test_interfering_sc_fails_and_preserves_value():
    rec, mem, par = fresh()
    mem.make("B", None)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    mem.step((LL, "B", None, "fll[0]"), 1, par)
    assert mem.step((SC, "B", 7, "fsc[0]"), 1, par) is True
    assert mem.step((SC, "B", 9, "fsc[0]"), 0, par) is False
    assert mem.step((R, "B", None, "b[0]"), 0, par) == 7


def test_plain_write_also_breaks_links():
    rec, mem, par = fresh()
    mem.make("B", None)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    mem.step((W, "B", 4, "r[0]"), 0, par)
    assert mem.step((SC, "B", 9, "fsc[0]"), 0, par) is False


def test_disjoint_pairs_both_succeed():
    rec, mem, par = fresh()
    mem.make("B", None)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    assert mem.step((SC, "B", 1, "fsc[0]"), 0, par) is True
    mem.step((LL, "B", None, "fll[0]"), 1, par)
    assert mem.step((SC, "B", 2, "fsc[0]"), 1, par) is True


def test_sc_without_ll_is_a_usage_error():
    rec, mem, par = fresh()
    mem.make("B", None)
    with pytest.raises(UsageError, match=r"^SC on B without prior LL by thread 0$"):
        mem.step((SC, "B", 1, "fsc[0]"), 0, par)
    with pytest.raises(UsageError, match=r"^VL on B without prior LL by thread 0$"):
        mem.step((VL, "B", None, "fvl[0]"), 0, par)
    assert rec.history().events[1:] == []  # neither recorded an event


@pytest.mark.parametrize("memop", [6, -1, None, "r", [0]])
def test_unknown_memop_is_a_bad_step_descriptor(memop):
    rec, mem, par = fresh()
    mem.make("B", None)
    desc = (memop, "B", None, "b[0]")
    with pytest.raises(ValueError, match=r"^bad step descriptor "):
        mem.step(desc, 0, par)
    assert rec.history().events[1:] == []


@pytest.mark.parametrize("interfere", ["none", "write", "sc", "self_reread"])
def test_vl_reports_exactly_what_sc_would(interfere):
    """Twin check: VL's verdict equals the success an SC would have had from
    the same state, and VL leaves that state as it was."""
    rec, mem, par = fresh()
    mem.make("B", None)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    if interfere == "write":
        mem.step((W, "B", 8, "r[0]"), 0, par)
    elif interfere == "sc":
        mem.step((LL, "B", None, "fll[0]"), 1, par)
        mem.step((SC, "B", 8, "fsc[0]"), 1, par)
    elif interfere == "self_reread":
        mem.step((LL, "B", None, "fll[0]"), 0, par)  # relink
    cell = mem.cells["B"]
    before = (cell.value, cell.last_writer, cell.version)
    ok = mem.step((VL, "B", None, "fvl[0]"), 0, par)
    assert (cell.value, cell.last_writer, cell.version) == before  # VL never mutates
    assert ok is (interfere in ("none", "self_reread"))
    assert mem.step((SC, "B", 3, "fsc[0]"), 0, par) is ok


def test_sc_success_iff_linked_writer_still_current():
    rec, mem, par = fresh()
    mem.make("B", None)
    mem.step((W, "B", 1, "r[0]"), 0, par)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    linked_writer = mem.cells["B"].last_writer
    mem.step((W, "B", 2, "r[0]"), 0, par)
    still_current = mem.cells["B"].last_writer == linked_writer
    assert mem.step((SC, "B", 3, "fsc[0]"), 0, par) is still_current


def test_ll_edges_pair_with_latest_ll():
    rec, mem, par = fresh()
    mem.make("B", None)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    mem.step((LL, "B", None, "fll[0]"), 0, par)
    mem.step((SC, "B", 5, "fsc[0]"), 0, par)
    h = rec.history()
    lls = sorted((e for e in h.events if e.op == "fll[0].ll"), key=lambda e: e.start)
    sc = next(e for e in h.events if e.op == "fsc[0].sc")
    assert (lls[1].id, sc.id) in h.ll
    assert (lls[0].id, sc.id) not in h.ll


def test_concurrent_writes_reads_observe_exactly_one():
    """Enumerating both interleavings of two racing writes: a read observes
    exactly one of them, never a blend."""
    from snaplab import ExploreConfig, Exhaustive, OpScript, explore

    outputs = set()
    cfg = ExploreConfig("naive", 1,
                        OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)],
                                             [("scan",)]]),
                        Exhaustive(1000), suites=("M", "S"))
    summary = explore(cfg, per_result=lambda res: outputs.add(
        tuple(next(e for e in res.history.events if e.op == "scan").output)))
    assert summary.violations == 0
    assert outputs <= {(0,), (2,), (3,)}
    assert {(2,), (3,)} <= outputs
