"""explore()'s memo is exact: every schedule's report, linearization and
oracle verdict equal a fresh derivation of its own history."""
import dataclasses
import random

import pytest

from snaplab import ALGORITHMS, ExploreConfig, Exhaustive, History, Linearization, OpScript, \
    SimRun, brute_force_linearize, checker, derive, explore, linearize, random_script, \
    run_checks
from snaplab.algorithms import LL, R, VL, W, _forward
from snaplab.events import BOT, REP
from snaplab.harness import DfsBounded, RandomWalks, iter_sims
from snaplab.linearize import LinearizeError, SizeGuard
from snaplab.memo import Memo, forwarding_key, register_keys, snapshot_key, step_layout
from snaplab.registers import Memory

SUITES = ("RB", "M", "M+", "L", "F+", "F", "S", "CHAIN")


def _report(report) -> dict:
    obj = report.to_obj()
    obj["stats"] = {k: v for k, v in obj["stats"].items() if k != "wall_s"}
    return obj


def _verdict(v):
    if v is None:
        return None
    return ("lin", v.to_json()) if isinstance(v, Linearization) else ("not", v.to_obj())


def _fresh(cfg, history):
    """The report, linearization JSON, linearizer error and oracle verdict
    of ``history``, derived from scratch."""
    d = derive(history)
    lin = lin_ok = lin_err = None
    try:
        lin = linearize(d)
        lin_ok = lin.legal
    except LinearizeError as exc:
        lin_ok = False
        lin_err = f"{type(exc).__name__}: {exc}"
    report = run_checks(d, cfg.suites, lin_ok=lin_ok)
    try:
        verdict = brute_force_linearize(d, cfg.oracle_guard)
    except SizeGuard:
        verdict = None
    return (_report(report), list(report.suites), lin and lin.to_json(), lin_err,
            _verdict(verdict))


def _got(res):
    """What ``_fresh`` gives, as explore() found it for one schedule."""
    return (_report(res.report), list(res.report.suites), res.lin and res.lin.to_json(),
            res.lin_error, _verdict(res.oracle))


def _sweep(cfg):
    """Explore ``cfg`` and compare every schedule with a fresh derivation;
    returns the results and the summary."""
    results = []

    def per_result(res):
        assert _got(res) == _fresh(cfg, res.history), res.schedule
        results.append(res)

    summary = explore(cfg, per_result=per_result)
    return results, summary


CASES = {
    "alg2-dfs": ("jayanti2", 1, [[("write", 0, 2)], [("write", 0, 3)], [("scan",)]],
                 DfsBounded(1500)),
    "alg1-exhaustive": ("jayanti1", 1, [[("write", 0, 2), ("write", 0, 3)], [("scan",)]],
                        Exhaustive()),
    # one cell, so that scans borrow views
    "afek-exhaustive": ("afek", 1, [[("write", 0, 1), ("write", 0, 2)], [("scan",)]],
                        Exhaustive()),
    # two three-step scans repeat a behaviour when their middle steps swap
    "naive-exhaustive": ("naive", 3, [[("scan",)], [("scan",)], [("write", 0, 2)],
                                      [("write", 2, 3)]], Exhaustive()),
    "alg3-random": ("jayanti3", 1, [[("write", 0, 2)], [("scan",)], [("scan",)]],
                    RandomWalks(7, 150)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_memo_matches_fresh_derivation(name):
    algorithm, n, threads, mode = CASES[name]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), mode, suites=SUITES,
                        linearize=True, oracle=True)
    results, summary = _sweep(cfg)
    # the sweep repeats behaviours, so the memo was used
    assert 0 < summary.distinct_snapshot_keys < summary.schedules
    if name == "naive-exhaustive":
        assert summary.violations > 0  # S fires on the naive algorithm
    if algorithm in ("jayanti2", "jayanti3"):
        assert summary.distinct_register_keys > 0


def test_memo_on_long_random_histories():
    cfg = ExploreConfig("jayanti3", 2, random_script(2, 2, 6, 3), RandomWalks(3, 4),
                        suites=SUITES, linearize=True, oracle=True)
    _sweep(cfg)


def _recorded(mem, memop) -> int:
    """How many ``memop`` steps the run's history holds so far.  The DFS
    takes one Memory back and forth between schedules, so the fixtures
    count in the history, which it restores, not calls on the Memory."""
    return sum(1 for e in mem.recorder._events if e.op.endswith("." + memop))


def _break_second_vl(monkeypatch):
    """The second validate of a run succeeds whatever happened, and so lets
    the SC after it succeed: M+.llsc-success."""
    step = Memory.step

    def broken_step(self, desc, thread, parent):
        name = desc[1]
        link = self._links.get((thread, name))
        if desc[0] == VL and _recorded(self, "vl") == 1 and link is not None:
            self._links[(thread, name)] = link._replace(version=self.cells[name].version)
        return step(self, desc, thread, parent)

    monkeypatch.setattr(Memory, "step", broken_step)
    return "M+.llsc-success"


def _break_third_read(monkeypatch):
    """The third read of a run records a value nobody wrote: M.io or M+.io."""
    step = Memory.step

    def broken_step(self, desc, thread, parent):
        value = step(self, desc, thread, parent)
        if desc[0] == R and _recorded(self, "r") == 3:
            self.recorder._events[-1].output = "stale"
        return value

    monkeypatch.setattr(Memory, "step", broken_step)
    return ".io"


def _break_third_read_source(monkeypatch):
    """The third read of a run records that it read the register's first
    write, though it returns the latest: M.nowrbetween or M+.nowrbetween."""
    step = Memory.step

    def broken_step(self, desc, thread, parent):
        value = step(self, desc, thread, parent)
        if desc[0] == R and _recorded(self, "r") == 3:
            rec = self.recorder
            first = next(e.id for e in rec._events if e.object == desc[1])
            rec._rf[-1] = (first, rec._rf[-1][1])
        return value

    monkeypatch.setattr(Memory, "step", broken_step)
    return ".nowrbetween"


@pytest.mark.parametrize("broken", [_break_second_vl, _break_third_read,
                                    _break_third_read_source],
                         ids=["vl", "read-value", "read-source"])
def test_memo_maps_register_witnesses_back(monkeypatch, broken):
    """A broken register makes M, M+ or L fire; the memo's hits must name
    each schedule's own event ids."""
    axiom = broken(monkeypatch)
    algorithm, n, threads, mode = CASES["alg2-dfs"]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(600),
                        suites=SUITES, linearize=True, oracle=True)
    results, summary = _sweep(cfg)
    fired = {v.axiom for res in results for v in res.report.all_violations()}
    assert any(a.endswith(axiom) for a in fired), fired
    # some register trace fired in schedules that gave its events other ids
    witnesses: dict = {}
    for res in results:
        for suite in ("M", "M+", "L"):
            ws = tuple(v.witnesses for v in res.report.suites[suite].violations)
            if ws:
                witnesses.setdefault((suite, res.register_keys), set()).add(ws)
    assert any(len(seen) > 1 for seen in witnesses.values())


def _forward_once(bank, n, pid, i, v):
    """jayanti2's writer with its second forward left out."""
    yield (W, bank.A[i], v, ("wa", None, None))
    if (yield (LL, bank.X, None, ("wx", None, None))):
        yield from _forward(bank, bank.B[i], i, 1)


def test_memo_under_a_forwarding_fault(monkeypatch):
    """A writer that forwards once makes F+ fire; F and F+ read the F level
    a snapshot hit takes over, or their results come from the forwarding
    layer, with each schedule's own witnesses."""
    monkeypatch.setitem(ALGORITHMS, "jayanti2",
                        dataclasses.replace(ALGORITHMS["jayanti2"], writer=_forward_once))
    algorithm, n, threads, mode = CASES["alg2-dfs"]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(800),
                        suites=SUITES, linearize=True, oracle=True)
    results, summary = _sweep(cfg)
    fired = [v.axiom for res in results for v in res.report.all_violations()]
    assert fired.count("F+.wrstruct") == len(fired) == 1235
    assert 0 < summary.distinct_snapshot_keys < summary.schedules


def _flag_first(bank, n, pid, i, v):
    """jayanti2's writer with its flag read before its cell write."""
    x = yield (LL, bank.X, None, ("wx", None, None))
    yield (W, bank.A[i], v, ("wa", None, None))
    if x:
        yield from _forward(bank, bank.B[i], i, 1)
        yield from _forward(bank, bank.B[i], i, 2)


def _never_forward(bank, n, pid, i, v):
    """jayanti2's writer that reads the flag and never forwards."""
    yield (W, bank.A[i], v, ("wa", None, None))
    yield (LL, bank.X, None, ("wx", None, None))


def _read_before_flag(bank, n, pid):
    """jayanti2's scan with its reads of A before it raises its flag."""
    out = [None] * n
    for i in range(n):
        yield (W, bank.B[i], BOT, ("r", i, None))
    for i in range(n):
        out[i] = yield (R, bank.A[i], None, ("a", i, None))
    yield (W, bank.X, True, ("on", None, None))
    yield (W, bank.X, False, ("off", None, None))
    for i in range(n):
        b = yield (R, bank.B[i], None, ("b", i, None))
        if b is not BOT:
            out[i] = b
    return out


MUTANTS = {"forward-once": {"writer": _forward_once}, "flag-first": {"writer": _flag_first},
           "never-forward": {"writer": _never_forward},
           "read-before-flag": {"scanner": _read_before_flag}}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_memo_under_forwarding_mutants(monkeypatch, mutant, n):
    """Each schedule of a broken jayanti2 equals a fresh derivation, and the
    forwarding layer spares F+ on some of them."""
    monkeypatch.setitem(ALGORITHMS, "jayanti2",
                        dataclasses.replace(ALGORITHMS["jayanti2"], **MUTANTS[mutant]))
    ran = []
    body = checker._SUITE_FNS["F+"]
    monkeypatch.setitem(checker._SUITE_FNS, "F+", lambda d, out: (ran.append(1), body(d, out)))
    threads = [[("write", 0, 2)], [("write", n - 1, 3)], [("scan",)]]
    cfg = ExploreConfig("jayanti2", n, OpScript.from_lists(threads), DfsBounded(400),
                        suites=SUITES, linearize=True, oracle=True)
    results = []
    summary = explore(cfg, per_result=results.append)
    assert len(ran) < summary.schedules == 400
    for res in results:  # after explore(), so that only its F+ runs were counted
        assert _got(res) == _fresh(cfg, res.history), res.schedule
    assert summary.violations > 0


def _afek_history():
    """write[0] | scan | write[0] | write[0], with every tick scaled by ten
    so that events can move between their neighbours."""
    sim = SimRun("afek", 1, OpScript.from_lists([[("write", 0, 1), ("write", 0, 2)],
                                                 [("scan",)]]))
    sim.run_schedule([1, 1, 0, 0, 0, 0, 0, 0])
    h = History.from_json(sim.history().to_json())
    for e in h.events:
        e.start *= 10
        e.end *= 10
    return h


def _jayanti2_history(schedule=(1, 1, 1, 1, 0, 0, 1), shift=0):
    """write[0] | scan, by default with the write's cell write after the
    scan's a-read and the write returning inside the scan; every tick is
    scaled by ten, then moved by ``shift``."""
    sim = SimRun("jayanti2", 1, OpScript.from_lists([[("write", 0, 2)], [("scan",)]]))
    sim.run_schedule(schedule)
    h = History.from_json(sim.history().to_json())
    for e in h.events:
        e.start = e.start * 10 + shift
        e.end = e.end * 10 + shift
    return h


def test_a_hit_reads_its_own_ticks():
    """F.5 and F.6b compare a write's end with the start of the latest write
    a virtual scan observed.  A hit takes over another history's F level,
    so it must read that start from its own ticks: here the stored start is
    past every tick of the other copy, where F.5 would then fire."""
    early, late = _jayanti2_history(), _jayanti2_history(shift=10_000)
    assert _keys(early)[0] == _keys(late)[0]
    memo = Memo()
    ds = [derive(h) for h in (late, late, early, late)]
    for d in ds:  # the entry is kept from the second sighting, with late's levels
        memo.snapshot(d, lambda: None)
    assert ds[2].flevel is ds[1].flevel is ds[3].flevel
    for d in ds:
        fresh = run_checks(derive(d.history), ("F", "F+"))
        assert fresh.passed
        assert _report(run_checks(d, ("F", "F+"))) == _report(fresh)


def _keys(h):
    d = derive(h)
    return snapshot_key(d), register_keys(d)


def test_keys_read_the_order_of_ticks_not_their_values():
    h = _afek_history()
    for e in h.events:
        e.start, e.end = e.start * 3 + 1, e.end * 3 + 1
    assert _keys(h) == _keys(_afek_history())


def test_keys_change_with_what_the_checks_read():
    base = _keys(_afek_history())
    scan = lambda h: next(e for e in h.events if e.op == "scan")
    first_write = lambda h: next(e for e in h.events if e.op == "write[0]" and e.input == 0)

    def changed(edit, fires=None):
        h = _afek_history()
        edit(h)
        if fires is not None:
            assert fires(derive(h))
        return _keys(h)

    # the scan now overlaps the initial write: the abs order changed
    snap, regs = changed(lambda h: setattr(scan(h), "start", first_write(h).end - 5))
    assert snap != base[0] and regs == base[1]

    # a read of the scan's virtual scan ends after the scan: F.1 fires
    def escape(h):
        last = max((e for e in h.events if e.parent == scan(h).id), key=lambda e: e.end)
        last.end = scan(h).end + 5
    assert not derive(_afek_history()).fwd.escapes
    snap, regs = changed(escape, fires=lambda d: d.fwd.escapes)
    assert snap != base[0]

    # a rep read returns another value, or belongs to another operation
    def reread(h):
        r = next(e for e in h.events if e.op.endswith(".r") and e.parent != scan(h).id)
        r.output = [9, 9, [9]]
    snap, regs = changed(reread)
    assert regs != base[1]

    def reparent(h):
        r = next(e for e in h.events if e.op.endswith(".r") and e.parent != scan(h).id)
        r.parent = max(e.id for e in h.events if e.op == "write[0]")
    snap, regs = changed(reparent)
    assert regs != base[1]

    # jayanti2: the b-read observes its reset, not the forward, so the scan
    # observes the initial write through its a-read
    forwarded = (1, 1, 1) + (0,) * 10 + (1, 1)
    base2 = _keys(_jayanti2_history(forwarded))[0]
    h = _jayanti2_history(forwarded)
    b = next(e for e in h.events if e.op == "b[0].r")
    reset = next(e for e in h.events if e.op == "r[0].w")
    h.rf = [(reset.id if dst == b.id else src, dst) for src, dst in h.rf]
    assert _keys(h)[0] != base2

    # jayanti2: the virtual scan now ends before the write it spans returns
    base2 = _keys(_jayanti2_history())[0]
    h = _jayanti2_history()
    write = max((e for e in h.events if e.op == "write[0]"), key=lambda e: e.id)
    scan(h).end = write.end - 5
    assert _keys(h)[0] != base2


def _forwarded_over(swap: bool):
    """jayanti2, n = 1: w and w2 write 2, the scan raises its flag, w sees it
    and forwards twice, the scan's b-read observes the second forward.  Both
    forwards' A-reads are edited to read w's cell write, though w2's came
    between, so w is forwarded.  With ``swap``, w2's cell write moves from
    after the scan's reset of B[0] to before it, a step of another
    operation on another register: F.6a (an old write forwarded over a
    pre-scan write) then fires.  Every tick is scaled by ten."""
    sim = SimRun("jayanti2", 1, OpScript.from_lists([[("write", 0, 2)], [("write", 0, 2)],
                                                    [("scan",)]]))
    sim.run_schedule([0, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 1])
    h = History.from_json(sim.history().to_json())
    for e in h.events:
        e.start, e.end = e.start * 10, e.end * 10
    w, w2 = (e.id for e in h.events if e.op == "write[0]" and e.input == 2)
    scan = next(e.id for e in h.events if e.op == "scan")
    wa, wa2, reset = (next(e for e in h.events if e.op == op and e.parent == p)
                      for op, p in (("wa.w", w), ("wa.w", w2), ("r[0].w", scan)))
    fas = {e.id for e in h.events if e.op.startswith("fa[0]")}
    h.rf = [(wa.id if b in fas else a, b) for a, b in h.rf]
    if swap:
        reset.start, reset.end = wa2.start, wa2.end
        wa2.start, wa2.end = h.event(wa2.parent).start + 1, h.event(wa2.parent).start + 2
        h.events.sort(key=lambda e: e.start)
    return h


def test_forwarding_key_holds_the_order_across_registers():
    """Two histories that differ only in whether w2's cell write precedes the
    scan's reset share their snapshot key, register keys and step layout,
    but not F's verdict; so their forwarding keys differ, and one memo
    gives each history what a fresh derivation gives it."""
    before, after = _forwarded_over(True), _forwarded_over(False)
    fired = [{v.axiom for v in run_checks(derive(h), ("F",)).all_violations()}
             for h in (before, after)]
    assert fired == [{"F.6a"}, set()]
    keys = [_layer_keys(h) for h in (before, after)]
    assert keys[0][:3] == keys[1][:3]
    assert None not in keys[0] and keys[0][3] != keys[1][3]
    assert _through_one_memo((after, after, before, before, after)) == [False] + [True] * 4


def _layer_keys(h) -> tuple:
    """``h``'s snapshot key, register keys, step layout and forwarding key."""
    d = derive(h)
    regs = register_keys(d)
    reg_keys = tuple(regs[r] for r in sorted(regs))
    return snapshot_key(d), reg_keys, step_layout(d.idx), forwarding_key(d, reg_keys)


def _through_one_memo(histories) -> list:
    """Pass ``histories`` through one memo in turn and check that each gets
    the F and F+ reports of a fresh derivation; returns, per history,
    whether the forwarding layer answered."""
    memo = Memo()
    answered = []
    for h in histories:
        d = derive(h)
        snap = memo.snapshot(d, lambda: None)[1]
        got = memo.forwarding_suites(d, ("F", "F+"), snap, ())
        answered.append(bool(got))
        assert _report(run_checks(d, ("F", "F+"), done=got)) == \
            _report(run_checks(derive(h), ("F", "F+")))
    return answered


def _steps_swapped(h, x, y):
    """``h`` with its adjacent rep events ``x`` and ``y`` trading places:
    their ticks and their ids, so that ids still ascend along the rep
    order."""
    ex, ey = h.event(x), h.event(y)
    (ex.start, ex.end), (ey.start, ey.end) = (ey.start, ey.end), (ex.start, ex.end)
    ex.id, ey.id = y, x
    swap = {x: y, y: x}
    h.rf = [(swap.get(a, a), swap.get(b, b)) for a, b in h.rf]
    h.ll = [(swap.get(a, a), swap.get(b, b)) for a, b in h.ll]
    h.events.sort(key=lambda e: e.start)
    return History.from_json(h.to_json())


def test_forwarding_key_holds_each_operations_step_order():
    """A write that reads the flag before its cell write (F+.wrstruct)
    differs from the real one only in the order of its own two steps, on
    two registers: the forwarding keys differ, and one memo gives each
    history what a fresh derivation gives it."""
    write = lambda h: max(e.id for e in h.events if e.op == "write[0]")
    real = _jayanti2_history()
    wa, wx = (next(e.id for e in real.events if e.op == op and e.parent == write(real))
              for op in ("wa.w", "wx.ll"))
    flipped = _steps_swapped(_jayanti2_history(), wa, wx)
    fired = [{v.axiom for v in run_checks(derive(h), ("F+",)).all_violations()}
             for h in (flipped, real)]
    assert fired == [{"F+.wrstruct"}, set()]
    keys = [_layer_keys(h) for h in (flipped, real)]
    assert keys[0][:2] == keys[1][:2] and keys[0][2] != keys[1][2]
    assert None not in keys[0] and keys[0][3] != keys[1][3]
    assert _through_one_memo((real, real, flipped, flipped, real)) == [False] + [True] * 4


def test_memo_on_histories_with_swapped_steps():
    """The histories of an alg2 DFS prefix, each with a copy whose two
    adjacent steps on different registers trade places, pass through one
    memo twice in a shuffled order: each gets a fresh derivation's F and
    F+ reports."""
    algorithm, n, threads, _ = CASES["alg2-dfs"]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), DfsBounded(150))
    rng = random.Random(1)
    histories = []
    for sim in iter_sims(cfg):
        text = sim.history().to_json()
        copy = History.from_json(text)
        reps = sorted((e for e in copy.events if e.kind == REP), key=lambda e: e.start)
        x, y = rng.choice([(x, y) for x, y in zip(reps, reps[1:]) if x.object != y.object])
        histories += [History.from_json(text), _steps_swapped(copy, x.id, y.id)]
    order = histories * 2
    rng.shuffle(order)
    assert sum(_through_one_memo(order)) > len(order) // 2
