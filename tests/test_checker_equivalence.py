"""The checker against the frozen baseline in ``perfbench/snaplab_baseline``.

The suites read V.1, the register signatures, the LL/SC lemmas and the
snapshot axioms from the masks of the happens-before closure, and the
LL/SC lemmas from chains along it; the frozen copy enumerates them pair by
pair.  Both must give the same report, violation order included, or raise
the same exception type, on every history here: the corruption fixtures,
seeded mutations of alg2 DFS, small alg3 random and long alg3 random
histories, and hand-built histories for the axioms and fallbacks that
mutation seldom reaches.  ``diff_checker.agree`` names the one exception:
where the baseline's jayanti3 virtual-scan extraction raises KeyError,
snaplab reports H.corrupt.  The test also asserts that each rewritten axiom
fires somewhere in the set, since equal clean reports would prove nothing
for it.  ``scripts/diff_checker.py`` runs the same comparison at any size.
"""
import json
import random
import sys
from pathlib import Path

from corruptions import ALL as CORRUPTIONS
import snaplab
from snaplab import ABS, REP, UNIT, Event, History, OpScript, random_script
from snaplab.harness import DfsBounded, ExploreConfig, RandomWalks, iter_sims

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
import snaplab_baseline  # noqa: E402  (read-only: the frozen yardstick)
from diff_checker import agree, mutants, mutate, verdict  # noqa: E402

MUTANTS = 1500
LONG_MUTANTS = 60  # of alg3 histories with 20 operations per thread

# every axiom whose check was rewritten over closure masks or chains, or
# whose body moved into the facts that F and F+ share; either wrtotal
# proves the shared fast path, so they count as one
REWRITTEN = ("V.1", "L4.1", "L4.2", "L4.3", "M.nowrbetween", "M+.nowrbetween",
             ("M.wrtotal", "M+.wrtotal"), "M+.llobsparent", "S.2", "S.4", "S.7",
             "F.1", "F.io", "F.2a", "F.3a", "F.3b",
             "F+.vrtinscan", "F+.io", "F+.sctotal", "F+.wrauniq", "F+.scruniq", "F+.fbBuniq",
             "F+.wrstruct", "F+.fwdstruct", "F+.fwdprecond", "F+.sconuniq")


# -- hand-built histories -------------------------------------------------------

def _llsc_no_successful_pair() -> History:
    """Two LL/SC windows on K, the first returning before the second, and
    neither SC successful: no successful pair lies between them (L4.3)."""
    events = [
        Event(0, ABS, "probe", None, UNIT, 0, 11, None, None),
        Event(1, REP, "u.w", 5, UNIT, 1, 2, None, "K"),
        Event(2, REP, "u.ll", None, 5, 3, 4, 0, "K"),
        Event(3, REP, "u.sc", 7, False, 5, 6, 0, "K"),
        Event(4, REP, "u.ll", None, 5, 7, 8, 0, "K"),
        Event(5, REP, "u.sc", 8, False, 9, 10, 0, "K"),
    ]
    return History("jayanti2", 1, [0], events=events,
                   rf=[(1, 2), (1, 3), (1, 4), (1, 5)], ll=[(2, 3), (4, 5)])


def _overlapping_writes() -> History:
    """Two overlapping writes with no edge between them, on a plain
    register K (M.wrtotal) and on an LL/SC register Q (M+.wrtotal)."""
    events = [
        Event(0, ABS, "probe", None, UNIT, 0, 11, None, None),
        Event(1, REP, "u.w", 1, UNIT, 1, 4, None, "K"),
        Event(2, REP, "u.w", 2, UNIT, 2, 3, None, "K"),
        Event(3, REP, "v.w", 1, UNIT, 5, 8, None, "Q"),
        Event(4, REP, "v.w", 2, UNIT, 6, 7, None, "Q"),
        Event(5, REP, "v.ll", None, 2, 9, 10, 0, "Q"),
    ]
    return History("jayanti2", 1, [0], events=events, rf=[(4, 5)])


def _overlapping_cell_writes() -> History:
    """Two afek writes of cell 0 that overlap; afek derives no write order,
    so nothing orders them (S.4)."""
    events = [
        Event(0, ABS, "write[0]", 1, UNIT, 0, 5),
        Event(1, REP, "wa.w", [1, 1, [0]], UNIT, 2, 3, 0, "A[0]"),
        Event(2, ABS, "write[0]", 2, UNIT, 1, 8),
        Event(3, REP, "wa.w", [2, 2, [0]], UNIT, 4, 6, 2, "A[0]"),
    ]
    return History("afek", 1, [0], events=events)


def _scans_disagree_on_order() -> History:
    """A naive run: scan 4 sees the old cell 0 and the new cell 1, scan 8
    the new cell 0 and the old cell 1, so they order the writes oppositely
    (S.7)."""
    events = [
        Event(0, ABS, "write[0]", 0, UNIT, 0, 3),
        Event(1, REP, "wa.w", 0, UNIT, 1, 2, 0, "A[0]"),
        Event(2, ABS, "write[1]", 0, UNIT, 4, 7),
        Event(3, REP, "wa.w", 0, UNIT, 5, 6, 2, "A[1]"),
        Event(4, ABS, "scan", None, [0, 3], 8, 27),
        Event(5, REP, "a[0].r", None, 0, 9, 10, 4, "A[0]"),
        Event(6, ABS, "write[0]", 2, UNIT, 11, 14),
        Event(7, REP, "wa.w", 2, UNIT, 12, 13, 6, "A[0]"),
        Event(8, ABS, "scan", None, [2, 0], 15, 20),
        Event(9, REP, "a[0].r", None, 2, 16, 17, 8, "A[0]"),
        Event(10, REP, "a[1].r", None, 0, 18, 19, 8, "A[1]"),
        Event(11, ABS, "write[1]", 3, UNIT, 21, 24),
        Event(12, REP, "wa.w", 3, UNIT, 22, 23, 11, "A[1]"),
        Event(13, REP, "a[1].r", None, 3, 25, 26, 4, "A[1]"),
    ]
    return History("naive", 2, [0, 0], events=events,
                   rf=[(1, 5), (7, 9), (3, 10), (12, 13)])


def _llsc_windows(spans, successes, extra_lls=()) -> History:
    """LL/SC windows on register K of one probe, after an initial write.

    Window k has its LL start at ``spans[k][0]`` and its SC at
    ``spans[k][1]``, and succeeds iff ``successes[k]``; ``extra_lls`` are
    starts of unlinked LLs.  Every rep event lasts two ticks.  Every LL/SC observes the latest successful
    SC that returned before it started, or else the initial write."""
    events = [Event(1, REP, "u.w", 0, UNIT, 1, 2, 0, "K")]
    ll = []
    for (l_start, c_start), ok in zip(spans, successes):
        l, c = len(events) + 1, len(events) + 2
        events.append(Event(l, REP, "u.ll", None, 0, l_start, l_start + 2, 0, "K"))
        events.append(Event(c, REP, "u.sc", 0, ok, c_start, c_start + 2, 0, "K"))
        ll.append((l, c))
    for start in extra_lls:
        events.append(Event(len(events) + 1, REP, "u.ll", None, 0, start, start + 2, 0, "K"))
    rf = []
    for e in events[1:]:
        done = [w for w in events if w.end < e.start and (w.id == 1 or w.output is True)]
        rf.append((max(done, key=lambda w: w.end).id, e.id))
    end = max(e.end for e in events) + 1
    probe = Event(0, ABS, "probe", None, UNIT, 0, end)
    return History("jayanti2", 1, [0], events=[probe] + events, rf=rf, ll=ll)


def _llsc_reversed_link() -> History:
    """Ten windows; window 8's LL starts after its SC does, which forces the
    L4.3 candidate pruning back to enumeration.  Windows 3 and 4 fail with
    no write-like inside (L4.2) and no successful pair between them (L4.3),
    and an unlinked LL intervenes in window 7 (M+.llobsparent)."""
    spans = [(10 * k + 4, 10 * k + 10) for k in range(10)]
    spans[8] = (85, 84)
    return _llsc_windows(spans, [k not in (3, 4) for k in range(10)], extra_lls=[77])


def _llsc_nested_window() -> History:
    """Ten windows; failing window 5 nests inside successful window 4, so
    the candidate (4) that starts first after window 3 holds a successful
    pair while the nested one (5) does not (L4.3 on windows 3 and 5)."""
    spans = [(10 * k + 4, 10 * k + 10) for k in range(10)]
    spans[4], spans[5] = (44, 60), (48, 52)
    return _llsc_windows(spans, [k not in (3, 5) for k in range(10)])


def _llsc_overlapping_successes() -> History:
    """Twelve windows; successful windows 5 and 6 interleave (L4.1), so the
    good pairs form no chain and L4.3 falls back to masks.  The successful
    SCs of windows 9 and 10 overlap, so the write-likes form no chain and
    L4.2 falls back too.  Windows 2 and 3 fail with no write-like inside and
    no successful pair between them."""
    spans = [(10 * k + 4, 10 * k + 10) for k in range(12)]
    spans[5], spans[6] = (54, 62), (58, 66)
    spans[10] = (97, 101)
    return _llsc_windows(spans, [k not in (2, 3) for k in range(12)])


def _edited(alg: str, lists: list, edit, schedule: int = 0) -> History:
    """DFS schedule number ``schedule`` of the one-cell script ``lists`` on
    ``alg``, with ``edit`` applied to its JSON events by id."""
    cfg = ExploreConfig(alg, 1, OpScript.from_lists(lists), DfsBounded(schedule + 1))
    sims = iter_sims(cfg)
    for _ in range(schedule):
        next(sims)
    obj = json.loads(next(sims).history().to_json())
    edit({e["id"]: e for e in obj["events"]})
    return History.from_obj(obj)


_SCANS_THEN_WRITE = [[("scan",), ("scan",)], [("write", 0, 2)]]


def _overlapping_virtual_scans() -> History:
    """jayanti2: the second scan starts before the first returns, and
    each scan is its own virtual scan (F.2a, F+.sctotal)."""
    def edit(ev):
        ev[9]["start"] = 16
    return _edited("jayanti2", _SCANS_THEN_WRITE, edit)


def _stray_writers() -> History:
    """jayanti2: a write into A[0] by no wa step (F.3a, F+.wrauniq), a
    bottom into B[0] by no reset (F.3b, F+.scruniq), and a reset that
    writes a value (F+.fbBuniq)."""
    def edit(ev):
        ev[16]["op"] = "wz.w"
        ev[10]["op"] = "q[0].w"
        ev[4]["input"] = 5
    return _edited("jayanti2", _SCANS_THEN_WRITE, edit)


def _cell_write_after_flag_read() -> History:
    """jayanti2: the write's cell write returns after its flag read starts
    (F+.wrstruct)."""
    def edit(ev):
        ev[16]["end"] = 33
    return _edited("jayanti2", _SCANS_THEN_WRITE, edit)


def _escaping_virtual_scan() -> History:
    """jayanti3: the scan returns before its own rep events do, so its
    virtual scan escapes it (F.1, F+.vrtinscan)."""
    def edit(ev):
        scan = next(e for e in ev.values() if e["op"] == "scan")
        scan["end"] = scan["start"] + 2
    return _edited("jayanti3", [[("scan",)], [("write", 0, 2)]], edit)


def _forward_under_a_scan() -> History:
    """jayanti2: the write forwards twice; the events of its second forward
    are moved onto the concurrent scan, which is stretched to hold them, so
    RB's EV.parent accepts them.  The write now forwards once (F+.wrstruct),
    and the moved forward runs under no flag read (F+.fwdprecond) and skips
    its SC after a validation made to succeed (F+.fwdstruct)."""
    def edit(ev):
        assert [ev[k]["op"] for k in (9, 21, 22, 23)] == \
            ["scan", "fll[0]@2.ll", "fa[0]@2.r", "fvl[0]@2.vl"]
        for k in (21, 22, 23):
            ev[k]["parent"] = 9
        ev[9]["end"] = 48
        ev[23]["output"] = True
    return _edited("jayanti2", _SCANS_THEN_WRITE, edit, schedule=5)


HAND_BUILT = (_llsc_no_successful_pair, _llsc_reversed_link, _llsc_nested_window,
              _llsc_overlapping_successes, _overlapping_writes, _overlapping_cell_writes,
              _scans_disagree_on_order, _overlapping_virtual_scans, _stray_writers,
              _cell_write_after_flag_read, _escaping_virtual_scan, _forward_under_a_scan)


# -- seeded mutations -------------------------------------------------------------

def _seed_histories() -> list[History]:
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])
    out = [sim.history() for sim in
           iter_sims(ExploreConfig("jayanti2", 1, script, DfsBounded(50)))]
    for k in range(6):
        cfg = ExploreConfig("jayanti3", 2, random_script(2, 2, 4, k), RandomWalks(k, 1))
        out.extend(sim.history() for sim in iter_sims(cfg))
    return out


def _inputs() -> list[str]:
    texts = [fixture()[0].to_json() for fixture in CORRUPTIONS]
    texts += [build().to_json() for build in HAND_BUILT]
    seeds = _seed_histories()
    rng = random.Random(2110)
    for _ in range(MUTANTS):
        text = rng.choice(seeds).to_json()
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        texts.append(text)
    texts += mutants("jayanti3", 20, LONG_MUTANTS, seed=3)
    return texts


def test_reports_match_frozen_baseline():
    fired: set[str] = set()
    for text in _inputs():
        ours = verdict(snaplab, text)
        theirs = verdict(snaplab_baseline, text)
        assert agree(ours, theirs, text), text[:500]
        if isinstance(ours, dict):
            fired.update(v["axiom"] for s in ours["suites"].values() for v in s["violations"])
    silent = [ax for ax in REWRITTEN
              if not (set(ax) if isinstance(ax, tuple) else {ax}) & fired]
    assert not silent, f"never fired, so never compared: {silent}"


def test_hand_built_histories_fire_their_axioms():
    want = {_llsc_no_successful_pair: {"L4.3"},
            _llsc_reversed_link: {"L4.2", "L4.3", "M+.llobsparent"},
            _llsc_nested_window: {"L4.2", "L4.3"},
            _llsc_overlapping_successes: {"L4.1", "L4.2", "L4.3"},
            _overlapping_writes: {"M.wrtotal", "M+.wrtotal"},
            _overlapping_cell_writes: {"S.4"},
            _scans_disagree_on_order: {"S.7"},
            _overlapping_virtual_scans: {"F.2a", "F+.sctotal"},
            _stray_writers: {"F.3a", "F+.wrauniq", "F.3b", "F+.scruniq", "F+.fbBuniq"},
            _cell_write_after_flag_read: {"F+.wrstruct"},
            _escaping_virtual_scan: {"F.1", "F+.vrtinscan"},
            _forward_under_a_scan: {"F+.wrstruct", "F+.fwdstruct", "F+.fwdprecond"}}
    for build, axioms in want.items():
        report = verdict(snaplab, build().to_json())
        got = {v["axiom"] for s in report["suites"].values() for v in s["violations"]}
        assert axioms <= got, (build.__name__, sorted(got))
