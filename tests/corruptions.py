"""Injected-corruption fixtures: take a healthy history, break one recorded
fact, and name the axiom id that must flag it.

A corruption can imply further genuine anomalies (a duplicated reads-from
necessarily leaves one of the two writes stale), so tests assert that the
expected id is reported by the targeted suite, not that it is alone.
"""
from __future__ import annotations

from snaplab import ABS, REP, UNIT, Event, History, OpScript, repro
from snaplab.harness import DfsBounded, ExploreConfig, iter_sims


def _copy(h: History) -> History:
    return History.from_json(h.to_json())


def _fig3() -> History:
    return repro("jayanti1_fig3").history


_TWO_WRITER_CACHE: list[History] = []


def _alg2_histories() -> list[History]:
    if not _TWO_WRITER_CACHE:
        script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])
        cfg = ExploreConfig("jayanti2", 1, script, DfsBounded(400))
        _TWO_WRITER_CACHE.extend(sim.history() for sim in iter_sims(cfg))
    return _TWO_WRITER_CACHE


def duplicate_rf() -> tuple[History, str, str]:
    h = _copy(_fig3())
    # b[0] observed the forwarded 2; also claim it observed the scan's reset
    scan = next(e for e in h.events if e.op == "scan")
    b0 = next(e for e in h.events if e.op == "b[0].r" and e.parent == scan.id)
    r0 = next(e for e in h.events if e.op == "r[0].w" and e.parent == scan.id)
    h.rf.append((r0.id, b0.id))
    return h, "M", "M.robsuniq"


def ll_edge_across_parents() -> tuple[History, str, str]:
    for h in _alg2_histories():
        srcs = {}
        for w, r in h.rf:
            srcs.setdefault(r, []).append(w)
        lls = [e for e in h.events if e.op.endswith(".ll")]
        conds = [e for e in h.events if e.op.endswith(".vl") or e.op.endswith(".sc")]
        for c in conds:
            for l in lls:
                if l.object != c.object or l.parent == c.parent:
                    continue
                same = srcs.get(l.id) == srcs.get(c.id)
                if same == (c.output is True) and (l.id, c.id) not in h.ll:
                    out = _copy(h)
                    out.ll.append((l.id, c.id))
                    return out, "M+", "M+.llobsparent"
    raise AssertionError("no cross-thread LL candidate found")


def remove_forward_rf() -> tuple[History, str, str]:
    h = _copy(_fig3())
    wb = next(e for e in h.events if e.op == "wb.w")
    h.rf = [(w, r) for (w, r) in h.rf if w != wb.id]
    return h, "F", "F.4b"


def sc_success_wrong_version() -> tuple[History, str, str]:
    """Hand-built LL/SC register trace: the SC claims success although a
    write intervened after its load-link."""
    events = [
        Event(0, ABS, "probe", None, UNIT, 0, 11, None, None),
        Event(1, REP, "u.w", 5, UNIT, 1, 2, None, "K"),
        Event(2, REP, "u.ll", None, 5, 3, 4, 0, "K"),
        Event(3, REP, "u.w", 6, UNIT, 5, 6, None, "K"),
        Event(4, REP, "u.sc", 7, True, 7, 8, 0, "K"),
    ]
    h = History("jayanti2", 1, [0], events=events, rf=[(1, 2), (3, 4)], ll=[(2, 4)])
    return h, "M+", "M+.llsc-success"


def scan_output_mismatch() -> tuple[History, str, str]:
    h = _copy(_fig3())
    scan = next(e for e in h.events if e.op == "scan")
    scan.output = [99, scan.output[1]]
    return h, "S", "S.1"


def fabricate_hb_cycle() -> tuple[History, str, str]:
    """A load-link pair pointing backward in time closes a happens-before
    cycle through returns-before."""
    for h in _alg2_histories():
        lls = sorted((e for e in h.events if e.op == "wx.ll"), key=lambda e: e.start)
        if len(lls) >= 2 and lls[0].end < lls[1].start:
            out = _copy(h)
            out.ll.append((lls[1].id, lls[0].id))
            return out, "M+", "V.1"
    raise AssertionError("no pair of disjoint load-links found")


def _first_with_sc() -> History:
    return next(h for h in _alg2_histories() if any(e.op.endswith(".sc") for e in h.events))


def sc_output_not_bool() -> tuple[History, str, str]:
    h = _copy(_first_with_sc())
    sc = next(e for e in h.events if e.op.endswith(".sc"))
    sc.output = 1
    return h, "M+", "M+.vl-io"


def write_step_relabelled() -> tuple[History, str, str]:
    """A returned write whose cell write carries another label: the write
    has no wa step.  Relabelled in the record, as an event's label is
    parsed when it is made."""
    obj = _first_with_sc().to_obj()
    initial_writes = obj["meta"]["n"]
    rec = [r for r in obj["events"] if r["op"] == "wa.w"][initial_writes]
    rec["op"] = "wz.w"
    return History.from_obj(obj), "S", "S.5"


ALL = (
    duplicate_rf,
    ll_edge_across_parents,
    remove_forward_rf,
    sc_success_wrong_version,
    scan_output_mismatch,
    fabricate_hb_cycle,
    sc_output_not_bool,
    write_step_relabelled,
)
