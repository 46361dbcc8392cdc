"""Events, returns-before, subevents, structural checks, and history JSON."""
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from snaplab import INF, Event, History, OpScript, SimRun, derive, repro, returns_before, \
    run_checks, subevent
from snaplab.events import ABS, ABSENT, REP, UNIT, validate_history
from snaplab.harness import RandomWalks, iter_sims

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from sweep import SWEEPS, sweep_config  # noqa: E402


def ev(i, start, end, kind=ABS, op="probe", parent=None, obj=None, output=UNIT):
    return Event(i, kind, op, None, output if end != INF else ABSENT,
                 start, end, parent, obj)


def hist(events, rf=(), ll=()):
    return History("naive", 1, [0], events=events, rf=list(rf), ll=list(ll))


def two_plus_two(events):
    """Every 2+2 pattern: a1 < a2 and b1 < b2, but neither a1 < b2 nor
    b1 < a2 (< is returns-before)."""
    rb = [(a, b) for a in events for b in events if returns_before(a, b)]
    return [(a1, a2, b1, b2) for a1, a2 in rb for b1, b2 in rb
            if not (returns_before(a1, b2) or returns_before(b1, a2))]


def parent_order_broken(events):
    """Every e1 in p1 and e2 in p2 (subevents) with p1 < p2 but not e1 < e2."""
    sub = [(e, p) for e in events for p in events if subevent(e, p)]
    return [(e1, p1, e2, p2) for e1, p1 in sub for e2, p2 in sub
            if returns_before(p1, p2) and not returns_before(e1, e2)]


def test_returns_before_examples():
    a, b = ev(0, 0, 1), ev(1, 2, 3)
    assert returns_before(a, b)
    assert not returns_before(b, a)
    c, d = ev(2, 0, 3), ev(3, 2, 5)
    assert not returns_before(c, d)
    open_ended = ev(4, 0, INF)
    assert not returns_before(open_ended, ev(5, 9, 10))


def test_subevent_examples():
    assert subevent(ev(0, 2, 3), ev(1, 1, 4))
    assert not subevent(ev(0, 1, 4), ev(1, 2, 3))
    assert subevent(ev(0, 2, INF), ev(1, 1, INF))
    assert not subevent(ev(0, 2, INF), ev(1, 1, 4))


def test_interval_order_on_fabricated_quadruple():
    # a=[0,5], b=[6,9], c=[0,1], d=[2,3]: c returns before b, so the
    # four-event interval property holds.
    events = [ev(0, 0, 5), ev(1, 6, 9), ev(2, 0, 1), ev(3, 2, 3)]
    assert two_plus_two(events) == []


def test_interval_order_trivial_cases():
    assert two_plus_two([]) == []
    h = repro("naive_03").history
    assert two_plus_two(h.events) == []
    assert parent_order_broken(h.events) == []
    assert run_checks(derive(h), ("RB",)).passed


def test_subevent_rb_parent_children():
    p1, p2 = ev(0, 0, 4), ev(1, 5, 9)
    c1 = ev(2, 1, 2, kind=REP, op="u.w", parent=0, obj="K")
    c2 = ev(3, 6, 7, kind=REP, op="u.w", parent=1, obj="K")
    assert subevent(c1, p1) and subevent(c2, p2) and returns_before(p1, p2)
    assert returns_before(c1, c2)
    assert parent_order_broken([p1, p2, c1, c2]) == []
    assert validate_history(hist([p1, p2, c1, c2])) == []


def test_validator_flags_child_escaping_parent():
    p = ev(0, 0, 4)
    bad = ev(1, 1, 6, kind=REP, op="u.w", parent=0, obj="K")
    violations = validate_history(hist([p, bad]))
    assert any(v.axiom == "EV.parent" for v in violations)


def test_validator_flags_output_missing():
    e = Event(0, ABS, "probe", None, None, 0, INF)  # null output, not absent
    violations = validate_history(hist([e]))
    assert any(v.axiom == "EV.output" for v in violations)


def test_rep_events_contained_in_parents():
    h = repro("jayanti1_fig3").history
    for e in h.events:
        if e.parent is not None:
            assert subevent(e, h.event(e.parent))
    assert validate_history(h) == []


intervals = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 10)), min_size=0, max_size=12)


@given(intervals)
def test_returns_before_irreflexive_transitive(spans):
    events = [ev(i, s, s + d) for i, (s, d) in enumerate(spans)]
    for e in events:
        assert not returns_before(e, e)
    for a in events:
        for b in events:
            for c in events:
                if returns_before(a, b) and returns_before(b, c):
                    assert returns_before(a, c)


# any ticks at all: start > end, an INF end and NaN included
ticks = st.one_of(st.integers(0, 40), st.just(INF), st.just(float("nan")))


@given(st.lists(st.tuples(ticks, ticks), max_size=12))
def test_interval_property_always_holds(spans):
    """Returns-before has no 2+2 pattern, and subevents keep their
    parents' order, whatever the ticks; the RB suite relies on both
    (checker.check_rb)."""
    events = [ev(i, s, e) for i, (s, e) in enumerate(spans)]
    assert two_plus_two(events) == []
    assert parent_order_broken(events) == []


def test_history_json_round_trip():
    h = repro("jayanti1_fig3").history
    text = h.to_json()
    back = History.from_json(text)
    assert back.to_json() == text
    obj = json.loads(text)
    assert set(obj) == {"meta", "events", "rf", "ll"}
    assert set(obj["meta"]) >= {"algorithm", "n", "initial"}
    ev0 = obj["events"][0]
    assert list(ev0) == ["id", "kind", "op", "input", "output",
                         "start", "end", "parent", "object"]
    # unterminated events serialize with "inf" end and null output
    dangling = [e for e in obj["events"] if e["end"] == "inf"]
    assert dangling and all(e["output"] is None for e in dangling)


def test_an_event_op_is_read_only():
    """A rep event's op is parsed once, into ``info``, so relabelling the
    event in place would leave the two apart: it raises instead."""
    e = Event(0, REP, "wa.w", 2, UNIT, 0, 1, None, "A[0]")
    with pytest.raises(AttributeError):
        e.op = "wz.w"
    assert e.op == "wa.w" and e.info == ("wa", None, None, "w")


def test_harness_histories_pass_structural_checks():
    """Every history the harness emits on the standard sweeps' scripts
    passes RB."""
    for name in SWEEPS:
        for sim in iter_sims(sweep_config(name, RandomWalks(17, 20))):
            assert run_checks(derive(sim.history()), ("RB",)).passed, name


def test_unfinished_ops_kept_with_inf_end():
    sim = SimRun("naive", 1, OpScript.from_lists([[("write", 0, 7)]]))
    h = sim.history()  # never stepped
    assert all(e.terminated for e in h.events)  # only the initial write
    sim2 = SimRun("jayanti1", 1, OpScript.from_lists([[("write", 0, 7)]]))
    sim2.step(0)
    h2 = sim2.history()
    w = next(e for e in h2.events if e.op == "write[0]" and e.input == 7)
    assert not w.terminated


def test_history_taken_mid_run_keeps_its_open_events():
    """A later step finishes the run's open events, not the taken history's."""
    sim = SimRun("jayanti1", 1, OpScript.from_lists([[("write", 0, 5)]]))
    sim.step(0)
    h = sim.history()
    text = h.to_json()
    sim.step(0)
    assert h.to_json() == text
    w = next(e for e in h.events if e.op == "write[0]" and e.input == 5)
    assert not w.terminated and w.output is ABSENT


# -- the compact encoder ------------------------------------------------------------

def _dumps(h) -> str:
    return json.dumps(h.to_obj(), separators=(",", ":"))


def test_encoder_matches_json_dumps_on_recorded_histories():
    """``History.to_json()`` joins per-event fragments; the bytes must be
    ``json.dumps``' on sweep, stress and corruption-fixture histories, and
    stay so when the recorder's cached fragments are reused."""
    from corruptions import ALL as CORRUPTIONS
    from snaplab import StressConfig, random_script
    from snaplab.harness import DfsBounded, stress_once

    histories = [fixture()[0] for fixture in CORRUPTIONS]
    for name in SWEEPS:
        for mode in (RandomWalks(5, 10), DfsBounded(30)):
            histories.extend(sim.history() for sim in iter_sims(sweep_config(name, mode)))
    histories.append(stress_once(StressConfig("jayanti3", 2, random_script(2, 2, 10, 4))))
    sim = SimRun("jayanti1", 1, OpScript.from_lists([[("write", 0, 7)], [("scan",)]]))
    sim.step(0)
    histories.append(sim.history())  # an open write
    for h in histories:
        text = _dumps(h)
        assert h.to_json() == text
        assert h.to_json() == text  # with the fragments cached
        assert History.from_json(text).to_json() == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**100, 2**100) | st.floats()
    | st.text(st.characters(), max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


# A rep op must have the shape label[cell]@instance.memop, cell and
# instance optional (events.parse_rep_op); an abs op is any text.
rep_ops = st.builds(
    lambda label, cell, inst, memop: f"{label}{cell}{inst}.{memop}",
    st.text(st.characters(exclude_characters="@[]"), max_size=3),
    st.just("") | st.integers(-9, 99).map("[{}]".format),
    st.just("") | st.integers(-9, 99).map("@{}".format),
    st.text(st.characters(exclude_characters="."), max_size=2))


@st.composite
def loaded_histories(draw):
    events = []
    for i in range(draw(st.integers(0, 4))):
        end = draw(st.one_of(st.integers(0, 10**30), st.just("inf")))
        kind = draw(st.sampled_from((ABS, REP)))
        events.append({"id": i, "kind": kind,
                       "op": draw(rep_ops if kind == REP else st.text(max_size=6)),
                       "input": draw(json_values),
                       "output": None if end == "inf" else draw(json_values),
                       "start": draw(st.integers(-5, 5)), "end": end,
                       "parent": draw(st.none() | st.integers(-3, 3)),
                       "object": draw(st.none() | st.text(max_size=4))})
    ends = st.integers(-2, 5) | st.booleans()  # a bool endpoint must be refused
    pairs = st.lists(st.tuples(ends, ends), max_size=3)
    return {"meta": {"algorithm": draw(st.text(max_size=5)), "n": 1,
                     "initial": draw(st.lists(json_values, max_size=2))},
            "events": events, "rf": draw(pairs), "ll": draw(pairs)}


@given(loaded_histories())
def test_encoder_matches_json_dumps_on_any_values(obj):
    """Floats (inf and nan too), bools, negative and huge ints, nested
    lists and objects, non-ASCII and escaped strings.  An rf or ll edge
    with a bool endpoint is refused: JSON has no bool event id."""
    if any(type(x) is bool for label in ("rf", "ll") for p in obj[label] for x in p):
        with pytest.raises(ValueError, match="is not a pair of event ids"):
            History.from_obj(obj)
        return
    h = History.from_obj(obj)
    assert h.to_json() == _dumps(h)


def test_loaded_histories_keep_no_fragments():
    """Only a recorder's returned events keep their fragment; an edited
    copy encodes its edit."""
    h = History.from_json(repro("jayanti1_fig3").history.to_json())
    h.to_json()
    scan = next(e for e in h.events if e.op == "scan")
    scan.output = [9, 9]
    assert '"output":[9,9]' in h.to_json()
