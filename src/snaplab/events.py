"""Interval-timed events, histories, and the returns-before structure.

Every operation observed during a run becomes an event with ``start`` and
``end`` ticks sampled from one global counter, so returns-before over any
recorded history is an interval order by construction.  An unterminated
event carries ``end = INF`` and no output.
"""
from __future__ import annotations

import json
import threading
from typing import Any, Optional

from .report import Violation

INF = float("inf")
UNIT = "()"  # output of unit-returning operations (writes)
BOT = None  # the "no forwarded value" marker stored in forwarding arrays

ABS = "abs"
REP = "rep"

_EVENT_FIELDS = ("id", "kind", "op", "input", "output", "start", "end", "parent", "object")


class Event:
    """One recorded operation: an abs-level op or a primitive register step.

    ``_json`` is the event's record as compact JSON once a recorder's
    history has encoded it after it returned (see ``History.to_json``)."""

    __slots__ = _EVENT_FIELDS + ("_json",)

    def __init__(self, id, kind, op, input, output, start, end, parent=None, object=None):
        self.id = id
        self.kind = kind
        self.op = op
        self.input = input
        self.output = output
        self.start = start
        self.end = end
        self.parent = parent
        self.object = object
        self._json = None

    @property
    def terminated(self) -> bool:
        return self.end != INF

    def __repr__(self):
        end = "inf" if self.end == INF else self.end
        return f"Event({self.id} {self.kind}:{self.op} [{self.start},{end}])"

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "op": self.op,
            "input": self.input,
            "output": None if self.output is _ABSENT else self.output,
            "start": self.start,
            "end": "inf" if self.end == INF else self.end,
            "parent": self.parent,
            "object": self.object,
        }

    def encode(self) -> str:
        """``to_record()`` as compact JSON, the bytes ``json.dumps`` gives."""
        end = self.end
        return (f'{{"id":{_value(self.id)},"kind":{_value(self.kind)},"op":{_value(self.op)},'
                f'"input":{_value(self.input)},'
                f'"output":{"null" if self.output is _ABSENT else _value(self.output)},'
                f'"start":{_value(self.start)},"end":{_INF_JSON if end == INF else _value(end)},'
                f'"parent":{_value(self.parent)},"object":{_value(self.object)}}}')

    @classmethod
    def from_record(cls, rec: dict) -> "Event":
        end = rec["end"]
        return cls(
            rec["id"],
            rec["kind"],
            rec["op"],
            rec["input"],
            rec["output"] if rec["end"] != "inf" else _ABSENT,
            rec["start"],
            INF if end == "inf" else end,
            rec.get("parent"),
            rec.get("object"),
        )


class _Absent:
    """Marker for 'no output recorded' (events that have not terminated)."""

    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()
ABSENT = _ABSENT

_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(v, separators=...)
_encode_str = json.encoder.encode_basestring_ascii
_INF_JSON = '"inf"'


def _value(v) -> str:
    """``v`` as ``json.dumps`` writes it, with fast paths for exact ints,
    strings, None and bools; every other value goes through the encoder."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _encode_str(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    return _encode(v)


_META_TYPES = (("algorithm", str), ("n", int), ("initial", list))
_RECORD_TYPES = (("id", int), ("kind", str), ("op", str), ("start", (int, float)),
                 ("end", (int, float, str)), ("parent", (int, type(None))),
                 ("object", (str, type(None))))


def _expect(value, types, what: str) -> None:
    if not isinstance(value, types):
        raise ValueError(f"{what} is {value!r}, of type {type(value).__name__}")


def parse_rep_op(op: str) -> tuple[str, Optional[int], Optional[int], str]:
    """A rep event's op, ``label[cell]@instance.memop`` with the cell and
    instance optional: 'fll[1]@2.ll' -> ('fll', 1, 2, 'll').  Raises
    ValueError if ``op`` has another shape."""
    label, memop = op.rsplit(".", 1)
    inst = None
    if "@" in label:
        label, k = label.split("@")
        inst = int(k)
    idx = None
    if label.endswith("]"):
        label, rest = label.split("[")
        idx = int(rest[:-1])
    return label, idx, inst, memop


def returns_before(e: Event, e2: Event) -> bool:
    """e terminated strictly before e2 started.  INF never returns-before."""
    return e.end < e2.start


def subevent(e: Event, e2: Event) -> bool:
    """Interval containment; an INF end is contained only in an INF end."""
    return e2.start <= e.start and e.end <= e2.end


class History:
    """A finite set of events plus the recorded rf and ll edges."""

    def __init__(self, algorithm: str, n: int, initial: list, events=None,
                 rf=None, ll=None, seed=None):
        self.algorithm = algorithm
        self.n = n
        self.initial = list(initial)
        self.seed = seed
        self.events: list[Event] = list(events) if events else []
        self.rf: list[tuple[int, int]] = list(rf) if rf else []
        self.ll: list[tuple[int, int]] = list(ll) if ll else []
        self._by_id: Optional[dict[int, Event]] = None
        self._keep_json = False  # set by the recorder, whose returned events never change

    def event(self, eid: int) -> Event:
        if self._by_id is None:
            self._by_id = {e.id: e for e in self.events}
        return self._by_id[eid]

    def __len__(self):
        return len(self.events)

    # -- serialization ----------------------------------------------------

    def to_obj(self) -> dict:
        meta = {"algorithm": self.algorithm, "n": self.n, "initial": self.initial}
        if self.seed is not None:
            meta["seed"] = self.seed
        return {
            "meta": meta,
            "events": [e.to_record() for e in self.events],
            "rf": [list(p) for p in sorted(self.rf)],
            "ll": [list(p) for p in sorted(self.ll)],
        }

    def to_json(self, indent=None) -> str:
        """``json.dumps(self.to_obj())``: compact without ``indent``.  The
        compact form joins one fragment per event; in a recorder's history
        a returned event keeps its fragment, so histories that share it
        (DFS siblings) encode it once."""
        if indent is not None:
            return json.dumps(self.to_obj(), indent=indent)
        keep = self._keep_json
        frags = []
        for e in self.events:
            frag = e._json
            if frag is None:
                frag = e.encode()
                if keep and e.end != INF:
                    e._json = frag
            frags.append(frag)
        meta = {"algorithm": self.algorithm, "n": self.n, "initial": self.initial}
        if self.seed is not None:
            meta["seed"] = self.seed
        return (f'{{"meta":{_encode(meta)},"events":[{",".join(frags)}],'
                f'"rf":{_encode(sorted(self.rf))},"ll":{_encode(sorted(self.ll))}}}')

    @classmethod
    def from_obj(cls, obj: dict) -> "History":
        """Raises KeyError, TypeError or ValueError if ``obj`` is no history:
        ValueError for a field of the wrong type or an edge that is not a
        pair of event ids."""
        meta = obj["meta"]
        for name, types in _META_TYPES:
            _expect(meta[name], types, f"meta {name}")
        for rec in obj["events"]:
            if not isinstance(rec, dict):
                raise ValueError(f"event record {rec!r} is not an object")
            for name, types in _RECORD_TYPES:
                _expect(rec.get(name), types, f"event {rec.get('id')!r} field {name}")
            if isinstance(rec["end"], str) and rec["end"] != "inf":
                raise ValueError(f"event {rec['id']!r} field end is {rec['end']!r}, "
                                 "not a number or 'inf'")
            if rec["kind"] == REP:
                try:
                    parse_rep_op(rec["op"])
                except ValueError as exc:
                    raise ValueError(f"event {rec['id']!r} op {rec['op']!r} is not "
                                     f"label[cell]@instance.memop: {exc}") from None
        for label in ("rf", "ll"):
            for p in obj[label]:
                if not (isinstance(p, (list, tuple)) and len(p) == 2
                        and all(isinstance(x, int) for x in p)):
                    raise ValueError(f"{label} edge {p!r} is not a pair of event ids")
        h = cls(meta["algorithm"], meta["n"], meta["initial"], seed=meta.get("seed"))
        h.events = sorted((Event.from_record(r) for r in obj["events"]), key=lambda e: e.id)
        h.rf = [tuple(p) for p in obj["rf"]]
        h.ll = [tuple(p) for p in obj["ll"]]
        return h

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_obj(json.loads(text))


class HistoryRecorder:
    """Append-only event/edge recorder around one global tick counter.

    Safe for concurrent appenders when ``threadsafe``; every event samples
    the counter once at invocation and once at return, so no two samples
    are equal and intervals nest strictly.
    """

    def __init__(self, algorithm: str, n: int, initial: list, threadsafe=False, seed=None):
        self.algorithm = algorithm
        self.n = n
        self.initial = list(initial)
        self.seed = seed
        self._events: list[Event] = []
        self._rf: list[tuple[int, int]] = []
        self._ll: list[tuple[int, int]] = []
        self._tick = 0
        self._lock = threading.Lock() if threadsafe else None

    def tick(self) -> int:
        if self._lock is None:
            t = self._tick
            self._tick = t + 1
            return t
        with self._lock:
            t = self._tick
            self._tick = t + 1
            return t

    def begin(self, kind: str, op: str, input: Any, parent, obj) -> Event:
        if self._lock is None:
            t = self._tick
            self._tick = t + 1
            ev = Event(len(self._events), kind, op, input, _ABSENT, t, INF, parent, obj)
            self._events.append(ev)
            return ev
        with self._lock:
            t = self._tick
            self._tick = t + 1
            ev = Event(len(self._events), kind, op, input, _ABSENT, t, INF, parent, obj)
            self._events.append(ev)
            return ev

    def finish(self, ev: Event, output: Any) -> None:
        ev.end = self.tick()
        ev.output = output

    def add_rf(self, writer: int, reader: int) -> None:
        self._rf.append((writer, reader))

    def add_ll(self, link: int, cond: int) -> None:
        self._ll.append((link, cond))

    def history(self) -> History:
        """The events and edges recorded so far.  An event that has not
        returned is held as an open copy, so a later ``finish`` leaves this
        history as it was."""
        events = [e if e.end != INF else _opened(e) for e in self._events]
        h = History(self.algorithm, self.n, self.initial, events, self._rf,
                    self._ll, seed=self.seed)
        h._keep_json = True
        return h

    def mark(self) -> tuple:
        """The lengths of the event and edge lists and the tick, for ``rewind``."""
        return len(self._events), len(self._rf), len(self._ll), self._tick

    def rewind(self, mark: tuple) -> None:
        """Drop what was recorded after ``mark``.  Events that were open at
        the mark and have returned since are the caller's to ``reopen``."""
        events, rf, ll, self._tick = mark
        del self._events[events:]
        del self._rf[rf:]
        del self._ll[ll:]

    def reopen(self, eid: int) -> Event:
        """Event ``eid``, open: one that has returned is replaced by an open
        copy, so the histories that hold it keep it as it was."""
        ev = self._events[eid]
        if ev.end != INF:
            ev = self._events[eid] = _opened(ev)
        return ev


def _opened(ev: Event) -> Event:
    """A copy of ``ev`` as it was before it returned."""
    return Event(ev.id, ev.kind, ev.op, ev.input, _ABSENT, ev.start, INF, ev.parent, ev.object)


# -- structural checks ----------------------------------------------------

def validate_history(h: History) -> list[Violation]:
    """Event and history invariants: well-formed intervals, parentage,
    single-threaded abs events, and edge well-formedness."""
    out: list[Violation] = []
    ids = set()
    for e in h.events:
        if e.id in ids:
            out.append(Violation("EV.id", (e.id,), "duplicate event id"))
        ids.add(e.id)
        if e.end != INF and not (e.end > e.start):
            out.append(Violation("EV.end", (e.id,), "end must exceed start"))
        has_out = e.output is not _ABSENT
        if has_out == (e.end == INF):
            out.append(Violation("EV.output", (e.id,), "output present iff terminated"))
    children: dict[int, list[Event]] = {}
    for e in h.events:
        if e.parent is None:
            continue
        if e.parent not in ids:
            out.append(Violation("EV.parent", (e.id,), "parent id missing"))
            continue
        p = h.event(e.parent)
        if e.kind == REP and p.kind != ABS:
            out.append(Violation("EV.parent", (e.id, p.id), "rep parent must be abs"))
        if not subevent(e, p):
            out.append(Violation("EV.parent", (e.id, p.id), "child interval escapes parent"))
        children.setdefault(e.parent, []).append(e)
    for pid, kids in children.items():
        kids = sorted(kids, key=lambda e: e.start)
        for a, b in zip(kids, kids[1:]):
            if not returns_before(a, b):
                out.append(Violation("EV.thread", (a.id, b.id, pid),
                                     "abs events are single-threaded"))
    for label, pairs in (("rf", h.rf), ("ll", h.ll)):
        for a, b in pairs:
            if a not in ids or b not in ids:
                out.append(Violation("H.edge-ref", (a, b), f"{label} edge references missing id"))
                continue
            ea, eb = h.event(a), h.event(b)
            if ea.object is None or ea.object != eb.object:
                out.append(Violation("H.edge-object", (a, b),
                                     f"{label} edge must connect events of one register"))
    return out

