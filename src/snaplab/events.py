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
    """One recorded operation: an abs-level op or a primitive register step."""

    __slots__ = _EVENT_FIELDS

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
        return json.dumps(self.to_obj(), indent=indent, separators=(",", ":") if indent is None else None)

    @classmethod
    def from_obj(cls, obj: dict) -> "History":
        meta = obj["meta"]
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
        h = History(self.algorithm, self.n, self.initial, self._events, self._rf,
                    self._ll, seed=self.seed)
        return h


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

