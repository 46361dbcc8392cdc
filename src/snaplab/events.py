"""Interval-timed events, histories, the returns-before structure, and
the event index that derivations read.

Every operation observed during a run becomes an event with ``start`` and
``end`` ticks sampled from one global counter, so returns-before over any
recorded history is an interval order by construction.  An unterminated
event carries ``end = INF`` and no output.  A recorder feeds its
``EventIndex`` as it goes (see ``HistoryRecorder``).
"""
from __future__ import annotations

import json
import threading
import weakref
from bisect import insort
from functools import cached_property
from typing import Any, Optional

from .report import Violation

INF = float("inf")
UNIT = "()"  # output of unit-returning operations (writes)
BOT = None  # the "no forwarded value" marker stored in forwarding arrays

ABS = "abs"
REP = "rep"

class Event:
    """One recorded operation: an abs-level op or a primitive register step.

    ``info`` is a rep event's op parsed, ``(label, cell, instance, memop)``
    (see ``parse_rep_op``): the recorder passes the step label it ran, and
    otherwise the op is parsed here, so a rep op that does not parse raises
    ValueError.  ``op`` is read-only, so the two cannot disagree.
    ``_json`` is the event's record as compact JSON once a recorder's
    history has encoded it after it returned (see ``History.to_json``)."""

    __slots__ = ("id", "kind", "_op", "input", "output", "start", "end", "parent", "object",
                 "info", "_json")

    def __init__(self, id, kind, op, input, output, start, end, parent=None, object=None,
                 info=None):
        if info is None and kind == REP:
            info = parse_rep_op(op)
        self.id = id
        self.kind = kind
        self._op = op
        self.input = input
        self.output = output
        self.start = start
        self.end = end
        self.parent = parent
        self.object = object
        self.info = info
        self._json = None

    @property
    def op(self) -> str:
        return self._op

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
        """``to_record()`` as compact JSON, the bytes ``json.dumps`` gives.
        The fields that are ints or strings in every recorded history are
        written inline; any other value goes through ``_value``."""
        eid, kind, start, end, parent, obj = \
            self.id, self.kind, self.start, self.end, self.parent, self.object
        return (f'{{"id":{eid if type(eid) is int else _value(eid)},'
                f'"kind":{_encode_str(kind) if type(kind) is str else _value(kind)},'
                f'"op":{_value(self._op)},"input":{_value(self.input)},'
                f'"output":{"null" if self.output is _ABSENT else _value(self.output)},'
                f'"start":{start if type(start) is int else _value(start)},'
                f'"end":{end if type(end) is int else _INF_JSON if end == INF else _value(end)},'
                f'"parent":{parent if type(parent) is int else _value(parent)},'
                f'"object":{_encode_str(obj) if type(obj) is str else _value(obj)}}}')

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


def _pairs_json(pairs: list) -> str:
    """The pairs of ints ``pairs``, sorted, as compact ``json.dumps`` writes
    them.  The loader refuses any other edge endpoint (a bool included)."""
    return "[" + ",".join([f"[{a},{b}]" for a, b in sorted(pairs)]) + "]"


def _meta(algorithm: str, n: int, initial: list, seed) -> dict:
    """A history's meta record."""
    meta = {"algorithm": algorithm, "n": n, "initial": initial}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _value(v) -> str:
    """``v`` as ``json.dumps`` writes it, with fast paths for exact ints,
    strings, None, bools and lists of exact ints (a scan's output); every
    other value goes through the encoder."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _encode_str(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is list and all(type(x) is int for x in v):
        return f"[{','.join(map(int.__repr__, v))}]"
    return _encode(v)


_META_TYPES = (("algorithm", str), ("n", int), ("initial", list))
_RECORD_TYPES = (("id", int), ("kind", str), ("op", str), ("start", (int, float)),
                 ("end", (int, float, str)), ("parent", (int, type(None))),
                 ("object", (str, type(None))))


def _expect(value, types, what: str) -> None:
    """``value`` is of ``types``; a bool is no number."""
    if not isinstance(value, types) or isinstance(value, bool):
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


# memop -> step label -> (op text, parse)
_REP_OPS: dict[str, dict] = {memop: {} for memop in ("w", "r", "ll", "sc", "vl")}


def rep_op(label, memop: str) -> tuple[str, tuple]:
    """A rep event's op text and its parse ``(label, cell, instance,
    memop)``, from a step label ``(label, cell, instance)`` with cell and
    instance None where absent, or from the label's text
    ``label[cell]@instance``, which is parsed.  Each is made once."""
    made = _REP_OPS[memop]
    got = made.get(label)
    if got is None:
        if type(label) is str:
            text = f"{label}.{memop}"
            got = text, parse_rep_op(text)
        else:
            base, cell, inst = label
            got = (base + ("" if cell is None else f"[{cell}]")
                   + ("" if inst is None else f"@{inst}") + "." + memop, (*label, memop))
        made[label] = got
    return got


def returns_before(e: Event, e2: Event) -> bool:
    """e terminated strictly before e2 started.  INF never returns-before."""
    return e.end < e2.start


def subevent(e: Event, e2: Event) -> bool:
    """Interval containment; an INF end is contained only in an INF end."""
    return e2.start <= e.start and e.end <= e2.end


class History:
    """A finite set of events plus the recorded rf and ll edges.

    ``index`` is the ``EventIndex`` a recorder fed along its run, holding
    these very events, or None: a loaded or hand-built history has none,
    nor has one a recorder gave out while an operation was open.
    ``Derived`` feeds one from the events when it is None or when events
    or edges were added or removed since.
    """

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
        self._meta_json: Optional[str] = None  # the recorder's, which it encodes once
        self.index: Optional[EventIndex] = None

    def event(self, eid: int) -> Event:
        if self._by_id is None:
            self._by_id = {e.id: e for e in self.events}
        return self._by_id[eid]

    def __len__(self):
        return len(self.events)

    # -- serialization ----------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "meta": _meta(self.algorithm, self.n, self.initial, self.seed),
            "events": [e.to_record() for e in self.events],
            "rf": [list(p) for p in sorted(self.rf)],
            "ll": [list(p) for p in sorted(self.ll)],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_obj())``, compact: one fragment per event
        joined.  In a recorder's history a returned event keeps its
        fragment, so histories that share it (DFS siblings) encode it once,
        and the meta record is the recorder's, encoded once."""
        keep = self._keep_json
        frags = []
        for e in self.events:
            frag = e._json
            if frag is None:
                frag = e.encode()
                if keep and e.end != INF:
                    e._json = frag
            frags.append(frag)
        meta = self._meta_json
        if meta is None:
            meta = _encode(_meta(self.algorithm, self.n, self.initial, self.seed))
        return (f'{{"meta":{meta},"events":[{",".join(frags)}],'
                f'"rf":{_pairs_json(self.rf)},"ll":{_pairs_json(self.ll)}}}')

    @classmethod
    def from_obj(cls, obj: dict) -> "History":
        """Raises KeyError, TypeError or ValueError if ``obj`` is no history:
        ValueError for a field of the wrong type or an edge that is not a
        pair of event ids (ints; a bool is none)."""
        meta = obj["meta"]
        for name, types in _META_TYPES:
            _expect(meta[name], types, f"meta {name}")
        if meta["n"] < 1:
            raise ValueError(f"meta n is {meta['n']!r}, not a number of cells")
        events = []
        for rec in obj["events"]:
            if not isinstance(rec, dict):
                raise ValueError(f"event record {rec!r} is not an object")
            for name, types in _RECORD_TYPES:
                _expect(rec.get(name), types, f"event {rec.get('id')!r} field {name}")
            if isinstance(rec["end"], str) and rec["end"] != "inf":
                raise ValueError(f"event {rec['id']!r} field end is {rec['end']!r}, "
                                 "not a number or 'inf'")
            try:
                events.append(Event.from_record(rec))  # parses a rep op
            except ValueError as exc:
                raise ValueError(f"event {rec['id']!r} op {rec['op']!r} is not "
                                 f"label[cell]@instance.memop: {exc}") from None
        for label in ("rf", "ll"):
            for p in obj[label]:
                if not (isinstance(p, (list, tuple)) and len(p) == 2
                        and all(isinstance(x, int) and not isinstance(x, bool) for x in p)):
                    raise ValueError(f"{label} edge {p!r} is not a pair of event ids")
        h = cls(meta["algorithm"], meta["n"], meta["initial"], seed=meta.get("seed"))
        h.events = sorted(events, key=lambda e: e.id)
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

    The recorder feeds an ``EventIndex`` along the run: ``history()``
    feeds it what was recorded since it last did, outside any register
    lock, and ``rewind`` truncates it with the lists.  A history gets the
    index itself.  While that history is alive (a weak reference tells)
    the index is the history's: the recorder lets it go and the next
    ``history()`` feeds a new one from the start.  So a DFS that checks
    each leaf and drops it feeds one index in place.
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
        self._index: Optional[EventIndex] = None
        self._holder = None  # a weak reference to the history holding _index
        self._meta_json = _encode(_meta(algorithm, n, self.initial, seed))

    def tick(self) -> int:
        if self._lock is None:
            t = self._tick
            self._tick = t + 1
            return t
        with self._lock:
            t = self._tick
            self._tick = t + 1
            return t

    def begin(self, kind: str, op: str, input: Any, parent, obj, info=None) -> Event:
        """A new open event; ``info`` is a rep op's parse (see ``rep_op``)."""
        if self._lock is None:
            t = self._tick
            self._tick = t + 1
            ev = Event(len(self._events), kind, op, input, _ABSENT, t, INF, parent, obj, info)
            self._events.append(ev)
            return ev
        with self._lock:
            t = self._tick
            self._tick = t + 1
            ev = Event(len(self._events), kind, op, input, _ABSENT, t, INF, parent, obj, info)
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
        history as it was.  Such a history gets no index, and ``derive``
        feeds one from its events."""
        events = self._events
        opened = {e.id: _opened(e) for e in events if e.end == INF}
        if opened:
            events = [opened.get(e.id, e) for e in events]
        h = History(self.algorithm, self.n, self.initial, events, self._rf,
                    self._ll, seed=self.seed)
        h._keep_json = True
        h._meta_json = self._meta_json
        if not opened:
            idx = self._own_index()
            if idx is None:
                idx = self._index = EventIndex()
            idx.feed(self._events, self._rf, self._ll)
            idx._h = self._holder = weakref.ref(h)
            h.index = idx
        return h

    def _own_index(self) -> Optional[EventIndex]:
        """The index to feed, or None: while the history given it is alive
        it is that history's, and the recorder lets it go."""
        if self._holder is not None:
            if self._holder() is not None:
                self._index = None
            self._holder = None
        return self._index

    def mark(self) -> tuple:
        """The lengths of the event and edge lists and the tick, for ``rewind``."""
        return len(self._events), len(self._rf), len(self._ll), self._tick

    def rewind(self, mark: tuple) -> None:
        """Drop what was recorded after ``mark``.  Events that were open at
        the mark and have returned since are the caller's to ``reopen``."""
        events, rf, ll, self._tick = mark
        if self._own_index() is not None:
            self._index.truncate(self._events, self._rf, self._ll, (events, rf, ll))
        del self._events[events:]
        del self._rf[rf:]
        del self._ll[ll:]

    def reopen(self, eid: int) -> Event:
        """Abs event ``eid``, open: one that has returned is replaced by an
        open copy, so the histories that hold it keep it as it was."""
        ev = self._events[eid]
        if ev.end != INF:
            old, ev = ev, _opened(ev)
            self._events[eid] = ev
            if self._own_index() is not None:
                self._index.swap(old, ev)
        return ev


def _opened(ev: Event) -> Event:
    """A copy of ``ev`` as it was before it returned."""
    return Event(ev.id, ev.kind, ev.op, ev.input, _ABSENT, ev.start, INF, ev.parent, ev.object,
                 ev.info)


# -- the event index --------------------------------------------------------

def abs_write_cell(op: str) -> Optional[int]:
    if op.startswith("write["):
        return int(op[6:-1])
    return None


class RegOps:
    """One register's rep events, per memop and all of them in order
    (``trace``).  ``keyparts``, ``rf_pairs`` and ``ll_pairs`` describe a
    prefix of the trace as the memo keys it, and
    ``EventIndex.register_key_parts`` extends them to all of it: per event
    ``(invocation rank of its operation, op, input, output)``, and the
    edges into it as ``(source, target)`` trace indices, per target in
    trace order.  ``key`` is the memo's digest of the key parts
    (``memo.register_keys``), kept until they change."""

    __slots__ = ("writes", "reads", "lls", "scs", "vls", "by_memop", "trace", "keyparts",
                 "rf_pairs", "ll_pairs", "key")

    def __init__(self):
        self.writes, self.reads, self.lls, self.scs, self.vls = [], [], [], [], []
        self.by_memop = {"w": self.writes, "r": self.reads, "ll": self.lls, "sc": self.scs,
                         "vl": self.vls}
        self.trace, self.keyparts, self.rf_pairs, self.ll_pairs = [], [], [], []
        self.key = None

    def trim(self, k: int) -> None:
        """Keep the key parts of the first ``k`` trace events only."""
        if len(self.keyparts) > k:
            self.key = None
            del self.keyparts[k:]
            for pairs in (self.rf_pairs, self.ll_pairs):
                while pairs and pairs[-1][1] >= k:
                    pairs.pop()


def _swapped(seq: list, old, new) -> None:
    """Put ``new`` in place of ``old`` (by identity) in ``seq``."""
    for k in range(len(seq) - 1, -1, -1):
        if seq[k] is old:
            seq[k] = new
            return


def _start(e: Event):
    return e.start


class EventIndex:
    """Per-history indices: children, per-register event sets, the sources
    of the recorded edges into each event, the effectful-write order per
    cell, the rep events in order and the guards of the two fast paths
    that read that order.  What one event records (its step label's parse
    ``info``, an SC or VL's outcome) is read off the event.

    An index is made empty, ``EventIndex()``, or for a history,
    ``EventIndex(h)``, and filled only by ``feed``, one event and one edge
    at a time: a recorder feeds its own along the run
    (``HistoryRecorder.history``) and ``EventIndex(h)`` feeds the
    history's events, then its rf and ll edges.  ``truncate`` undoes the
    feeds past a mark, last first, so a rewound index is the one its
    prefix would have built.

    Two guards are kept as the events and edges arrive, by O(1) checks
    each (``chained``, ``traced``); ``_bad`` holds the feed positions of
    the events, rf and ll edges that broke one, with 2 when the chain
    broke and 1 when only the register traces did.

    So that a DFS leaf pays only for the steps past its branch point, the
    forwarding facts are kept along the run too.  ``wa_masks`` is fed one
    rep event at a time: per rep event, the writes whose wa step was fed
    before it, as a bit mask over their ``abs_rank``.  What is read off one
    operation's steps is kept per operation (``kept``) and dropped when a
    step of it is fed or truncated, or the operation is swapped: its
    grouping by instance (``instances``), the registers of its steps
    (``registers``, under the guard ``laid``), and in visibility.py its
    forward instances and an abs scan's identity virtual scan.  A kept
    value is never changed, so what a leaf read stays as it was."""

    def __init__(self, h: Optional["History"] = None):
        self._h = None if h is None else weakref.ref(h)
        self.kids: dict[int, list[Event]] = {}  # parent id -> its rep events, by start
        self.regs: dict[str, RegOps] = {}
        self.rf_src: dict[int, list[int]] = {}
        self.ll_src: dict[int, list[int]] = {}
        self.abs_writes: dict[int, list[Event]] = {}
        self.abs_scans: list[Event] = []
        self.abs_events: list[Event] = []  # in the order fed, so by abs_rank
        self.wa_of: dict[int, Event] = {}
        # effectful writes per cell, in serialization (wa interval) order
        self.effectful: dict[int, list[Event]] = {}
        self.reps: list[Event] = []  # the rep events in order
        self.rep_pos: dict[int, int] = {}  # rep id -> its place in reps
        self.abs_rank: dict[int, int] = {}  # abs id -> its place among abs events
        self._bad: tuple = ([], [], [])
        self._kept: dict[Optional[int], dict] = {}
        self.wa_masks: list[int] = []
        self._wa_mask = 0  # the writes whose wa step was fed so far
        self._unlaid: list[int] = []  # feed positions of the events that broke ``laid``
        self._loose: list[Event] = []  # the rep events of no operation
        # what feeding needs: each abs write's cell and event, and the
        # wa_of entries that a later wa event replaced
        self._fed = [0, 0, 0]  # how many events, rf and ll edges were fed
        self._writes: dict[int, tuple[int, Event]] = {}
        self._wa_prev: dict[int, Event] = {}
        if h is not None:
            self.feed(h.events, h.rf, h.ll)

    # -- feeding -----------------------------------------------------------

    def feed(self, events: list, rf: list, ll: list) -> None:
        """Add what the lists hold past what was fed: events, then edges."""
        self._forget()
        counts = self._fed
        pos = counts[0]
        kids, regs, reps, rep_pos = self.kids, self.regs, self.reps, self.rep_pos
        abs_rank, bad, unlaid = self.abs_rank, self._bad[0], self._unlaid
        masks, kept = self.wa_masks, self._kept
        nreps = len(reps)
        for e in events[pos:]:
            if e.kind != REP:
                self._add_other(e, pos)
                pos += 1
                continue
            parent = e.parent
            eid, info, reg = e.id, e.info, e.object
            base = info[0]
            if parent is None:
                sibs = self._loose
            else:
                sibs = kids.get(parent)
                if sibs is None:
                    sibs = kids[parent] = []
            kept.pop(parent, None)
            if sibs:
                if sibs[-1].id >= eid:
                    unlaid.append(pos)
                if sibs[-1].start <= e.start:
                    sibs.append(e)
                else:
                    insort(sibs, e, key=_start)
            else:
                sibs.append(e)
            if eid in abs_rank:
                unlaid.append(pos)
            masks.append(self._wa_mask)
            ops = regs[reg] if reg in regs else regs.setdefault(reg, RegOps())
            if info[3] in ops.by_memop:
                ops.by_memop[info[3]].append(e)
            if base == "wa" and parent is not None:
                self._set_wa(e, pos)
            # the chain: each rep event returns before the next starts; the
            # register traces: also returned, and of an operation fed before
            if not e.start <= e.end or (nreps and not reps[-1].end < e.start) or eid in rep_pos:
                bad.append((pos, 2))
            elif e.end == INF or not (parent is None or parent in abs_rank):
                bad.append((pos, 1))
            rep_pos[eid] = nreps
            nreps += 1
            reps.append(e)
            ops.trace.append(e)
            pos += 1
        counts[0] = pos
        # An edge, rf (1) or ll (2): the chain needs it between rep events,
        # forward; the register traces need it within one register, forward.
        for which, edges, src in ((1, rf, self.rf_src), (2, ll, self.ll_src)):
            bad = self._bad[which]
            q = counts[which]
            for a, b in edges[q:]:
                if b in src:
                    src[b].append(a)
                else:
                    src[b] = [a]
                if a not in rep_pos or b not in rep_pos or not rep_pos[a] < rep_pos[b]:
                    bad.append((q, 2))
                elif reps[rep_pos[a]].object != reps[rep_pos[b]].object:
                    bad.append((q, 1))
                q += 1
            counts[which] = q

    def _set_wa(self, e: Event, pos: int) -> None:
        """Feed ``e``, the wa event of abs write ``e.parent``, at ``pos``."""
        prev = self.wa_of.get(e.parent)
        if prev is not None:
            self._wa_prev[e.id] = prev
            self._unlaid.append(pos)
            self._unplace_effectful(e.parent)
        self.wa_of[e.parent] = e
        self._place_effectful(e.parent)
        rank = self.abs_rank.get(e.parent)
        if rank is not None:
            self._wa_mask |= 1 << rank

    def _add_other(self, e: Event, pos: int) -> None:
        """Feed ``e``, an abs event or one of no known kind."""
        if e.kind != ABS:
            self._bad[0].append((pos, 1))
            return
        if e.id in self.rep_pos:
            self._unlaid.append(pos)
        self.abs_rank[e.id] = len(self.abs_rank)
        self.abs_events.append(e)
        cell = abs_write_cell(e.op)
        if cell is not None:
            if cell not in self.abs_writes:
                self.abs_writes[cell] = []
                self.effectful[cell] = []
            self.abs_writes[cell].append(e)
            self._writes[e.id] = (cell, e)
            if e.id in self.wa_of:
                self._place_effectful(e.id)
        elif e.op == "scan":
            self.abs_scans.append(e)

    def truncate(self, events: list, rf: list, ll: list, mark: tuple) -> None:
        """Undo the feeds past ``mark``, counts of events, rf and ll edges,
        of what the lists fed: the edges, then the events, each last first.
        ``mark`` is a recorder's, so an edge past it leads into an event
        past it, whose key parts go with it."""
        self._forget()
        counts = self._fed
        for which, edges, src in ((1, rf, self.rf_src), (2, ll, self.ll_src)):
            bad = self._bad[which]
            for q in range(counts[which] - 1, mark[which] - 1, -1):
                b = edges[q][1]
                held = src[b]
                del held[-1]
                if not held:
                    del src[b]
                if bad and bad[-1][0] == q:
                    del bad[-1]
            if counts[which] > mark[which]:
                counts[which] = mark[which]
        kids, regs, reps, rep_pos = self.kids, self.regs, self.reps, self.rep_pos
        bad, unlaid = self._bad[0], self._unlaid
        for p in range(counts[0] - 1, mark[0] - 1, -1):
            e = events[p]
            if bad and bad[-1][0] == p:
                del bad[-1]
            while unlaid and unlaid[-1] == p:
                del unlaid[-1]
            if e.kind != REP:
                self._drop_other(e)
                continue
            parent = e.parent
            eid, info, reg = e.id, e.info, e.object
            base = info[0]
            sibs = self._loose if parent is None else kids[parent]
            if sibs[-1] is e:
                del sibs[-1]
            else:
                sibs.remove(e)
            self._kept.pop(parent, None)
            if not sibs and parent is not None:
                del kids[parent]
            self._wa_mask = self.wa_masks.pop()
            ops = regs[reg]
            if info[3] in ops.by_memop:
                del ops.by_memop[info[3]][-1]
            trace = ops.trace
            del trace[-1]
            if not trace:
                del regs[reg]
            if base == "wa" and parent is not None:
                self._unset_wa(e)
            del reps[-1]
            del rep_pos[eid]
        if counts[0] > mark[0]:
            counts[0] = mark[0]
            for ops in regs.values():
                if len(ops.keyparts) > len(ops.trace):
                    ops.trim(len(ops.trace))

    def _unset_wa(self, e: Event) -> None:
        """Undo the feed of ``e``, the wa event of abs write ``e.parent``."""
        self._unplace_effectful(e.parent)
        prev = self._wa_prev.pop(e.id, None)
        if prev is None:
            del self.wa_of[e.parent]
        else:
            self.wa_of[e.parent] = prev
            self._place_effectful(e.parent)

    def _drop_other(self, e: Event) -> None:
        """Undo the feed of ``e``, an abs event or one of no known kind."""
        if e.kind != ABS:
            return
        cell = abs_write_cell(e.op)
        if cell is not None:
            if e.id in self.wa_of:
                self._unplace_effectful(e.id)
            del self._writes[e.id]
            ws = self.abs_writes[cell]
            ws.pop()
            if not ws:
                del self.abs_writes[cell]
                del self.effectful[cell]
        elif e.op == "scan":
            self.abs_scans.pop()
        del self.abs_rank[e.id]
        self.abs_events.pop()

    def _forget(self) -> None:
        """Drop what was read off the index and cached: it is changing."""
        self.__dict__.pop("eff_rank", None)

    def _eff_key(self, w: Event) -> tuple:
        return self.wa_of[w.id].start, self.abs_rank[w.id]

    def _place_effectful(self, wid: int) -> None:
        """Put the fed abs write ``wid``, which has a wa event, in its cell's
        effectful order: by wa start, then in write order."""
        found = self._writes.get(wid)
        if found is None:
            return
        eff = self.effectful[found[0]]
        w = found[1]
        if not eff or self._eff_key(eff[-1]) <= self._eff_key(w):
            eff.append(w)
        else:
            insort(eff, w, key=self._eff_key)

    def _unplace_effectful(self, wid: int) -> None:
        found = self._writes.get(wid)
        if found is not None:
            eff = self.effectful[found[0]]
            del eff[len(eff) - 1 - eff[::-1].index(found[1])]

    def swap(self, old: Event, new: Event) -> None:
        """Hold ``new`` in place of ``old``, a recorder's abs event (no
        parent; its id is its place) and ``new`` its copy.  What was kept
        for it (``kept``) goes; what else was cached off the index names no
        abs event, so it stays."""
        if old.id >= self._fed[0]:
            return  # not fed yet
        self._kept.pop(old.id, None)
        self.abs_events[self.abs_rank[old.id]] = new
        write = self._writes.get(old.id)
        if write is None:
            _swapped(self.abs_scans, old, new)
        else:
            cell = write[0]
            _swapped(self.abs_writes[cell], old, new)
            _swapped(self.effectful[cell], old, new)
            self._writes[old.id] = (cell, new)

    # -- reading -------------------------------------------------------------

    @property
    def h(self) -> Optional["History"]:
        """The history this index is for (held weakly: a history holds its
        index)."""
        return None if self._h is None else self._h()

    def describes(self, h: "History") -> bool:
        """Whether this index is for ``h`` and was fed as many events, rf
        and ll edges as ``h`` holds."""
        return self.h is h and self._fed == [len(h.events), len(h.rf), len(h.ll)]

    @property
    def chained(self) -> bool:
        """Whether each rep event returns before the next one in ``reps``
        starts, and every rf and ll edge points forward in that order: the
        rep-level happens-before is then the order of ``reps``."""
        return not any(self._bad) or all(level < 2 for bad in self._bad for _, level in bad)

    @property
    def laid(self) -> bool:
        """Whether ids ascend along each operation's steps, and along the rep
        events of no operation, no abs event has a rep event's id, and no
        write has two wa steps.  Under ``traced`` the steps come in the order
        fed, so ``registers`` names each operation's steps in order, its first
        step being its step of least id, and ``wa_masks`` tell which
        writes' ``wa_of`` step precedes each rep event."""
        return not self._unlaid

    @property
    def traced(self) -> bool:
        """``chained``, and every event is abs or rep, every rep event has
        returned and belongs to an abs operation fed before it (or none),
        and every edge joins two events of one register: ≺ restricted to a
        register is then the order of its ``trace``."""
        return not any(self._bad)

    def register_key_parts(self, reg: str) -> tuple[list, list, list]:
        """``reg``'s key parts (see ``RegOps``), computed for the trace
        events that lack them; ``traced`` must hold."""
        ops = self.regs[reg]
        parts, trace = ops.keyparts, ops.trace
        if len(parts) < len(trace):
            ops.key = None
            place = {e.id: k for k, e in enumerate(trace)}
            for k in range(len(parts), len(trace)):
                e = trace[k]
                parts.append((-1 if e.parent is None else self.abs_rank[e.parent],
                              e.op, e.input, e.output))
                for pairs, src in ((ops.rf_pairs, self.rf_src), (ops.ll_pairs, self.ll_src)):
                    for a in src.get(e.id, ()):
                        pairs.append((place[a], k))
        return parts, ops.rf_pairs, ops.ll_pairs

    @cached_property
    def eff_rank(self) -> dict[int, int]:
        """Each effectful write's place in its cell's order."""
        return {w.id: r for ws in self.effectful.values() for r, w in enumerate(ws)}

    def instances(self, parent: int) -> dict:
        """The rep events of ``parent`` grouped by their @instance tag:
        ``{inst: {base: {cell: event}}}``, or ``{inst: {base: [events]}}``
        for a base without a cell index.  Built once per parent and kept
        until a step of ``parent`` is fed or truncated."""
        kept = self.kept(parent)
        groups = kept.get("instances")
        if groups is None:
            groups = kept["instances"] = {}
            for e in self.kids.get(parent, ()):
                base, i, inst, _ = e.info
                if inst is None:
                    continue
                g = groups.setdefault(inst, {})
                if i is None:
                    g.setdefault(base, []).append(e)
                else:
                    g.setdefault(base, {})[i] = e
        return groups

    def kept(self, parent: Optional[int]) -> dict:
        """What readers keep for operation ``parent`` (None: for the rep
        events of no operation) until a step of it is fed or truncated, or
        it is swapped.  A kept value must not be changed."""
        got = self._kept.get(parent)
        if got is None:
            got = self._kept[parent] = {}
        return got

    def steps(self, parent: Optional[int]) -> list[Event]:
        """The rep events of operation ``parent`` by start; None: those of
        no operation."""
        return self._loose if parent is None else self.kids.get(parent, [])

    def registers(self, parent: Optional[int]) -> tuple:
        """The registers of ``steps(parent)``; kept."""
        kept = self.kept(parent)
        regs = kept.get("registers")
        if regs is None:
            regs = kept["registers"] = tuple([e.object for e in self.steps(parent)])
        return regs

    def label(self, eid: int) -> str:
        """The step label of rep event ``eid``; "" if no rep event has that id."""
        pos = self.rep_pos.get(eid)
        return "" if pos is None else self.reps[pos].info[0]

    def single_rf(self, reader: int) -> Optional[int]:
        srcs = self.rf_src.get(reader)
        if srcs and len(srcs) == 1:
            return srcs[0]
        return None

    def write_likes(self, reg: str) -> list[Event]:
        ops = self.regs[reg]
        out = list(ops.writes) + [e for e in ops.scs if e.output is True]
        out.sort(key=lambda e: e.start)
        return out

    def read_likes(self, reg: str) -> list[Event]:
        ops = self.regs[reg]
        return ops.reads + ops.lls + ops.scs + ops.vls

    def is_llsc_reg(self, reg: str) -> bool:
        ops = self.regs[reg]
        return bool(ops.lls or ops.scs or ops.vls)


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
        if e.kind == ABS:
            out.append(Violation("EV.parent", (e.id, p.id), "abs event nested in an event"))
        elif e.kind == REP and p.kind != ABS:
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

