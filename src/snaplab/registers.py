"""Instrumented shared registers: plain atomic cells and LL/SC/VL cells.

Each operation performs its memory effect and records a rep event.  A
step's ``label`` is ``(label, cell, instance)`` (or its text, see
``events.rep_op``); the recorder keeps it as the event's parsed op.
Reads-from edges are captured by tagging every cell with the id of its
last write-like event; load-links are paired with their SC/VL through
per-thread link state keyed by (thread, register).  LL/SC is emulated
with a version counter bumped by every write-like event, so an SC
succeeds exactly when the write-like event its LL observed is still the
latest one.

In threadsafe mode the ticks delimiting a rep event are sampled inside
the per-register critical section, so rep events of one register never
overlap and the recorded serialization is the real one.
"""
from __future__ import annotations

from contextlib import nullcontext
import threading
from typing import Any, Callable, NamedTuple

from .events import REP, UNIT, HistoryRecorder, rep_op


class UsageError(Exception):
    """SC/VL issued without a pairing LL by the same thread."""


class Cell:
    __slots__ = ("name", "value", "last_writer", "version", "lock")

    def __init__(self, name, value, lock=None):
        self.name = name
        self.value = value
        self.last_writer = None
        self.version = 0
        self.lock = lock


class _Link(NamedTuple):
    """A thread's load-link on one register.  Immutable, so a saved
    ``Memory`` state and the live run can share it."""
    version: int
    ll_event: int
    observed: Any


class Memory:
    """A bank of named registers wired to a history recorder."""

    def __init__(self, recorder: HistoryRecorder, threadsafe: bool = False):
        self.recorder = recorder
        self.threadsafe = threadsafe
        self.cells: dict[str, Cell] = {}
        self._links: dict[tuple[Any, str], _Link] = {}

    def make(self, name: str, initial, init_event: bool = False) -> str:
        lock = threading.Lock() if self.threadsafe else None
        cell = Cell(name, initial, lock)
        self.cells[name] = cell
        if init_event:
            rec = self.recorder
            op, info = rep_op(("init", None, None), "w")
            with cell.lock or nullcontext():
                ev = rec.begin(REP, op, initial, None, name, info)
                cell.last_writer = ev.id
                cell.version += 1
                rec.finish(ev, UNIT)
        return name

    def save(self) -> tuple:
        """The cells' contents and the links, for ``restore``."""
        return ([(c.value, c.last_writer, c.version) for c in self.cells.values()],
                dict(self._links))

    def restore(self, state: tuple) -> None:
        """Put back what ``save`` returned; no cell may have been made since."""
        cells, links = state
        for c, (value, writer, version) in zip(self.cells.values(), cells):
            c.value, c.last_writer, c.version = value, writer, version
        self._links = dict(links)

    # -- plain register operations ---------------------------------------

    def write(self, name: str, value, parent: int, label: tuple | str) -> None:
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, "w")
        with cell.lock or nullcontext():
            ev = rec.begin(REP, op, value, parent, name, info)
            cell.value = value
            cell.last_writer = ev.id
            cell.version += 1
            rec.finish(ev, UNIT)

    def update(self, name: str, fn: Callable, parent: int, label: tuple | str) -> None:
        """Atomically replace the cell value with fn(old); one write event."""
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, "w")
        with cell.lock or nullcontext():
            new = fn(cell.value)
            ev = rec.begin(REP, op, new, parent, name, info)
            cell.value = new
            cell.last_writer = ev.id
            cell.version += 1
            rec.finish(ev, UNIT)

    def read(self, name: str, parent: int, label: tuple | str):
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, "r")
        with cell.lock or nullcontext():
            ev = rec.begin(REP, op, None, parent, name, info)
            value = cell.value
            if cell.last_writer is not None:
                rec.add_rf(cell.last_writer, ev.id)
            rec.finish(ev, value)
        return value

    # -- LL/SC/VL ---------------------------------------------------------

    def ll(self, name: str, thread, parent: int, label: tuple | str):
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, "ll")
        with cell.lock or nullcontext():
            ev = rec.begin(REP, op, None, parent, name, info)
            value = cell.value
            if cell.last_writer is not None:
                rec.add_rf(cell.last_writer, ev.id)
            self._links[(thread, name)] = _Link(cell.version, ev.id, cell.last_writer)
            rec.finish(ev, value)
        return value

    def sc(self, name: str, thread, value, parent: int, label: tuple | str) -> bool:
        link = self._links.get((thread, name))
        if link is None:
            raise UsageError(f"SC on {name} without prior LL by thread {thread}")
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, "sc")
        with cell.lock or nullcontext():
            ev = rec.begin(REP, op, value, parent, name, info)
            if cell.last_writer is not None:
                rec.add_rf(cell.last_writer, ev.id)
            rec.add_ll(link.ll_event, ev.id)
            ok = cell.version == link.version
            if ok:
                cell.value = value
                cell.last_writer = ev.id
                cell.version += 1
            rec.finish(ev, ok)
        return ok

    def vl(self, name: str, thread, parent: int, label: tuple | str) -> bool:
        link = self._links.get((thread, name))
        if link is None:
            raise UsageError(f"VL on {name} without prior LL by thread {thread}")
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, "vl")
        with cell.lock or nullcontext():
            ev = rec.begin(REP, op, None, parent, name, info)
            if cell.last_writer is not None:
                rec.add_rf(cell.last_writer, ev.id)
            rec.add_ll(link.ll_event, ev.id)
            ok = cell.version == link.version
            rec.finish(ev, ok)
        return ok

    def would_sc_succeed(self, name: str, thread) -> bool:
        """The success an SC/VL would report right now; no event, no effect."""
        link = self._links.get((thread, name))
        if link is None:
            raise UsageError(f"no link for thread {thread} on {name}")
        return self.cells[name].version == link.version
