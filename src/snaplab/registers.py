"""Instrumented shared registers: plain atomic cells and LL/SC/VL cells.

``Memory.step`` runs one step descriptor of ``algorithms`` and records it
as a rep event.  A step's ``label`` is ``(label, cell, instance)`` (or
its text, see ``events.rep_op``); the recorder keeps it as the event's
parsed op.  Reads-from edges are captured by tagging every cell with the
id of its last write-like event; load-links are paired with their SC/VL
through per-thread link state keyed by (thread, register).  LL/SC is
emulated with a version counter bumped by every write-like event, so an
SC succeeds exactly when the write-like event its LL observed is still
the latest one.

In threadsafe mode the ticks delimiting a rep event are sampled inside
the per-register critical section, so rep events of one register never
overlap and the recorded serialization is the real one.
"""
from __future__ import annotations

from contextlib import nullcontext
import threading
from typing import Any, NamedTuple

from .algorithms import LL, R, SC, UPD, VL, W
from .events import REP, UNIT, HistoryRecorder, rep_op


_UNLOCKED = nullcontext()  # the lock of a cell that has none; reusable


class UsageError(Exception):
    """SC/VL issued without a pairing LL by the same thread."""


class Cell:
    __slots__ = ("value", "last_writer", "version", "lock")

    def __init__(self, value, lock=None):
        self.value = value
        self.last_writer = None
        self.version = 0
        self.lock = lock


class _Link(NamedTuple):
    """A thread's load-link on one register.  Immutable, so a saved
    ``Memory`` state and the live run can share it."""
    version: int
    ll_event: int


# memop -> the name its rep events end in
_MEMOPS = {R: "r", W: "w", LL: "ll", SC: "sc", VL: "vl", UPD: "w"}


class Memory:
    """A bank of named registers wired to a history recorder."""

    def __init__(self, recorder: HistoryRecorder, threadsafe: bool = False):
        self.recorder = recorder
        self.threadsafe = threadsafe
        self.cells: dict[str, Cell] = {}
        self._links: dict[tuple[Any, str], _Link] = {}

    def make(self, name: str, initial, init_event: bool = False) -> str:
        lock = threading.Lock() if self.threadsafe else None
        self.cells[name] = Cell(initial, lock)
        if init_event:
            self.step((W, name, initial, ("init", None, None)), None, None)
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

    def step(self, desc: tuple, thread, parent):
        """Run the step descriptor ``(memop, register, value, label)`` of
        ``thread`` as one rep event under ``parent``, and return what the
        memop returns: None for W and UPD (whose value is a function of
        the old one), the value for R and LL, the link check for SC and VL.
        Every memop but W and UPD records an rf edge from the cell's last
        write-like event, SC and VL an ll edge from their link; W, UPD
        and a successful SC store."""
        memop, name, value, label = desc
        try:
            text = _MEMOPS[memop]
        except (KeyError, TypeError):
            raise ValueError(f"bad step descriptor {desc!r}") from None
        link = None
        if memop == SC or memop == VL:
            link = self._links.get((thread, name))
            if link is None:
                raise UsageError(f"{text.upper()} on {name} without prior LL by thread {thread}")
        cell = self.cells[name]
        rec = self.recorder
        op, info = rep_op(label, text)
        writes = memop == W or memop == UPD
        with cell.lock or _UNLOCKED:
            if memop == UPD:
                value = value(cell.value)
            ev = rec.begin(REP, op, value if writes or memop == SC else None, parent, name, info)
            out = None
            if not writes:
                if cell.last_writer is not None:
                    rec.add_rf(cell.last_writer, ev.id)
                if link is None:
                    out = cell.value
                    if memop == LL:
                        self._links[(thread, name)] = _Link(cell.version, ev.id)
                else:
                    rec.add_ll(link.ll_event, ev.id)
                    out = cell.version == link.version
            if writes or memop == SC and out:
                cell.value = value
                cell.last_writer = ev.id
                cell.version += 1
            rec.finish(ev, UNIT if writes else out)
        return out
