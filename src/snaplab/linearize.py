"""Constructive linearization from snapshot-level visibility.

Builds the per-cell write order, extends it to a total write order,
repeatedly selects a maximal candidate working backward from the tail,
and validates the emitted order by sequential replay.  A brute-force
enumeration oracle provides the independent ground truth on small
completed-event sets.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Optional

from .events import UNIT, abs_write_cell
from .visibility import CorruptHistory, Derived, bits


class LinearizeError(Exception):
    def __init__(self, msg, witnesses=()):
        super().__init__(msg)
        self.witnesses = tuple(witnesses)


class CycleError(LinearizeError):
    """The write order closure has a cycle: a snapshot axiom was violated
    upstream."""


class NoCandidate(LinearizeError):
    """No maximal candidate exists: a snapshot axiom was violated upstream."""


class SizeGuard(LinearizeError):
    """Completed-event set exceeds the brute-force enumeration guard."""


@dataclass
class Linearization:
    order: list[int]
    replay: list[tuple[int, list]]
    legal: bool
    _json: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def to_obj(self) -> dict:
        return {
            "order": list(self.order),
            "replay": [{"event": e, "array": list(a)} for e, a in self.replay],
            "legal": self.legal,
        }

    def to_json(self) -> str:
        """Computed once: the memo hands the same object to every schedule
        that repeats a behaviour."""
        if self._json is None:
            self._json = json.dumps(self.to_obj(), separators=(",", ":"))
        return self._json


@dataclass
class NotLinearizable:
    searched: int
    note: str = "no total order extending returns-before replays legally"

    def to_obj(self) -> dict:
        return {"linearizable": False, "searched": self.searched, "note": self.note}


def completed_set(d: Derived) -> list[int]:
    """Terminated scans plus effectful writes (those whose cell write ran)."""
    out = [s.id for s in d.idx.abs_scans if s.terminated]
    for ws in d.idx.effectful.values():
        out.extend(w.id for w in ws)
    return sorted(out)


def wrdiff_pairs(d: Derived):
    """w_i wrDiff w'_j: i≠j and some scan observes w_i together with a w_j
    that the write order puts before w'_j."""
    idx = d.idx
    sv = d.snap
    pairs = set()
    for s, per_cell in sv.obs.items():
        # a corrupt history can make a scan observe what is no effectful
        # write; the linearizer then fails on its own terms
        cells = {i: ws[0] for i, ws in per_cell.items() if ws and ws[0] in idx.eff_rank}
        for i, wi in cells.items():
            for j, wj in cells.items():
                if i == j:
                    continue
                later = idx.effectful[j][idx.eff_rank[wj] + 1:]
                for wj2 in later:
                    pairs.add((wi, wj2.id))
    return pairs


class WriteOrder:
    """Total order over effectful writes extending (hb ∪ wrDiff)+."""

    def __init__(self, total: list[int]):
        self.total = total
        self.rank = {w: k for k, w in enumerate(total)}


def build_whb(d: Derived):
    """Direct whb adjacency over effectful writes: each write's successors
    in the snapshot closure, plus wrDiff.  It may hold a cycle, which
    extend_total_writes reports."""
    hb = d.snap.hb
    ids = sorted(w for ws in d.idx.effectful.values() for w in (x.id for x in ws))
    pos = {w: k for k, w in enumerate(ids)}
    at = {hb.pos[w]: k for k, w in enumerate(ids)}  # closure position -> index in ids
    writes = sum(1 << p for p in at)
    adj = [sum(1 << at[p] for p in bits(hb.succ_mask(w) & writes)) for w in ids]
    for a, b in wrdiff_pairs(d):
        adj[pos[a]] |= 1 << pos[b]
    return ids, pos, adj


def extend_total_writes(d: Derived) -> WriteOrder:
    """Deterministic topological extension of whb; ties broken by
    (end timestamp, event id).  Raises CycleError if whb has a cycle."""
    ids, _, adj = build_whb(d)
    h = d.history
    n = len(ids)
    indeg = [0] * n
    for m in adj:
        for j in bits(m):
            indeg[j] += 1
    heap = [(h.event(ids[k]).end, ids[k], k) for k in range(n) if indeg[k] == 0]
    heapq.heapify(heap)
    total = []
    while heap:
        _, w, k = heapq.heappop(heap)
        total.append(w)
        for j in bits(adj[k]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (h.event(ids[j]).end, ids[j], j))
    if len(total) != n:
        raise CycleError("write order has a cycle", ids)
    return WriteOrder(total)


def replay_order(d: Derived, order: list[int]):
    """Sequential snapshot semantics: writes store, scans must return the
    current array; every terminated write's output must be unit."""
    h = d.history
    arr: list = [None] * h.n
    trace = []
    legal = True
    for eid in order:
        e = h.event(eid)
        cell = abs_write_cell(e.op)
        if cell is not None:
            arr[cell] = e.input
            if e.terminated and e.output != UNIT:
                legal = False
        else:
            if not e.terminated or list(e.output) != arr:
                legal = False
        trace.append((eid, list(arr)))
    return legal, trace


def linearize(d: Derived) -> Linearization:
    """Backward construction: repeatedly remove a maximal candidate and
    prepend; replay validates the result.  Raises CycleError/NoCandidate
    when the snapshot axioms failed upstream."""
    h = d.history
    sv = d.snap
    idx = d.idx
    worder = extend_total_writes(d)
    ec = completed_set(d)
    ec_set = set(ec)
    scans = sorted(s.id for s in idx.abs_scans if s.terminated)
    obs1: dict[int, dict[int, int]] = {}
    for s in scans:
        obs1[s] = {i: ws[0] for i, ws in sv.obs.get(s, {}).items() if ws}
    observed_by: dict[int, set[int]] = {}
    for s, per_cell in obs1.items():
        for w in per_cell.values():
            observed_by.setdefault(w, set()).add(s)
    cell_stacks = {cell: sorted((x.id for x in ws), key=lambda w: worder.rank[w])
                   for cell, ws in idx.effectful.items()}
    global_stack = list(worder.total)
    hb = sv.hb
    remaining_mask = 0
    for e in ec:
        remaining_mask |= 1 << hb.pos[e]
    remaining = set(ec)

    def cell_top(cell):
        st = cell_stacks[cell]
        while st and st[-1] not in remaining:
            st.pop()
        return st[-1] if st else None

    def global_top():
        while global_stack and global_stack[-1] not in remaining:
            global_stack.pop()
        return global_stack[-1] if global_stack else None

    suffix: list[int] = []
    live_scans = list(scans)
    while remaining:
        pick = None
        for s in live_scans:
            if s not in remaining:
                continue
            if hb.succ_mask(s) & remaining_mask:
                continue
            good = True
            per = obs1[s]
            for i in range(h.n):
                w = per.get(i)
                if w is None or w not in remaining or cell_top(i) != w:
                    good = False
                    break
            if good:
                pick = s
                break
        if pick is None:
            w = global_top()
            if w is not None:
                watchers = observed_by.get(w, ())
                if not any(s in remaining for s in watchers) \
                        and not (hb.succ_mask(w) & remaining_mask):
                    pick = w
        if pick is None:
            raise NoCandidate("no maximal candidate among remaining events",
                              sorted(remaining))
        suffix.append(pick)
        remaining.discard(pick)
        remaining_mask &= ~(1 << hb.pos[pick])
    order = list(reversed(suffix))
    legal, trace = replay_order(d, order)
    placed = 0
    respects = True
    for eid in order:
        if hb.succ_mask(eid) & placed:
            respects = False
        placed |= 1 << hb.pos[eid]
    return Linearization(order, trace, legal and respects)


def pick_maximal_candidate(d: Derived) -> int:
    """The first event the backward construction selects: a happens-before
    maximal event that is either the globally greatest unobserved write or a
    scan observing only per-cell greatest writes.  It becomes the
    linearization's final event."""
    return linearize(d).order[-1]


def lin_verdict(d: Derived) -> tuple[Optional[Linearization], bool, Optional[str]]:
    """The linearization of ``d``, whether it is legal (the verdict CHAIN
    reads), and why the construction failed, if it did."""
    try:
        lin = linearize(d)
    except (LinearizeError, CorruptHistory) as exc:
        return None, False, f"{type(exc).__name__}: {exc}"
    return lin, lin.legal, None


def brute_force_linearize(d: Derived, guard: int = 10):
    """Enumerate total orders of the completed set extending returns-before,
    pruning by replay-prefix legality; first legal order wins."""
    h = d.history
    ec = completed_set(d)
    if len(ec) > guard:
        raise SizeGuard(f"completed set has {len(ec)} events (guard {guard})")
    evs = [h.event(i) for i in ec]
    k = len(evs)
    used = [False] * k
    arr: list = [None] * h.n
    order: list[int] = []
    trace: list[tuple[int, list]] = []
    searched = 0

    def minimal(j):
        e = evs[j]
        for m in range(k):
            if m != j and not used[m] and evs[m].end < e.start:
                return False
        return True

    def dfs() -> bool:
        nonlocal searched
        if len(order) == k:
            return True
        for j in range(k):
            if used[j] or not minimal(j):
                continue
            e = evs[j]
            searched += 1
            cell = abs_write_cell(e.op)
            if cell is None:
                if not e.terminated or list(e.output) != arr:
                    continue
                used[j] = True
                order.append(e.id)
                trace.append((e.id, list(arr)))
                if dfs():
                    return True
                trace.pop()
                order.pop()
                used[j] = False
            else:
                old = arr[cell]
                arr[cell] = e.input
                used[j] = True
                order.append(e.id)
                trace.append((e.id, list(arr)))
                if dfs():
                    return True
                trace.pop()
                order.pop()
                used[j] = False
                arr[cell] = old
        return False

    if dfs():
        return Linearization(order, trace, True)
    return NotLinearizable(searched)
