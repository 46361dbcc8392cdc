"""Check each behaviour once per exploration.

The axioms speak of visibility (who observed whose write, how each
register orders its events), not of the interleaving that produced a
run, so schedules that show the same behaviour get the same verdict.
``explore()`` keeps one ``Memo`` per call and checks a repeated behaviour
once.  The memo is exact: each layer is keyed on a digest of everything
that layer reads, so a hit returns what a fresh derivation would.

Snapshot layer: the snapshot closure, S, the linearizer and the oracle.
They read the abs events (id, op, input, output, and the order of their
start and end ticks, not the ticks themselves), each scan's observed
writes, each cell's effectful-write order, the edges of the snapshot
closure (the derived scan order among them) and, for virtual scans
without forwarding (afek), the F.1 containment outcome that S reports
first.

Per-register layer: M, M+ and L, one entry per register.  When the rep
events are pairwise disjoint and every rf/ll edge joins two events of
one register in start order (every simulator history), ≺ restricted to a
register is the order of that register's events, so those suites read
the register's own trace and nothing else: per event its op, input,
output and operation (M+ compares operations), and the edges.  The key
names an event by its index in the register's trace and an operation by
its invocation rank, so a trace repeats even when its events got other
ids; witnesses are stored as indices and mapped back to each schedule's
ids.

F and F+ read ≺ across registers (F.4c compares the write to A[i] with
the read of B[i]); they, RB and CHAIN run for every schedule.

Keys are 16-byte digests of a marshal encoding.  A snapshot entry holds a
linearization, so it is kept only from a behaviour's second sighting on:
a behaviour that never repeats costs its digest.
"""
from __future__ import annotations

import hashlib
import marshal
from operator import le, lt
from typing import Callable, Optional

from .checker import REGISTER_SUITES, sigma_containment
from .events import ABS, INF, REP
from .report import SuiteResult, Violation
from .visibility import CorruptHistory, Derived


def _digest(parts) -> Optional[bytes]:
    """A digest of ``parts``, or None if it holds a value marshal cannot
    encode.  Version 2 writes no back-references and no interning flags,
    so equal values encode equally."""
    try:
        data = marshal.dumps(parts, 2)
    except ValueError:
        return None
    return hashlib.blake2b(data, digest_size=16).digest()


def snapshot_key(d: Derived) -> Optional[bytes]:
    """The snapshot layer's key, or None when the derivation it reads
    fails (the layer then reports the failure itself)."""
    h = d.history
    try:
        sv = d.snap
        f1 = [(v.axiom, v.witnesses, v.note) for v in sigma_containment(d)] \
            if d.rules.unforwarded else None
    except CorruptHistory:
        return None
    abs_events = [e for e in h.events if e.kind == ABS]
    ticks = {e.start for e in abs_events}
    ticks.update(e.end for e in abs_events if e.end != INF)
    rank = {t: k for k, t in enumerate(sorted(ticks))}
    events = [(e.id, e.op, e.input, e.output, rank[e.start], rank[e.end])
              if e.end != INF else (e.id, e.op, e.input, rank[e.start])
              for e in abs_events]
    effectful = [(cell, [w.id for w in ws]) for cell, ws in d.idx.effectful.items()]
    return _digest((d.algorithm, h.n, events, sv.obs, effectful, sv.prec_edges, f1))


def register_traces(d: Derived) -> Optional[tuple[dict, dict]]:
    """Each register's key and trace, ``({register: key}, {register:
    [events]})``, or None unless the rep events are pairwise disjoint and
    every rf/ll edge joins two events of one register in start order.
    The events are taken in list order, which must then be their start
    order, and all must have returned."""
    h = d.history
    events = h.events
    reps = [e for e in events if e.kind == REP]
    rank = {e.id: k for k, e in enumerate(e for e in events if e.kind == ABS)}
    starts = [e.start for e in reps]
    ends = [e.end for e in reps]
    if len(reps) + len(rank) != len(events) or not all(map(le, starts, ends)) \
            or not all(map(lt, ends, starts[1:])) or INF in ends[-1:]:
        return None
    rank[None] = -1
    traces: dict[str, list] = {}
    for e in reps:
        traces.setdefault(e.object, []).append(e)
    idx = d.idx
    seen = 0  # edges found inside their register; all must be
    keys = {}
    for reg, evs in traces.items():
        parents = [rank.get(e.parent) for e in evs]  # the operation's invocation rank
        if None in parents:
            return None  # a parent that is no abs event
        pos = {e.id: k for k, e in enumerate(evs)}
        edges = []  # rf, then ll: (source index, target index), per target in order
        for src_of in (idx.rf_src, idx.ll_src):
            pairs = []
            for k, e in enumerate(evs):
                for a in src_of.get(e.id, ()):
                    j = pos.get(a)
                    if j is None or not j < k:
                        return None
                    pairs.append((j, k))
            seen += len(pairs)
            edges.append(pairs)
        keys[reg] = _digest((reg, parents, [e.op for e in evs], [e.input for e in evs],
                             [e.output for e in evs], edges))
        if keys[reg] is None:
            return None
    if seen != len(h.rf) + len(h.ll):
        return None  # an edge into no rep event
    return keys, traces


class Memo:
    """The results of one exploration, keyed by behaviour."""

    def __init__(self):
        self._snap: dict[bytes, object] = {}  # key -> layer, or None when seen once
        # key -> suite -> violations, witnesses as indices into the trace
        self._regs: dict[bytes, dict[str, list]] = {}

    def snapshot(self, d: Derived, compute: Callable[[], object]):
        """``(compute()'s result for d's behaviour, the key or None)``."""
        key = snapshot_key(d)
        if key is None:
            return compute(), None
        if key not in self._snap:
            self._snap[key] = None
            return compute(), key
        layer = self._snap[key]
        if layer is None:
            layer = self._snap[key] = compute()
        return layer, key

    def register_suites(self, d: Derived, suites) -> tuple[dict, tuple]:
        """``({suite: result}, the register keys)`` for the per-register
        suites among ``suites``; both empty when the guard fails."""
        wanted = [n for n in suites if n in REGISTER_SUITES]
        traces = register_traces(d) if wanted else None
        if traces is None:
            return {}, ()
        keys, traces = traces
        idx = d.idx
        results = {n: SuiteResult(n) for n in wanted}
        for reg, ops in sorted(idx.regs.items()):
            llsc = idx.is_llsc_reg(reg)
            entry = self._regs.setdefault(keys[reg], {})
            trace = traces[reg]
            for suite in wanted:
                on_llsc, _, body = REGISTER_SUITES[suite]
                if on_llsc != llsc:
                    continue
                out = results[suite].violations
                stored = entry.get(suite)
                if stored is None:
                    found: list = []
                    body(d, d.rep.hb, reg, ops, found)
                    out.extend(found)
                    pos = {e.id: k for k, e in enumerate(trace)} if found else {}
                    if all(w in pos for v in found for w in v.witnesses):
                        entry[suite] = [(v.axiom, tuple(pos[w] for w in v.witnesses), v.note)
                                        for v in found]
                else:
                    out.extend(Violation(axiom, tuple(trace[k].id for k in ws), note)
                               for axiom, ws, note in stored)
        return results, tuple(keys.values())
