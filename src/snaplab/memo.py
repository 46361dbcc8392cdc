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
ids.  That guard is checked along the run, by O(1) checks per event and
edge as the recorder feeds the event index (``EventIndex.traced``), and
the index keeps each register's trace and its key parts, extended to the
events that lack them when a key is asked for: a DFS leaf pays for the
events past its branch point and one digest per register.

F and F+ read ≺ across registers (F.4c compares the write to A[i] with
the read of B[i]), so their key would be the whole rep trace, and no two
of alg2-dfs's 1,000 schedules share one.  They, RB and CHAIN run for
every schedule; F and F+ share their forwarding facts (``Derived.fwd``).

Keys are 16-byte digests of a marshal encoding.  A snapshot entry holds a
linearization, so it is kept only from a behaviour's second sighting on:
a behaviour that never repeats costs its digest.
"""
from __future__ import annotations

import hashlib
import marshal
from typing import Callable, Optional

from .checker import REGISTER_SUITES, sigma_containment
from .events import ABS, INF
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
    [events]})``, or None unless the index's register guard held along
    the run (``EventIndex.traced``): the rep events pairwise disjoint, all
    returned, and every rf/ll edge joining two events of one register in
    start order."""
    idx = d.idx
    if not idx.traced:
        return None
    keys = {}
    for reg in idx.regs:
        keys[reg] = _digest((reg, *idx.register_key_parts(reg)))
        if keys[reg] is None:
            return None
    return keys, {reg: ops.trace for reg, ops in idx.regs.items()}


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
