"""Check each behaviour once per exploration.

The axioms speak of visibility (who observed whose write, how each
register orders its events), not of the interleaving that produced a
run, so schedules that show the same behaviour get the same verdict.
``explore()`` keeps one ``Memo`` per call and checks a repeated behaviour
once.  The memo is exact: each layer is keyed on a digest of everything
that layer reads, so a hit returns what a fresh derivation would.

Snapshot layer: the forwarding level and the snapshot closure, S, the
linearizer and the oracle.  The key is taken from what the two abstract
derivations read, not from what they build, so it costs one pass over
the abstract level and no closure:

- the algorithm and n;
- the abs events (id, op, input, output), each start and end tick
  replaced by its rank among the abs ticks and the virtual-scan ticks;
- per virtual scan its id, the ranks of its span and whether it is
  complete, and the abs scans' virtual scans (``sigma_of``);
- what the virtual scans observed: with forwarding, the forwarding
  level's observation pass (``visibility.observe``: per virtual scan and
  cell, whether its b-read read its reset, the writes its a-read lifts,
  and the writes forwarded to it); without, each abs scan's observed
  writes;
- each cell's effectful-write order.

A key's entry holds S's report, the linearization and the oracle's
verdict, and the forwarding level and snapshot view they were read from;
a hit takes the two views over (``Derived.adopt``), so F and F+ read the
stored forwarding level.  An entry carries no history's ticks into
another: its closures are built before it is stored, so their ticks are
not read again, and the forwarding level names the threshold of F.5 and
F.6b as the node it came from, whose start F reads from its own history.

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
linearization and two closures, so it is kept only from a behaviour's
second sighting on: a behaviour that never repeats costs its digest.
"""
from __future__ import annotations

import hashlib
import marshal
from typing import Callable, Optional

from .checker import REGISTER_SUITES
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
    """The snapshot layer's key, or None when the virtual scans or what
    they observed cannot be derived (the layer then reports that itself)."""
    h, idx = d.history, d.idx
    try:
        sigmas, sigma_of = d.sigmas, d.sigma_of
        seen = d.observations
        seen = d.observed if seen is None else tuple(seen)
    except CorruptHistory:
        return None
    abs_events = [e for e in h.events if e.kind == ABS]
    ticks = {e.start for e in abs_events}
    ticks.update(e.end for e in abs_events if e.end != INF)
    for s in sigmas:
        ticks.add(s.start)
        ticks.add(s.end)
    rank = {t: k for k, t in enumerate(sorted(ticks))}
    events = [(e.id, e.op, e.input, e.output, rank[e.start], rank[e.end])
              if e.end != INF else (e.id, e.op, e.input, rank[e.start])
              for e in abs_events]
    scans = [(s.id, rank[s.start], rank[s.end], s.complete) for s in sigmas]
    effectful = [(cell, [w.id for w in ws]) for cell, ws in idx.effectful.items()]
    return _digest((d.algorithm, h.n, events, scans, sigma_of, seen, effectful))


def _views(d: Derived) -> Optional[tuple]:
    """``(d.flevel, d.snap)`` with both closures built, so that another
    history reads neither's ticks, or None when either cannot be derived."""
    try:
        d.snap.hb
    except CorruptHistory:
        return None
    return d.flevel, d.snap


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
        # key -> None when seen once, then (layer, (F level, snapshot view)
        # or None when they cannot be derived)
        self._snap: dict[bytes, Optional[tuple]] = {}
        # key -> suite -> violations, witnesses as indices into the trace
        self._regs: dict[bytes, dict[str, list]] = {}

    def snapshot(self, d: Derived, compute: Callable[[], object]):
        """``(compute()'s result for d's behaviour, the key or None)``.  On a
        hit ``d`` also takes over the entry's F level and snapshot view."""
        key = snapshot_key(d)
        if key is None:
            return compute(), None
        entry = self._snap.get(key)
        if entry is None:
            layer = compute()
            self._snap[key] = (layer, _views(d)) if key in self._snap else None
            return layer, key
        layer, views = entry
        if views is not None:
            d.adopt(*views)
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
                    body(d, d.rep_hb, reg, ops, found)
                    out.extend(found)
                    pos = {e.id: k for k, e in enumerate(trace)} if found else {}
                    if all(w in pos for v in found for w in v.witnesses):
                        entry[suite] = [(v.axiom, tuple(pos[w] for w in v.witnesses), v.note)
                                        for v in found]
                else:
                    out.extend(Violation(axiom, tuple(trace[k].id for k in ws), note)
                               for axiom, ws, note in stored)
        return results, tuple(keys.values())
