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
ids; witnesses are stored as ``(register, trace index)`` and mapped back
to each schedule's ids, and a violation with a witness off its
register's trace is not stored.  That guard is checked along the run,
by O(1) checks per event and edge as the recorder feeds the event index
(``EventIndex.traced``), and the index keeps each register's trace and
its key parts, extended to the events that lack them when a key is asked
for, and the key's digest until its parts change (``RegOps.key``): a DFS
leaf pays for the events past its branch point and one digest per
register whose trace changed.

Forwarding layer: F and F+, under the snapshot entry, keyed on
``forwarding_key``.  It applies where the register layer does
(``EventIndex.traced``), to algorithms with forwarding, where the
snapshot layer is consulted, from a behaviour's second snapshot sighting
on, under the index's guard ``EventIndex.laid`` (ids ascend along each
operation's steps, no abs event has a rep event's id, no write has two
wa steps), and when ``scan_marks`` finds its guard holds.  Under
``traced`` the rep events
form one chain, so ≺ and returns-before between rep events are both the
order of ``idx.reps``, and each register's trace and each operation's
steps come in that order.  Name a rep event by its register and its index
in that register's trace.  The register keys then fix, per name, its op
(so its step label, cell and instance), input, output and operation, and
the rf/ll edges between names; the step layout (per abs operation the
registers of its steps, in order: the k-th step on register R is the
operation's k-th event in R's trace) fixes the order of each operation's
own steps; the snapshot key fixes the abs events' ids and the virtual
scans' ids.  All a history holds beyond these is the interleaving of
steps of different operations on different registers, and what is
derived from the rest corresponds name by name between two histories
with equal keys: the virtual scans' marks (the extractors read labels,
instances, in-register edges and in-register order), the forwarding
edges, ``wa_of``, the forward instances and their grouping.  Of that
interleaving F and F+ read only what ``scan_marks`` holds: per virtual
scan the order of its own marks (r, a and b per cell, on, on_obs, off,
off_obs), and per r, a or b mark which writes' wa step precedes it.

The audit, read by read (S snapshot key, R register keys, L step
layout, O a virtual scan's own mark order, W the wa masks):

- ``ForwardingFacts``: ``escapes`` (F.1, F+.vrtinscan) read ``sigma_of``,
  the virtual scans' spans and the abs scans' ticks: S.  ``flevel`` and a
  ``corrupt`` met building it are derived from S's facts, and its
  witnesses are abs writes, scans and virtual scans: S.  ``shared``: io
  (F.io, F+.io) reads the abs scans' ends and outputs, ``sigma_of``, the
  level's observations and the writes' inputs: S; overlaps (F.2a,
  F+.sctotal) the complete virtual scans' spans: S; foreign (F.3a,
  F+.wrauniq) each A register's writes, their labels and their
  operations' ops: R, S; bottom (F.3b, F+.scruniq, F+.fbBuniq) each B and
  Bp register's write-likes in start order, their labels and inputs: R.
  ``forwards`` groups the rep events by operation and instance, a label
  repeated within one operation going to its later step: R, L; ``first``
  is the step of least id, the first step, as ids ascend along an
  operation's steps (guard): L.  ``writes``: per abs write its last wa
  step (``wa_of``), its first wx step and its forwards: R, L, S.
- F: F.2b compares r, a and b of one virtual scan: O.  F.4a reads the
  forwarded writes per scan and cell: S.  F.4b reads whether b returned
  (every rep event has, under ``traced``), what b observed and the
  forwarded writes: S, R.  F.4c reads the forwarding edges (b's rf
  sources and their operations, or for an fsc source its instance's fa
  and the source of that: in-register edges and one operation's
  grouping, R, L), ``wa_of``, wa ≺ b (W) and what b observed (S).  F.5 reads the effectful writes, their ends against the
  start of the threshold node (S), what b observed (S) and wa ≺ a (W).
  F.6a reads wa2 ≺ r (W) and the forwarding level's order (S); F.6b
  ticks and that order (S).
- F+: sconuniq reads X's read-likes and their rf sources (R) and whether
  each lies after on and not after off; on and off are steps on X
  (guard), so that is X's trace order: R.  scstruct reads the rf edges
  from on to on_obs and off to off_obs (R) and r < on, on_obs < a,
  a < off, off_obs < b: O.  wrstruct compares wa, wx and the forwards of
  one write, all its own steps (L), reads wx's rf source among the on
  events (R) and whether the write returned (S).  fwdstruct compares
  the steps of one forward instance, one operation's (L), and reads its
  ll edge and the VL's outcome (R) and whether the write returned (S).
  fwdprecond and fwdsccond compare wx with a forward's first step (L)
  and read rf sources, the forwarding array (``"B"``, or the von step's
  input) and the forward's register and cell: R.

Not in the key: the jayanti3 SS write and the partial virtual scans.
F+ reads the partial scans only for the on events a flag read may
observe, a set of named events (R, L), and SS only ties abs scans to
virtual scans (``sigma_of``, S); neither is compared in ≺.  A virtual
scan's flags are compared only with its own marks (O) and with X's
read-likes (R), so W leaves them out.

Where the forwarding key's facts come from: a DFS leaf rebuilds none of
them from the whole history.  The index feeds them, or keeps them per
operation until a step of that operation is fed or truncated or the
operation is swapped (``EventIndex.kept``), so a leaf pays for the
operations whose steps changed past its branch point:

- the virtual scans: jayanti1 and jayanti2's identity ones are kept per
  abs scan (``visibility._identity_sigmas``); jayanti3's and afek's are
  extracted per leaf from the groupings by instance, kept per operation
  (``EventIndex.instances``);
- the forwarding edges: per leaf, from each b mark's rf sources and, for
  an fsc source, its instance's fa (``EventIndex.instances``);
- the forward instances (``forwards``, ``writes``): kept per operation
  (``visibility._op_forwards``);
- the step layout: the registers of each operation's steps, kept per
  operation (``EventIndex.registers``), under ``laid``, which is fed;
- W: per rep event, the writes whose wa step was fed before it, fed as a
  bit mask over their invocation ranks (``EventIndex.wa_masks``) and
  read at each r, a and b mark, for identity and extracted virtual scans
  alike.

What reads returns stays per leaf: the observation pass (``observe``),
F.io, and the foreign- and bottom-writer facts, which only F and F+ read
on a miss.  Kept values are never changed, so what a leaf read stays as
it was when the DFS moves on, and a memo entry holds none of them.

Witnesses: abs and virtual-scan ids are fixed by S and stored as they
are; rep events are stored as ``(register, trace index)`` and mapped
back.  No abs id names a rep event (guard), so the two stay apart, and
notes name cells and registers only.  Without forwarding, F is F.1
alone, cheaper than its key, so the layer does not apply.  RB and CHAIN
run for every schedule.

Keys are 16-byte digests of a marshal encoding.  A snapshot entry holds a
linearization and two closures, so it is kept only from a behaviour's
second sighting on: a behaviour that never repeats costs its digest.
"""
from __future__ import annotations

import hashlib
import marshal
from typing import Callable, Optional

from .checker import REGISTER_SUITES, run_suite
from .events import INF, EventIndex
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
    abs_events = idx.abs_events
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


def register_keys(d: Derived) -> Optional[dict]:
    """Each register's key, ``{register: key}``, or None unless the index's
    register guard held along the run (``EventIndex.traced``): the rep
    events pairwise disjoint, all returned, and every rf/ll edge joining
    two events of one register in start order."""
    idx = d.idx
    if not idx.traced:
        return None
    keys = {}
    for reg, ops in idx.regs.items():
        parts = idx.register_key_parts(reg)
        if ops.key is None:  # kept while the key parts stay (``RegOps.key``)
            ops.key = _digest((reg, *parts))
            if ops.key is None:
                return None
        keys[reg] = ops.key
    return keys


def _places(idx: EventIndex, regs) -> dict:
    """``{id: (register, trace index)}`` for the events of ``regs``."""
    return {e.id: (reg, k) for reg in regs for k, e in enumerate(idx.regs[reg].trace)}


def _store(violations, place: dict) -> list:
    """``violations`` as an entry keeps them: each witness ``place`` names as
    its ``(register, trace index)``, any other as it is."""
    return [(v.axiom, tuple(place.get(w, w) for w in v.witnesses), v.note)
            for v in violations]


def _restore(stored: list, idx: EventIndex) -> list[Violation]:
    """The violations ``_store`` kept, with ``idx``'s ids for its rep events."""
    regs = idx.regs
    return [Violation(axiom, tuple(regs[w[0]].trace[w[1]].id if type(w) is tuple else w
                                   for w in ws), note)
            for axiom, ws, note in stored]


def step_layout(idx: EventIndex) -> Optional[list]:
    """Per abs operation in invocation order, then for the rep events of
    no operation (a register's initial write), the registers of the steps
    in order, as the index keeps them (``EventIndex.registers``); None
    unless ``laid``.  ``traced`` must hold, so every rep event is a step of
    one of these, and their steps come in order."""
    if not idx.laid:
        return None
    regs = idx.registers
    return [*map(regs, idx.abs_rank), regs(None)]


def scan_marks(d: Derived) -> Optional[list]:
    """Per virtual scan, the order of its own marks as ``(kind, cell)``,
    and per r, a and b mark which writes' wa steps precede it, as the
    index fed it (``EventIndex.wa_masks``: a mask over the writes'
    invocation ranks); None when a scan's on or off flag is no step on X.
    ``traced`` and ``laid`` must hold."""
    idx = d.idx
    pos, reps, masks = idx.rep_pos, idx.reps, idx.wa_masks
    out = []
    for s in d.sigmas:
        on, off = s.on, s.off
        if on is not None and off is not None and \
                (reps[pos[on]].object != "X" or reps[pos[off]].object != "X"):
            return None
        own, before = [], []
        for kind, marks in (("r", s.r), ("a", s.a), ("b", s.b)):
            for i, e in marks.items():
                p = pos[e]
                own.append((p, kind, i))
                before.append(masks[p])
        for kind in ("on", "on_obs", "off", "off_obs"):
            e = getattr(s, kind)
            if e is not None:
                own.append((pos[e], kind, -1))
        own.sort()
        out.append(([(kind, i) for _, kind, i in own], before))
    return out


def forwarding_key(d: Derived, reg_keys: tuple) -> Optional[bytes]:
    """The forwarding layer's key below the snapshot entry, from the
    register keys ``reg_keys`` in register order, or None where the
    layer's guards fail."""
    layout = step_layout(d.idx) if d.idx.traced else None
    marks = scan_marks(d) if layout is not None else None
    return None if marks is None else _digest((reg_keys, layout, marks))


class Memo:
    """The results of one exploration, keyed by behaviour."""

    def __init__(self):
        # key -> None when seen once, then (layer, (F level, snapshot view)
        # or None when they cannot be derived, forwarding key -> suite ->
        # violations, rep witnesses as (register, trace index))
        self._snap: dict[bytes, Optional[tuple]] = {}
        # key -> suite -> violations, witnesses as (register, trace index)
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
            self._snap[key] = (layer, _views(d), {}) if key in self._snap else None
            return layer, key
        layer, views, _ = entry
        if views is not None:
            d.adopt(*views)
        return layer, key

    def register_suites(self, d: Derived, suites) -> tuple[dict, tuple]:
        """``({suite: result}, the register keys)`` for the per-register
        suites among ``suites``; both empty when the guard fails."""
        wanted = [n for n in suites if n in REGISTER_SUITES]
        keys = register_keys(d) if wanted else None
        if keys is None:
            return {}, ()
        idx = d.idx
        results = {n: SuiteResult(n) for n in wanted}
        for reg, ops in sorted(idx.regs.items()):
            llsc = idx.is_llsc_reg(reg)
            entry = self._regs.setdefault(keys[reg], {})
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
                    place = _places(idx, (reg,)) if found else {}
                    if all(w in place for v in found for w in v.witnesses):
                        entry[suite] = _store(found, place)
                else:
                    out.extend(_restore(stored, idx))
        return results, tuple(keys[reg] for reg in sorted(keys))

    def forwarding_suites(self, d: Derived, suites, snap_key: Optional[bytes],
                          reg_keys: tuple) -> dict:
        """``{suite: result}`` for F and F+ among ``suites``; empty unless
        ``d``'s behaviour, ``snap_key``, was seen before and the layer
        applies.  ``reg_keys`` are the register keys in register order, or
        empty when the register layer did not take them."""
        wanted = [n for n in suites if n in ("F", "F+")]
        entry = self._snap.get(snap_key) if wanted and snap_key is not None else None
        if entry is None or d.rules.forwards is None:
            return {}
        if not reg_keys:
            keys = register_keys(d)
            if keys is None:
                return {}
            reg_keys = tuple(keys[reg] for reg in sorted(keys))
        key = forwarding_key(d, reg_keys)
        if key is None:
            return {}
        entry = entry[2].setdefault(key, {})
        idx = d.idx
        results = {}
        for suite in wanted:
            stored = entry.get(suite)
            if stored is None:
                res = results[suite] = run_suite(d, suite)
                place = _places(idx, idx.regs) if res.violations else {}
                entry[suite] = _store(res.violations, place)
            else:
                results[suite] = SuiteResult(suite, _restore(stored, idx))
        return results
