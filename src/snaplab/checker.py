"""Executable axiom suites over a recorded history.

Each failure carries the witnesses instantiating the axiom's quantifiers.
Axioms over the happens-before closure ≺ ask it for node sets
(``hb.nodes``): a list of events that answers which members follow a node
or lie between two, always as list indices, ascending.  The general
closure holds the list as one mask over closure positions, so "w ≺ x for
some listed x" is one AND, and a list that ≺ orders totally (a chain) is
walked in chain order; the rep-level closure of a chained history
(``ChainClosure``) holds the members' places sorted and bisects them.
Where a fast test cannot rule a violation out, the pairs are enumerated
in list order, so reports keep the order of a direct enumeration.

V.1 (a ≺+ b never with a = b or b returning before a) is a corollary of
the closure: such a pair closes a cycle in returns-before ∪ edges, and
HbClosure refuses every cycle.  So V.1 holds whenever the closure builds
(given unique event ids, which RB's EV.id checks), and its witnesses are
enumerated only when the closure finds a cycle.

The LL/SC lemmas of a register with P LL/SC pairs, G of them successful
SCs, and W write-likes follow chains along ≺ (a valid history orders the
successful windows and the write-likes totally):

  L4.1  O(G) consecutive tests when the successful SCs form a chain;
        else, or when a test fails, the pairs are enumerated.
  L4.2  one O(log W) binary search per window when the write-likes form a
        chain (``hb.preceding``: over their successor masks, or their
        places in a ChainClosure); else O(W) ≺ tests per window.
  L4.3  O(P log P) while few windows overlap: each window tests the few
        candidates that no other candidate returns before, with one
        O(log G) binary search per LL when the successful windows form one
        chain, or O(G) ≺ tests over the successful pairs per event
        when they do not.  If a tested candidate fails, or an LL starts no
        earlier than its SC, the window's candidates are enumerated, O(P)
        each.
  M+.llobsparent  O(k) per pair: only the k LLs of the SC's own parent
        operation can intervene.

L4.2 and L4.3 skip that set-up on registers with at most FEW write-likes
or closed SC pairs, and test each.  Suites:

  RB   event and history structure (see check_rb)
  M    plain atomic registers
  M+   LL/SC/VL registers
  L    the three LL/SC interaction lemmas (L4.1-L4.3)
  F    forwarding-snapshot axioms over virtual scans
  F+   multi-writer forwarding axioms
  S    snapshot data-structure axioms over derived visibility
  CHAIN  the implication structure F+ => F => S => linearizable
"""
from __future__ import annotations

import time
from bisect import bisect_right
from functools import partial
from typing import Iterable, Optional

from .events import INF, REP, abs_write_cell, returns_before, validate_history
from .linearize import lin_verdict
from .report import CheckReport, SuiteResult, Violation
from .visibility import FEW, SIGNATURES, CorruptHistory, Derived, ForwardingFacts, HbClosure, \
    NodeSet, prec_closure_pairs, rules_for

SUITES = ("RB", "M", "M+", "L", "F", "F+", "S", "CHAIN")


def _viol(out, axiom, witnesses, note=""):
    out.append(Violation(axiom, tuple(witnesses), note))


# -- RB ---------------------------------------------------------------------

def check_rb(d: Derived, out: list) -> None:
    """The event and history structure (``validate_history``).

    Two properties of returns-before (x < y iff x.end < y.start) are
    theorems of the timestamps, so no history can violate them and they
    are not enumerated:

    - Interval order (no 2+2 pattern).  A pattern a1 < a2, b1 < b2 with
      neither a1 < b2 nor b1 < a2 makes all four ticks comparable (the two
      ``<`` facts rule out NaN), and then gives b2.start <= a1.end <
      a2.start <= b1.end < b2.start, which is impossible.  The proof does
      not use start <= end, so a corrupted history cannot break it either.
    - Subevents keep their parents' order.  If e1 lies in p1, e2 in p2 and
      p1 < p2, then e1.end <= p1.end < p2.start <= e2.start.  Only a child
      that escapes its parent could break it, and EV.parent reports that.
    """
    out.extend(validate_history(d.history))


# -- rep-level wfobs ----------------------------------------------------------

def _rep_closure(d: Derived, out: list):
    """The rep-level closure, or None after reporting V.1 witnesses.

    Prop V.1: e ≺+ e' implies e' does not return before (or equal) e.  It
    holds whenever the closure builds (see the module docstring), so its
    witnesses are enumerated only when the closure fails; if there are
    none, the failure propagates."""
    try:
        return d.rep_hb
    except Exception:  # whatever stops the closure, V.1 is enumerated first
        h = d.history
        rep_ids = [e.id for e in h.events if e.kind == REP]
        events = {e.id: e for e in h.events}  # an edge may name a missing event
        found = False
        for a, b in prec_closure_pairs(rep_ids, d.rep_edges):
            if a == b or (b in events and returns_before(events[b], events[a])):
                _viol(out, "V.1", (a, b), "observation chain reaches backward in time")
                found = True
        if found:
            return None
        raise


def _check_between(nodes: NodeSet, w: int, reader: int, axiom: str, note: str,
                   out: list) -> None:
    """M.nowrbetween, M+.nowrbetween, S.2: no listed write lies between the
    observed write ``w`` and its ``reader``.  ≺ is irreflexive, so neither
    ``w`` nor ``reader`` lies between them."""
    for k in nodes.between(w, reader):
        _viol(out, axiom, (w, nodes.ids[k], reader), note)


def _check_total(nodes: NodeSet, axiom: str, note: str, out: list) -> None:
    """M.wrtotal, M+.wrtotal, S.4: ≺ orders the listed events totally."""
    if nodes.chain is not None:
        return
    hb, ids = nodes.hb, nodes.ids
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if not (hb.hb(a, b) or hb.hb(b, a)):
                _viol(out, axiom, (a, b), note)


# -- M / M+ -------------------------------------------------------------------

def check_areg(d: Derived, hb: HbClosure, reg: str, ops, out: list) -> None:
    """M on the plain register ``reg``."""
    idx = d.idx
    h = d.history
    wnodes = hb.nodes([w.id for w in ops.writes])
    stale = f"stale read of {reg}"
    for r in ops.reads:
        srcs = idx.rf_src.get(r.id, [])
        if len(srcs) > 1:
            _viol(out, "M.robsuniq", (*srcs, r.id), f"read of {reg} observes two writes")
        if r.terminated:
            if not any(h.event(w).input == r.output for w in srcs):
                _viol(out, "M.io", (r.id,), f"read of {reg} returns unwritten value")
        for w in srcs:
            _check_between(wnodes, w, r.id, "M.nowrbetween", stale, out)
    _check_total(wnodes, "M.wrtotal", f"unordered writes to {reg}", out)


def check_llreg(d: Derived, hb: HbClosure, reg: str, ops, out: list) -> None:
    """M+ on the LL/SC register ``reg``."""
    idx = d.idx
    h = d.history
    wc = idx.write_likes(reg)
    wcnodes = hb.nodes([e.id for e in wc])
    stale = f"stale read of {reg}"
    for r in idx.read_likes(reg):
        srcs = idx.rf_src.get(r.id, [])
        if len(srcs) > 1:
            _viol(out, "M+.robsuniq", (*srcs, r.id), f"read-like of {reg} observes two writes")
        if r.terminated and not srcs:
            _viol(out, "M+.robspop", (r.id,), f"read-like of {reg} observes nothing")
        if r.terminated and r.info[3] in ("r", "ll"):
            if srcs and not any(h.event(w).input == r.output for w in srcs):
                _viol(out, "M+.io", (r.id,), f"read of {reg} returns unwritten value")
        for w in srcs:
            _check_between(wcnodes, w, r.id, "M+.nowrbetween", stale, out)
    lls_of: dict[int, list] = {}  # parent -> its LLs of reg: only these can intervene
    for l2 in ops.lls:
        lls_of.setdefault(l2.parent, []).append(l2)
    for c in ops.scs + ops.vls:
        if c.terminated and not isinstance(c.output, bool):
            _viol(out, "M+.vl-io", (c.id,), "SC/VL must report success as a boolean")
        links = idx.ll_src.get(c.id, [])
        if not links:
            _viol(out, "M+.llobspop", (c.id,), "SC/VL without a pairing LL")
            continue
        for l in links:
            le = h.event(l)
            if not le.terminated:
                _viol(out, "M+.llobspop", (l, c.id), "pairing LL did not terminate")
            if le.parent != c.parent:
                _viol(out, "M+.llobsparent", (l, c.id), "LL pair crosses threads")
            for l2 in lls_of.get(le.parent, ()):
                if l2.id != l and hb.hb(l, l2.id) and hb.hb(l2.id, c.id):
                    _viol(out, "M+.llobsparent", (l, l2.id, c.id),
                          "another LL intervenes in the pair")
            w = idx.single_rf(l)
            w2 = idx.single_rf(c.id)
            if w is not None and w2 is not None:
                if (w == w2) != (c.output is True):
                    _viol(out, "M+.llsc-success", (l, c.id, w, w2),
                          "success must equal observing the linked write")
    _check_total(wcnodes, "M+.wrtotal", f"unordered write-likes to {reg}", out)


# -- L ------------------------------------------------------------------------

def check_llsc_reg(d: Derived, hb: HbClosure, reg: str, ops, out: list) -> None:
    """L on the LL/SC register ``reg``."""
    idx = d.idx
    h = d.history
    pairs = []
    for c in ops.scs + ops.vls:
        for l in idx.ll_src.get(c.id, []):
            pairs.append((l, c))
    sc_pairs = [(l, c) for l, c in pairs if c.info[3] == "sc"]
    good = [(l, c) for l, c in sc_pairs if c.output is True and c.terminated]
    chain = _check_l41(hb, good, out)
    windows = [(l, c) for l, c in pairs if c.terminated and
               not (c.output is True and c.info[3] == "vl")]
    _check_l42(hb, idx.write_likes(reg), windows, out)
    closed = [(l, c, h.event(l)) for l, c in sc_pairs if c.terminated]
    _check_l43(hb, ops.writes, closed, good, chain, out)


def _check_l41(hb: HbClosure, good: list, out: list) -> Optional[list]:
    """L4.1: of two successful pairs with c ≺ c2, c ≺ l2.  Returns the pairs
    in ≺ order if they form one chain l_0 ≺ c_0 ≺ l_1 ≺ c_1 ≺ …, else None.

    When the SCs form a chain, c_i ≼ c_{j-1} ≺ l_j for every i < j, so the
    consecutive pairs decide the lemma: O(G) tests.  Otherwise, or when a
    consecutive test fails, the pairs are enumerated."""
    if len(good) < 2:
        return good
    scs = hb.nodes([c.id for _, c in good])
    if scs.chain is not None:
        chain = [good[k] for k in scs.chain]
        if all(hb.hb(c.id, l2) for (_, c), (l2, _) in zip(chain, chain[1:])):
            return chain
    for l, c in good:
        for k in scs.after(c.id):
            l2, c2 = good[k]
            if c is not c2 and not hb.hb(c.id, l2):
                _viol(out, "L4.1", (l, c.id, l2, c2.id), "successful LL/SC pairs overlap")
    return None


def _check_l42(hb: HbClosure, wc: list, windows: list, out: list) -> None:
    """L4.2: each window l..c holds a write-like w with not w ≺ l and w ≼ c.

    When the write-likes form a chain, those ≺ x are a prefix of it, and
    l ≺ c (the ll edge) makes l's prefix part of c's.  A window is then
    empty iff c is no write-like and the first write-like past l's prefix
    does not reach c: one binary search per window."""
    if not windows:
        return
    wnodes = hb.nodes([w.id for w in wc]) if len(wc) > FEW else None
    if wnodes is None or wnodes.chain is None:
        for l, c in windows:
            if not any(not hb.hb(w.id, l) and (w.id == c.id or hb.hb(w.id, c.id)) for w in wc):
                _viol(out, "L4.2", (l, c.id), "no write-like event inside the LL..SC/VL window")
        return
    chain = [wc[k].id for k in wnodes.chain]
    preceding = hb.preceding(chain)
    for l, c in windows:
        if c.id in wnodes.rank:
            continue
        k = preceding(l)
        if k == len(chain) or not hb.hb(chain[k], c.id):
            _viol(out, "L4.2", (l, c.id), "no write-like event inside the LL..SC/VL window")


def _check_l43(hb: HbClosure, plain: list, closed: list, good: list,
               chain: Optional[list], out: list) -> None:
    """L4.3: between windows l..c and l2..c2, c returning before l2 and no
    plain write mutating l..c2, lies a successful pair: some good (l3, c3)
    with not l3 ≺ l and c3 ≼ c2.

    With the good pairs in one chain (from L4.1), the l3 ≺ l form a prefix
    of it, so only the first pair past that prefix can lie in the window:
    one binary search per l.  Without a chain, each good pair is tested.

    Candidates (l2, c2) for a window l..c are pruned: if c2* returns before
    c2, then c2* ≺ c2, so a good pair that lies within l..c2* lies within
    l..c2, and a plain write that mutates l..c2 mutates l..c2* too.  So if
    any candidate fails, one whose c2 starts no later than the least end m
    of a candidate's c2 fails.  With the closed pairs sorted by l2.start and
    each l2 starting before its c2, those are found by a short scan from the
    first l2 after c; only when one fails are all candidates enumerated.

    A lone window has no candidate: c returning before its own l would
    close a cycle with the ll edge, which the closure refuses."""
    if len(closed) < 2:
        return
    if chain is not None:
        preceding = hb.preceding([l3 for l3, _ in chain])
        first_after: dict[int, Optional[int]] = {}  # l -> c3 of the first good pair past l

        def holds(l: int, c2: int) -> bool:
            if l not in first_after:
                j = preceding(l)
                first_after[l] = chain[j][1].id if j < len(chain) else None
            c3 = first_after[l]
            return c3 is not None and (c3 == c2 or hb.hb(c3, c2))
    else:
        def holds(l: int, c2: int) -> bool:
            return any(not hb.hb(l3, l) and (c3.id == c2 or hb.hb(c3.id, c2))
                       for l3, c3 in good)

    def mutation(le) -> float:
        # a plain write mutates the window l..c2 iff it does not return
        # before l and starts no later than c2 returns
        return min((w.start for w in plain if not returns_before(w, le)), default=INF)

    def enumerate_candidates(l, c, mutated) -> None:
        for l2, c2, l2e in closed:
            if returns_before(c, l2e) and mutated > c2.end and not holds(l, c2.id):
                _viol(out, "L4.3", (l, c.id, l2, c2.id),
                      "no successful pair within consecutive LL/SC windows")

    if len(closed) <= FEW or any(c.start <= le.start for _, c, le in closed):
        for l, c, le in closed:
            enumerate_candidates(l, c, mutation(le))
        return
    by_start = sorted(closed, key=lambda t: t[2].start)
    starts = [le.start for _, _, le in by_start]
    least_end = [INF] * (len(by_start) + 1)  # least c2.end over by_start[i:]
    for i in range(len(by_start) - 1, -1, -1):
        least_end[i] = min(least_end[i + 1], by_start[i][1].end)
    for l, c, le in closed:
        i = bisect_right(starts, c.end)
        m = least_end[i]
        mutated = None
        while i < len(by_start) and starts[i] < m:
            c2 = by_start[i][1]
            i += 1
            if c2.start > m or holds(l, c2.id):
                continue
            if mutated is None:
                mutated = mutation(le)
            if mutated > c2.end:
                enumerate_candidates(l, c, mutated)
                break


# -- S ------------------------------------------------------------------------

def check_snapshot_suite(d: Derived, out: list) -> None:
    idx = d.idx
    h = d.history
    sv = d.snap
    hb = sv.hb  # built, so V.1 holds (see the module docstring)
    if d.rules.unforwarded:
        _contained(d, "F.1", out)
    for s in idx.abs_scans:
        per_cell = sv.obs.get(s.id, {})
        for i, ws in per_cell.items():
            if len(ws) > 1:
                _viol(out, "S.3", (*ws, s.id), f"scan observes two writes of cell {i}")
        if not s.terminated:
            continue
        for i in range(h.n):
            ws = per_cell.get(i, [])
            if not any(h.event(w).input == s.output[i] for w in ws):
                _viol(out, "S.1", (s.id,),
                      f"scan output at cell {i} matches no observed write")
    eff_nodes = {cell: hb.nodes([w.id for w in ws]) for cell, ws in idx.effectful.items()}
    for w, s in sorted(sv.rf_pairs):
        cell = abs_write_cell(h.event(w).op)
        if cell in eff_nodes:
            _check_between(eff_nodes[cell], w, s, "S.2",
                           f"write of cell {cell} intervenes before the observing scan", out)
    for cell in sorted(eff_nodes):
        _check_total(eff_nodes[cell], "S.4", f"effectful writes of cell {cell} unordered", out)
    for cell, ws in sorted(idx.abs_writes.items()):
        for w in ws:
            if w.terminated and w.id not in idx.wa_of:
                _viol(out, "S.5", (w.id,), "terminated write never reached its cell")
    scans = [s.id for s in idx.abs_scans]
    first_obs = {a: {i: ws[0] for i, ws in sv.obs.get(a, {}).items() if ws} for a in scans}
    if len(scans) < 2 or _observations_chained(first_obs, eff_nodes, h.n):
        return
    for a in scans:
        obs_a = first_obs[a]
        for b in scans:
            if a == b:
                continue
            obs_b = first_obs[b]
            for i, wi in obs_a.items():
                wi2 = obs_b.get(i)
                if wi2 is None or wi == wi2 or not hb.hb(wi, wi2):
                    continue
                for j, wj in obs_a.items():
                    wj2 = obs_b.get(j)
                    if wj2 is None:
                        continue
                    if wj2 != wj and hb.hb(wj2, wj):
                        _viol(out, "S.7", (wi, wj, wi2, wj2, a, b),
                              "scans observe writes in opposite orders")


def _observations_chained(first_obs: dict, eff_nodes: dict, n: int) -> bool:
    """True only if S.7 cannot fire: every scan observes one write of every
    cell, each cell's writes form a ≺-chain, and the scans' vectors of
    chain ranks are totally ordered componentwise.  S.7 asks for two scans
    whose vectors are incomparable."""
    ranks = [eff_nodes[i].rank if i in eff_nodes else {} for i in range(n)]
    vecs = []
    for obs in first_obs.values():
        v = tuple(ranks[i].get(obs.get(i)) for i in range(n))
        if len(obs) != n or None in v:
            return False
        vecs.append(v)
    vecs.sort()
    return all(x <= y for u, v in zip(vecs, vecs[1:]) for x, y in zip(u, v))


# -- F -------------------------------------------------------------------------

def _emit(out: list, axiom: str, found: Iterable[tuple]) -> None:
    out.extend(Violation(axiom, w, note) for w, note in found)


def _contained(d: Derived, axiom: str, out: list) -> ForwardingFacts:
    """F.1, F+.vrtinscan; then the shared facts, or their corruption raised."""
    facts = d.fwd
    _emit(out, axiom, facts.escapes)
    if facts.corrupt is not None:
        raise facts.corrupt
    return facts


def check_forwarding_suite(d: Derived, out: list) -> None:
    h = d.history
    idx = d.idx
    facts = _contained(d, "F.1", out)
    fl = facts.flevel
    if fl is None:
        return  # virtual scans without forwarding: only the containment applies
    sigmas = facts.complete
    rhb = d.rep_hb
    by_slot = fl.fwd_by_slot
    io, overlaps, foreign, bottom = facts.shared
    _emit(out, "F.io", io)
    _emit(out, "F.2a", overlaps)
    # F.2b: reset before cell read before forward read
    for sigma in sigmas:
        for i in range(h.n):
            r, a, b = sigma.r.get(i), sigma.a.get(i), sigma.b.get(i)
            if r is None or a is None or b is None:
                continue
            if not (h.event(r).end < h.event(a).start and h.event(a).end < h.event(b).start):
                _viol(out, "F.2b", (r, a, b), f"scan structure broken at cell {i}")
    _emit(out, "F.3a", foreign)
    for e, reg, value in bottom:
        if not value:
            _viol(out, "F.3b", (e,), f"unexpected writer of {reg}")
    # F.4a: at most one forwarded write per scan and cell
    for (sid, i), ws in sorted(by_slot.items()):
        if len(set(ws)) > 1:
            _viol(out, "F.4a", (*ws, sid), f"two writes forwarded to cell {i}")
    # F.4b: a non-bottom forward read means some write was forwarded
    for sigma in sigmas:
        for i in range(h.n):
            b = sigma.b.get(i)
            if b is None or not h.event(b).terminated:
                continue
            if fl.direct.get((sigma.id, i)) is False and not by_slot.get((sigma.id, i)):
                _viol(out, "F.4b", (sigma.id, b),
                      f"forward read at cell {i} saw a value but no forward edge exists")
    # F.4c: forwarded writes wrote the cell before the forward read
    for w, sid, i in d.fwd_edges:
        sigma = d.sigma_by_id[sid]
        b = sigma.b.get(i)
        wa = idx.wa_of.get(w)
        if wa is None or b is None or not rhb.hb(wa.id, b):
            _viol(out, "F.4c", (w, sid), "forwarded write did not precede the forward read")
        elif fl.direct.get((sid, i)):
            _viol(out, "F.4c", (w, sid), "forward read observed the reset yet an edge exists")
    # F.5 / F.6: the forwarding principles; the threshold is the start of
    # the node that F's level names, read from this history
    by_id = d.sigma_by_id
    for sigma in sigmas:
        node = fl.threshold.get(sigma.id)
        threshold = -1 if node is None else (by_id.get(node) or h.event(node)).start
        for i in range(h.n):
            writes_i = idx.effectful.get(i, ())
            if fl.direct.get((sigma.id, i)):
                a = sigma.a[i]
                for w in writes_i:
                    if w.end < threshold:  # w returned before an observed write
                        wa = idx.wa_of[w.id]
                        if not rhb.hb(wa.id, a):
                            _viol(out, "F.5", (w.id, sigma.id),
                                  f"missed write of cell {i} was neither forwarded nor read")
            for w in by_slot.get((sigma.id, i), ()):
                r = sigma.r.get(i)
                for w2 in writes_i:
                    if w2.id == w:
                        continue
                    wa2 = idx.wa_of[w2.id]
                    if r is not None and rhb.hb(wa2.id, r) and fl.hb.hb(w, w2.id):
                        _viol(out, "F.6a", (w, w2.id, sigma.id),
                              "an old write was forwarded over a pre-scan write")
                    if w2.end < threshold and fl.hb.hb(w, w2.id):
                        _viol(out, "F.6b", (w, w2.id, sigma.id),
                              "an old write was forwarded over a completed write")


# -- F+ -------------------------------------------------------------------------

def check_mwforwarding_suite(d: Derived, out: list) -> None:
    h = d.history
    idx = d.idx
    rhb = d.rep_hb
    facts = _contained(d, "F+.vrtinscan", out)
    sigmas = facts.complete
    io, overlaps, foreign, bottom = facts.shared
    _emit(out, "F+.io", io)
    _emit(out, "F+.sctotal", overlaps)
    _emit(out, "F+.wrauniq", foreign)
    for e, reg, value in bottom:
        if value:
            _viol(out, "F+.fbBuniq", (e,), f"unexpected value writer of {reg}")
        else:
            _viol(out, "F+.scruniq", (e,), f"unexpected bottom writer of {reg}")
    # sconuniq: observing the phase flag == being inside the on..off window
    x_reads = idx.read_likes("X") if "X" in idx.regs else []
    x_nodes = rhb.nodes([x.id for x in x_reads])
    observers: dict[int, set] = {}  # rf source -> the indices of its X observers
    for k, x in enumerate(x_reads):
        for src in idx.rf_src.get(x.id, ()):
            observers.setdefault(src, set()).add(k)
    for sigma in sigmas:
        on, off = sigma.on, sigma.off
        if on is None or off is None or not x_reads:
            continue
        inside = x_nodes.window(on, off)
        for k in sorted(observers.get(on, set()).symmetric_difference(inside)):
            _viol(out, "F+.sconuniq", (sigma.id, on, x_reads[k].id),
                  "phase observation disagrees with the on..off window")
    # scan structure chain: r < on rf= on_obs < a < off rf= off_obs < b
    for sigma in sigmas:
        on, on_obs, off, off_obs = sigma.on, sigma.on_obs, sigma.off, sigma.off_obs
        if None in (on, on_obs, off, off_obs):
            continue
        if on != on_obs and on not in idx.rf_src.get(on_obs, ()):
            _viol(out, "F+.scstruct", (sigma.id, on, on_obs), "on observer does not observe on")
        if off != off_obs and off not in idx.rf_src.get(off_obs, ()):
            _viol(out, "F+.scstruct", (sigma.id, off, off_obs), "off observer does not observe off")
        for i in range(h.n):
            r, a, b = sigma.r.get(i), sigma.a.get(i), sigma.b.get(i)
            if None in (r, a, b):
                continue
            chain = [(r, on), (on_obs, a), (a, off), (off_obs, b)]
            for x, y in chain:
                if not h.event(x).end < h.event(y).start:
                    _viol(out, "F+.scstruct", (sigma.id, x, y),
                          f"scan chain broken at cell {i}")
    # write structure: wa < wx < f1 < f2, and a seen flag forces both forwards;
    # a flag read can observe the on event of a complete or partial virtual scan
    sigma_by_on = {s.on: s for s in d.sigmas if s.on is not None}
    ons = sigma_by_on.keys() | {s.on for s in d.partial_sigmas if s.on is not None}
    writes = facts.writes
    for w, wa, wx, fs in writes.values():
        if wa is not None and wx is not None and not returns_before(wa, wx):
            _viol(out, "F+.wrstruct", (w.id, wa.id, wx.id), "cell write after flag read")
        if wx is not None and fs and not wx.end < fs[0].first.start:
            _viol(out, "F+.wrstruct", (w.id, wx.id, fs[0].first.id), "forward before flag read")
        if len(fs) == 2:
            e1, f2 = fs[0].steps[-1], fs[1].first
            if not e1.end < f2.start:
                _viol(out, "F+.wrstruct", (w.id, e1.id, f2.id), "forwards overlap")
        if w.terminated and wx is not None:
            src = idx.single_rf(wx.id)
            if src in ons and len(fs) != 2:
                _viol(out, "F+.wrstruct", (w.id, wx.id),
                      "write saw the scan flag but did not forward twice")
    # forward structure: fll < fa < fvl < fsc with the recorded link
    for f in facts.forwards:
        seq = f.steps
        for x, y in zip(seq, seq[1:]):
            if not x.end < y.start:
                _viol(out, "F+.fwdstruct", (f.write, x.id, y.id), "forward steps out of order")
        if f.fsc is not None:
            if f.fll is None or f.fll.id not in idx.ll_src.get(f.fsc.id, ()):
                _viol(out, "F+.fwdstruct", (f.write, f.fsc.id), "forward SC not linked to its LL")
        elif f.fvl is not None and f.fvl.output is True and h.event(f.write).terminated:
            _viol(out, "F+.fwdstruct", (f.write, f.fvl.id),
                  "validated forward skipped its conditional store")
    # fwdprecond / fwdsccond: forwards run under an observed on, into its array
    for f in facts.forwards:
        w = f.write
        wx = writes[w][2] if w in writes else None
        src = idx.single_rf(wx.id) if wx is not None else None
        if src not in ons:
            _viol(out, "F+.fwdprecond", (w,), "forward without an observed scan flag")
            continue
        if src in sigma_by_on:
            sigma = sigma_by_on[src]
            if not wx.end < f.first.start:
                _viol(out, "F+.fwdprecond", (w, wx.id), "forward started before the flag read")
            if sigma.fwd_array is not None and f.reg is not None:
                want = f"{sigma.fwd_array}[{f.cell}]"
                if f.reg != want:
                    _viol(out, "F+.fwdprecond", (w, sigma.id),
                          f"forward targets {f.reg}, virtual scan forwards via {want}")
        if f.fsc is not None:
            vl_src = idx.single_rf(f.fvl.id) if f.fvl is not None else None
            if vl_src != src:
                _viol(out, "F+.fwdsccond", (w, f.fsc.id),
                      "forward stored without validating the same scan flag")


# -- CHAIN ----------------------------------------------------------------------

def check_chain(results: dict[str, SuiteResult], lin_ok: Optional[bool], out: list) -> None:
    fplus = results.get("F+")
    fwd = results.get("F")
    snap = results.get("S")
    if fplus is not None and fwd is not None and fplus.passed and not fwd.passed:
        _viol(out, "CHAIN.mw-fwd", (), "multi-writer axioms hold but forwarding axioms fail")
    if fwd is not None and snap is not None and fwd.passed and not snap.passed:
        _viol(out, "CHAIN.fwd-snap", (), "forwarding axioms hold but snapshot axioms fail")
    if snap is not None and snap.passed and lin_ok is False:
        _viol(out, "CHAIN.snap-lin", (), "snapshot axioms hold but linearization failed")


# -- orchestration ----------------------------------------------------------------

# The suites that check each register on its own: name -> (whether they
# check the LL/SC registers or the plain ones, whether a closure that
# fails to build is reported as V.1 witnesses, the per-register body).
REGISTER_SUITES = {
    "M": (False, True, check_areg),
    "M+": (True, True, check_llreg),
    "L": (True, False, check_llsc_reg),
}


def _check_registers(name: str, d: Derived, out: list) -> None:
    llsc, v1, body = REGISTER_SUITES[name]
    hb = _rep_closure(d, out) if v1 else d.rep_hb
    if hb is None:
        return
    for reg, ops in sorted(d.idx.regs.items()):
        if d.idx.is_llsc_reg(reg) == llsc:
            body(d, hb, reg, ops, out)


_SUITE_FNS = {
    "RB": check_rb,
    **{name: partial(_check_registers, name) for name in REGISTER_SUITES},
    "F": check_forwarding_suite,
    "F+": check_mwforwarding_suite,
    "S": check_snapshot_suite,
}


def applicable_suites(algorithm: str, requested: Iterable[str]) -> list[str]:
    """The suites among ``requested`` that apply to ``algorithm``: a
    signature applies only where the algorithm's rules list it."""
    signatures = rules_for(algorithm).signatures
    return [name for name in requested if name not in SIGNATURES or name in signatures]


def run_suite(d: Derived, name: str) -> SuiteResult:
    """One suite (not CHAIN) on ``d``; a corrupt history is a violation."""
    res = SuiteResult(name)
    try:
        _SUITE_FNS[name](d, res.violations)
    except CorruptHistory as exc:
        res.violations.append(Violation("H.corrupt", exc.witnesses, str(exc)))
    return res


def run_checks(d: Derived, suites: Iterable[str], lin_ok: Optional[bool] = None,
               label: str = "", done: Optional[dict] = None) -> CheckReport:
    """Run the applicable ``suites`` on ``d``.  ``done`` maps suite names to
    results already known for this history; those suites are not run.
    CHAIN reads the linearizer's verdict ``lin_ok``; unless it is given,
    the linearizer runs here."""
    t0 = time.perf_counter()
    names = applicable_suites(d.algorithm, suites)
    report = CheckReport(history=label or d.algorithm)
    for name in names:
        if name == "CHAIN":
            continue
        res = done.get(name) if done else None
        report.suites[name] = res if res is not None else run_suite(d, name)
    if "CHAIN" in names:
        if lin_ok is None:
            lin_ok = lin_verdict(d)[1]
        res = SuiteResult("CHAIN")
        check_chain(report.suites, lin_ok, res.violations)
        report.suites["CHAIN"] = res
    report.stats = {
        "events": len(d.history.events),
        "rf": len(d.history.rf),
        "ll": len(d.history.ll),
        "wall_s": round(time.perf_counter() - t0, 6),
    }
    return report
