"""Derived relations over a history: happens-before closures, virtual
scans, forwarding edges, and the snapshot-level visibility, each derived
as the algorithm's entry in ``RULES`` says.

All closures are computed exactly by reachability over the finite event
graph.  Returns-before successors are folded in through a suffix chain
over the start-sorted node order, so the graph stays sparse even though
returns-before itself is quadratic.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .algorithms import ALGORITHMS
from .events import INF, REP, Event, EventIndex, History, RegOps


class CorruptHistory(Exception):
    """The history cannot support a consistent derivation (e.g. a
    happens-before cycle, or a broken virtual-scan chain)."""

    def __init__(self, msg, witnesses=()):
        super().__init__(msg)
        self.witnesses = tuple(witnesses)


# -- generic reachability ---------------------------------------------------

def bits(m: int) -> Iterator[int]:
    """The positions of the set bits of ``m``, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class HbClosure:
    """Transitive closure of (returns-before ∪ edges) over interval nodes.

    Nodes are given as {id: (start, end)}; edges are sparse id pairs.
    Raises CorruptHistory when an edge names no node or the combined
    relation has a cycle.
    """

    def __init__(self, intervals: dict[int, tuple], edges: Iterable[tuple[int, int]]):
        order = sorted(intervals, key=lambda i: (intervals[i][0], i))
        self.ids = order
        self.pos = {eid: k for k, eid in enumerate(order)}
        n = len(order)
        self.n = n
        self.starts = [intervals[eid][0] for eid in order]
        self.ends = [intervals[eid][1] for eid in order]
        sparse: list[list[int]] = [[] for _ in range(n)]
        try:
            for a, b in edges:
                sparse[self.pos[a]].append(self.pos[b])
        except KeyError:
            raise CorruptHistory("edge references a missing event", (a, b)) from None
        self._sparse = sparse
        # chain node k stands for "every node with start >= starts[k]"
        chain_to = [bisect_right(self.starts, self.ends[k]) for k in range(n)]
        self._chain_to = chain_to
        if all(c == k + 1 for k, c in enumerate(chain_to)) \
                and all(k < s for k, succs in enumerate(sparse) for s in succs):
            # Each interval returns before the next starts, and every edge
            # points forward: returns-before is a total order that already
            # holds the edges, so each node reaches exactly the later ones.
            self._reach = _forward_reach(n)
            self._topo = None
        else:
            self._reach = self._close()

    def _succs(self, node: int) -> list[int]:
        n = self.n
        if node < n:
            out = list(self._sparse[node])
            c = self._chain_to[node]
            if c < n:
                out.append(n + c)
            return out
        k = node - n
        out = [k]
        if k + 1 < n:
            out.append(n + k + 1)
        return out

    def _close(self) -> list[int]:
        n = self.n
        total = 2 * n
        color = [0] * total  # 0 white, 1 gray, 2 black
        topo: list[int] = []
        for root in range(total):
            if color[root]:
                continue
            stack = [(root, iter(self._succs(root)))]
            color[root] = 1
            path = [root]
            while stack:
                node, it = stack[-1]
                advanced = False
                for s in it:
                    if color[s] == 0:
                        color[s] = 1
                        stack.append((s, iter(self._succs(s))))
                        path.append(s)
                        advanced = True
                        break
                    if color[s] == 1:
                        cyc = [self.ids[x] for x in path[path.index(s):] if x < n]
                        raise CorruptHistory("happens-before cycle", cyc)
                if not advanced:
                    color[node] = 2
                    topo.append(node)
                    stack.pop()
                    path.pop()
        self._topo = topo
        reach = [0] * total
        for node in topo:  # topo is reverse topological order
            m = 0
            if node < n:
                for s in self._sparse[node]:
                    m |= (1 << s) | reach[s]
                c = self._chain_to[node]
                if c < n:
                    m |= reach[n + c]
            else:
                k = node - n
                m |= (1 << k) | reach[k]
                if k + 1 < n:
                    m |= reach[n + k + 1]
            reach[node] = m
        return reach[:n]

    def hb(self, a: int, b: int) -> bool:
        return (self._reach[self.pos[a]] >> self.pos[b]) & 1 == 1

    def succ_mask(self, a: int) -> int:
        return self._reach[self.pos[a]]

    def pairs(self) -> Iterable[tuple[int, int]]:
        for k, eid in enumerate(self.ids):
            for j in bits(self._reach[k]):
                yield (eid, self.ids[j])

    def max_pred_start(self) -> dict[int, int]:
        """For each node a: max start over {x : x = a or x happens-before a}."""
        n = self.n
        if self._topo is None:
            # the chain case: every predecessor starts no later than a
            return dict(zip(self.ids, self.starts))
        best = list(self.starts) + [-1] * n
        for node in reversed(self._topo):  # _topo is reverse topological order
            b = best[node]
            for s in self._succs(node):
                if best[s] < b:
                    best[s] = b
        return {self.ids[k]: best[k] for k in range(n)}


class ChainClosure(HbClosure):
    """The closure of events that each return before the next starts,
    under edges that all point forward in that order (``pos[id]`` is the
    place of ``id``): each node reaches exactly the later ones.  (Simulator
    rep events, which run one at a time; ``EventIndex.chained``.)  It
    keeps copies of the two, which a recorder's index changes later, and
    builds nothing else before it is read."""

    def __init__(self, events: list, pos: dict[int, int]):
        self._events = events[:]
        self.pos = dict(pos)
        self.n = len(events)
        self._full = (1 << self.n) - 1
        self._topo = None

    @cached_property
    def ids(self) -> list[int]:
        return [e.id for e in self._events]

    @cached_property
    def starts(self) -> list:
        return [e.start for e in self._events]

    @cached_property
    def _reach(self) -> list[int]:
        return _forward_reach(self.n)

    def hb(self, a: int, b: int) -> bool:
        return self.pos[a] < self.pos[b]

    def succ_mask(self, a: int) -> int:
        return self._full ^ ((2 << self.pos[a]) - 1)


def _forward_reach(n: int) -> list[int]:
    """Node k reaches the nodes after it."""
    full = (1 << n) - 1
    return [full ^ ((2 << k) - 1) for k in range(n)]


def prec_closure_pairs(node_ids: list[int], edges: list[tuple[int, int]]):
    """Transitive closure of the sparse edge relation alone (cycle-tolerant)."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    for a in node_ids:
        if a not in adj:
            continue
        seen = set()
        stack = list(adj[a])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj.get(x, ()))
        for b in seen:
            yield (a, b)


class RepVisibility:
    """Rep-level visibility: recorded rf ∪ ll edges, and their
    happens-before closure with returns-before.  When the index's rep
    events form a chain (``EventIndex.chained``) the closure is that
    chain's order."""

    def __init__(self, idx: EventIndex):
        self.idx = idx
        self._hb: Optional[HbClosure] = None
        self._err: Optional[CorruptHistory] = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(self.idx.h.rf) + list(self.idx.h.ll)

    @property
    def hb(self) -> HbClosure:
        if self._err is not None:
            raise self._err
        if self._hb is None:
            idx = self.idx
            if idx.chained:
                self._hb = ChainClosure(idx.reps, idx.rep_pos)
                return self._hb
            intervals = {e.id: (e.start, e.end) for e in idx.h.events if e.kind == REP}
            try:
                self._hb = HbClosure(intervals, self.edges)
            except CorruptHistory as exc:
                self._err = exc
                raise
        return self._hb


# -- virtual scans ----------------------------------------------------------

@dataclass
class VirtualScan:
    """A ghost grouping of rep events logically forming one scan.

    ``r``, ``a`` and ``b`` map a cell to the scan's reset of it, its read
    of the main array and its read of the forwarding array.  ``on`` and
    ``off`` are the phase-flag commits and ``on_obs`` and ``off_obs`` the
    flag reads that observed them (for a scan that sets the flag itself,
    the commits again); ``ss`` is jayanti3's SS write.  ``fwd_array`` is
    the register array forwarded into, ``"B"`` or ``"Bp[p]"``, and None
    without forwarding."""

    id: int
    start: float
    end: float
    r: dict[int, int] = field(default_factory=dict)
    a: dict[int, int] = field(default_factory=dict)
    b: dict[int, int] = field(default_factory=dict)
    on: Optional[int] = None
    on_obs: Optional[int] = None
    off: Optional[int] = None
    off_obs: Optional[int] = None
    ss: Optional[int] = None
    fwd_array: Optional[str] = None
    owner: Optional[int] = None
    complete: bool = True

    def covers(self, n: int) -> bool:
        """Whether it holds a reset and both reads of every cell below n."""
        return all(i in m for m in (self.r, self.a, self.b) for i in range(n))


def _edge_source(h: History, src: int, target: int) -> Event:
    """The event that an rf or ll edge into ``target`` comes from."""
    try:
        return h.event(src)
    except KeyError:
        raise CorruptHistory("edge references a missing event", (src, target)) from None


def _span(h: History, ids: list[int]) -> tuple:
    evs = [h.event(i) for i in ids]
    return (min(e.start for e in evs), max(e.end for e in evs))


def _identity_sigmas(idx: EventIndex):
    """Each abs scan is its own virtual scan."""
    sigmas, sigma_of = [], {}
    for s in idx.abs_scans:
        sigma = VirtualScan(s.id, s.start, s.end, fwd_array="B", owner=s.id)
        for e in idx.kids.get(s.id, ()):
            base, i, _, _ = idx.rep_info[e.id]
            if base in ("r", "a", "b"):
                getattr(sigma, base)[i] = e.id
            elif base in ("on", "off"):
                setattr(sigma, base, e.id)
        sigma.on_obs, sigma.off_obs = sigma.on, sigma.off
        sigma.complete = s.terminated and sigma.covers(idx.h.n)
        sigmas.append(sigma)
        sigma_of[s.id] = s.id
    return sigmas, sigma_of, []


def _extract_alg3(idx: EventIndex):
    h = idx.h
    n = h.n
    next_id = (max((e.id for e in h.events), default=-1)) + 1
    sigmas: list[VirtualScan] = []
    sigma_of: dict[int, int] = {}
    partials: list[VirtualScan] = []

    def group(e):
        """The instance of its parent that rep event ``e`` belongs to."""
        return idx.instances(e.parent).get(idx.rep_info[e.id][2], {})

    def link(commit, phase):
        """The LL that a phase-1 or phase-2 commit SC is linked to."""
        srcs = idx.ll_src.get(commit.id)
        if not srcs:
            raise CorruptHistory(f"phase-{phase} commit has no load-link", (commit.id,))
        return srcs[0]

    vons = []
    for reg, ops in idx.regs.items():
        if reg != "X":
            continue
        for e in ops.scs:
            base = idx.rep_info[e.id][0]
            if base == "von" and e.id in idx.success:
                vons.append(e)
    vons.sort(key=lambda e: e.start)

    # successful SS writes anchor the complete chains
    ss_writes = [e for e in idx.regs.get("SS", RegOps()).scs if e.id in idx.success]
    by_on: dict[int, VirtualScan] = {}
    for vssb in sorted(ss_writes, key=lambda e: e.start):
        base = idx.rep_info[vssb.id][0]
        if base != "vssb":
            continue
        g3 = group(vssb)
        voff = None
        vx3 = None
        for cand in g3.get("vx", ()):  # the LL that entered phase 3
            srcs = idx.rf_src.get(cand.id, ())
            for s in srcs:
                if idx.rep_info.get(s, ("",))[0] == "voff":
                    voff, vx3 = h.event(s), cand
        if voff is None:
            raise CorruptHistory("SS write without a phase-3 entry", (vssb.id,))
        g2 = group(voff)
        vx2 = _edge_source(h, link(voff, 2), voff.id)
        von_src = idx.single_rf(voff.id)
        von = _edge_source(h, von_src, voff.id) if von_src is not None else None
        if von is None or idx.rep_info[von.id][0] != "von":
            raise CorruptHistory("phase-2 commit does not observe a phase-1 commit",
                                 (voff.id,))
        g1 = group(von)
        link(von, 1)  # a phase-1 commit without its load-link is corrupt
        r = {i: e.id for i, e in g1.get("vr", {}).items()}
        a = {i: e.id for i, e in g2.get("va", {}).items()}
        b = {i: e.id for i, e in g3.get("vb", {}).items()}
        core = [m[i] for m in (r, a, b) for i in range(n) if i in m]
        sigma = VirtualScan(next_id, *_span(h, core + [von.id, vx2.id, voff.id, vx3.id]),
                            r, a, b, on=von.id, on_obs=vx2.id, off=voff.id, off_obs=vx3.id,
                            ss=vssb.id, fwd_array=f"Bp[{von.input[2]}]")
        sigma.complete = sigma.covers(n)
        next_id += 1
        if von.id in by_on:
            raise CorruptHistory("two SS writes for one virtual scan",
                                 (by_on[von.id].ss, vssb.id))
        by_on[von.id] = sigma
        (sigmas if sigma.complete else partials).append(sigma)

    for von in vons:
        if von.id not in by_on:
            r = {i: e.id for i, e in group(von).get("vr", {}).items()}
            partials.append(VirtualScan(next_id, von.start, INF, r, on=von.id,
                                        fwd_array=f"Bp[{von.input[2]}]", complete=False))
            next_id += 1

    ss_of_sigma = {sigma.ss: sigma.id for sigma in sigmas}
    for s in idx.abs_scans:
        sss = None
        for e in idx.kids.get(s.id, ()):
            if idx.rep_info[e.id][0] == "sss":
                sss = e
        if sss is None:
            continue
        src = idx.single_rf(sss.id)
        if src is not None and src in ss_of_sigma:
            sigma_of[s.id] = ss_of_sigma[src]
    return sigmas, sigma_of, partials


def _extract_afek(idx: EventIndex):
    h = idx.h
    n = h.n
    next_id = (max((e.id for e in h.events), default=-1)) + 1
    sigmas: list[VirtualScan] = []
    by_owner: dict[int, VirtualScan] = {}
    sigma_of: dict[int, int] = {}

    def resolve(entity: int, stack: tuple) -> Optional[int]:
        if entity in stack or len(stack) > len(h.events):
            raise CorruptHistory("view recursion does not terminate", (entity,))
        if entity in by_owner:
            return by_owner[entity].id
        rounds = idx.instances(entity)  # the collect's rounds of a and b reads
        complete = [k for k, r in sorted(rounds.items())
                    if all(i in r.get("a", ()) and i in r.get("b", ()) for i in range(n))]
        if not complete:
            return None
        k = complete[-1]
        if k != max(rounds):
            return None  # last round still in flight
        last = rounds[k]
        differs = {}
        for i in range(n):
            differs[i] = idx.single_rf(last["a"][i].id) != idx.single_rf(last["b"][i].id)
        if not any(differs.values()):
            a = {i: last["a"][i].id for i in range(n)}
            b = {i: last["b"][i].id for i in range(n)}
            nonlocal next_id
            sigma = VirtualScan(next_id, *_span(h, [*a.values(), *b.values()]), a=a, b=b,
                                owner=entity)
            next_id += 1
            by_owner[entity] = sigma
            sigmas.append(sigma)
            return sigma.id
        moved = {i: any(idx.single_rf(rounds[j]["a"][i].id) != idx.single_rf(rounds[j]["b"][i].id)
                        for j in complete if j < k)
                 for i in range(n)}
        via = next((i for i in range(n) if differs[i] and moved[i]), None)
        if via is None:
            raise CorruptHistory("collect ended without clean round or double move",
                                 (entity,))
        wa_src = idx.single_rf(last["b"][via].id)
        if wa_src is None:
            raise CorruptHistory("borrowed view has no writer", (entity,))
        writer = h.event(wa_src).parent
        if writer is None or not idx.instances(writer):
            raise CorruptHistory("borrowed view from a write with no embedded collect",
                                 (entity, wa_src))
        return resolve(writer, stack + (entity,))

    for s in idx.abs_scans:
        if not s.terminated:
            continue
        sid = resolve(s.id, ())
        if sid is not None:
            sigma_of[s.id] = sid
    return sigmas, sigma_of, []


# -- forwarding -------------------------------------------------------------

@dataclass
class FwdInstance:
    """One execution of the forward procedure, grouped from its rep events."""

    write: int
    k: int
    cell: int
    fll: Optional[int] = None
    fa: Optional[int] = None
    fvl: Optional[int] = None
    fsc: Optional[int] = None
    reg: Optional[str] = None

    def first_event(self):
        ids = [x for x in (self.fll, self.fa, self.fvl, self.fsc) if x is not None]
        return min(ids) if ids else None


def collect_forwards(idx: EventIndex) -> list[FwdInstance]:
    found: dict[tuple[int, int], FwdInstance] = {}
    for e in idx.h.events:
        if e.kind != REP:
            continue
        base, i, inst, _ = idx.rep_info[e.id]
        if base not in ("fll", "fa", "fvl", "fsc"):
            continue
        f = found.setdefault((e.parent, inst), FwdInstance(e.parent, inst, i))
        setattr(f, base, e.id)
        if base in ("fll", "fsc"):
            f.reg = e.object
    return [found[k] for k in sorted(found)]


def fwd_alg1(idx: EventIndex, sigmas: list[VirtualScan]):
    """w fwd σ at cell i when σ's read of B[i] observed the w's forward write."""
    edges = []
    for sigma in sigmas:
        for i, eid in sigma.b.items():
            for src in idx.rf_src.get(eid, ()):
                if idx.rep_info.get(src, ("",))[0] == "wb":
                    edges.append((idx.h.event(src).parent, sigma.id, i))
    return edges


def fwd_mw(idx: EventIndex, sigmas: list[VirtualScan]):
    """w fwd σ when some forward instance read w's cell write and its SC
    into σ's forwarding array is what σ observed."""
    edges = []
    for sigma in sigmas:
        for i, eid in sigma.b.items():
            for src in idx.rf_src.get(eid, ()):
                if idx.rep_info.get(src, ("",))[0] != "fsc":
                    continue
                fsc = idx.h.event(src)
                group = idx.instances(fsc.parent).get(idx.rep_info[src][2], {})
                fa = group.get("fa", {}).get(i)
                if fa is None:
                    continue
                wa_src = idx.single_rf(fa.id)
                if wa_src is None:
                    continue
                edges.append((idx.h.event(wa_src).parent, sigma.id, i))
    return edges


# -- abstract levels --------------------------------------------------------

def _rf_pairs(obs: dict) -> set:
    """The rf pairs ``(write, observer)`` of an observation map
    ``{observer: {cell: [observed abs writes]}}``."""
    return {(w, o) for o, per_cell in obs.items() for ws in per_cell.values() for w in ws}


@dataclass
class FLevel:
    """Forwarding-level visibility: rf over writes×virtual-scans, the
    per-cell write order, and their happens-before closure."""

    rf_pairs: set = field(default_factory=set)
    obs: dict = field(default_factory=dict)       # sigma_id -> {i: [w,...]}
    fwd_by_slot: dict = field(default_factory=dict)  # (sigma_id, i) -> [forwarded w]
    hb: Optional[HbClosure] = None
    threshold: dict = field(default_factory=dict)  # sigma_id -> max start


def _effectful_writes(idx: EventIndex, edges: Optional[list]) -> dict:
    """The intervals of the effectful writes; appends each cell's write
    order to ``edges`` unless it is None."""
    intervals = {}
    for ws in idx.effectful.values():
        for w in ws:
            intervals[w.id] = (w.start, w.end)
        if edges is not None:
            for a, b in zip(ws, ws[1:]):
                edges.append((a.id, b.id))
    return intervals


def derive_flevel(idx: EventIndex, sigmas, fwd_edges) -> FLevel:
    """A virtual scan observes at cell i the writes its a-read observed,
    if its b-read observed its own reset, then those forwarded to it."""
    h = idx.h
    fl = FLevel()
    for w, sid, i in fwd_edges:
        fl.fwd_by_slot.setdefault((sid, i), []).append(w)
    for sigma in sigmas:
        per_cell = fl.obs[sigma.id] = {}
        for i in range(h.n):
            got: list[int] = []
            a, b, r = sigma.a.get(i), sigma.b.get(i), sigma.r.get(i)
            if a is not None and b is not None and r is not None \
                    and r in idx.rf_src.get(b, ()):
                for src in idx.rf_src.get(a, ()):
                    if idx.rep_info.get(src, ("",))[0] in ("wa", "init"):
                        w = h.event(src).parent
                        if w is not None:
                            got.append(w)
            got.extend(fl.fwd_by_slot.get((sigma.id, i), ()))
            if got:
                per_cell[i] = got
    fl.rf_pairs = _rf_pairs(fl.obs)
    edges = list(fl.rf_pairs)
    intervals = _effectful_writes(idx, edges)
    for sigma in sigmas:
        intervals[sigma.id] = (sigma.start, sigma.end)
    for s in idx.abs_scans:
        if s.id not in intervals:
            intervals[s.id] = (s.start, s.end)
    fl.hb = HbClosure(intervals, edges)
    maxstart = fl.hb.max_pred_start()
    fl.threshold = dict.fromkeys((sigma.id for sigma in sigmas), -1)
    for w, sid in fl.rf_pairs:
        fl.threshold[sid] = max(fl.threshold[sid], maxstart[w])
    return fl


@dataclass
class SnapView:
    """Snapshot-level visibility: effectful writes, rf into scans, the
    scan order from virtual scans, and the abs happens-before closure
    over ``intervals`` and ``prec_edges``, built on first use."""

    obs: dict                                      # scan_id -> {i: [w,...]}
    intervals: dict = field(default_factory=dict)  # abs id -> (start, end)
    rf_pairs: set = field(default_factory=set)
    sc_pairs: list = field(default_factory=list)
    prec_edges: list = field(default_factory=list)

    @cached_property
    def hb(self) -> HbClosure:
        return HbClosure(self.intervals, self.prec_edges)


def _lifted(idx: EventIndex, read: int) -> list[int]:
    """The abs writes whose cell writes the rep read ``read`` observed."""
    out = []
    for src in idx.rf_src.get(read, ()):
        w = _edge_source(idx.h, src, read).parent
        if w is not None:
            out.append(w)
    return out


def derive_snapshot(idx: EventIndex, obs: dict, sigmas=(), sigma_of=None,
                    ordered: bool = True) -> SnapView:
    """The snapshot-level closure.  ``obs`` maps each abs scan to
    ``{cell: [observed abs writes]}``.  Unless ``ordered`` is false, the
    closure also orders each cell's effectful writes, and it orders the
    abs scans of consecutive complete virtual ``sigmas``."""
    sv = SnapView(obs=obs, rf_pairs=_rf_pairs(obs))
    edges = list(sv.rf_pairs)
    intervals = _effectful_writes(idx, edges if ordered else None)
    for s in idx.abs_scans:
        intervals[s.id] = (s.start, s.end)
    if ordered and sigmas:
        members: dict[int, list[int]] = {}  # sigma id -> its abs scans
        for sc, sid in sigma_of.items():
            members.setdefault(sid, []).append(sc)
        order = sorted((s for s in sigmas if s.complete), key=lambda s: s.start)
        groups = [members[sigma.id] for sigma in order if sigma.id in members]
        for g1, g2 in zip(groups, groups[1:]):
            for a in g1:
                for b in g2:
                    edges.append((a, b))
                    sv.sc_pairs.append((a, b))
    sv.prec_edges = edges
    sv.intervals = intervals
    return sv


# -- per-algorithm rules ------------------------------------------------------

@dataclass(frozen=True)
class Rules:
    """How an algorithm's histories are derived, and which signatures
    check them.  Everything else that differs between algorithms follows
    from these three fields.

    ``sigmas`` maps an EventIndex to ``(virtual scans, {abs scan: virtual
    scan id}, partial virtual scans)``.  Without it, each abs scan
    observes what its own cell reads observed.

    ``forwards`` maps an EventIndex and the virtual scans to the forwarding
    edges ``(write, virtual scan id, cell)``.  With it there is a
    forwarding level (``Derived.flevel``), and the abs scans observe
    through it.

    Virtual scans without forwarding (``unforwarded``) observe what their
    own cell reads observed.  Their snapshot closure orders neither the
    writes of a cell nor the scans, F is the containment F.1 alone, and S
    reports F.1 first.

    ``signatures`` are the suites among ``SIGNATURES`` that apply; RB, M,
    S and CHAIN apply to every algorithm."""

    sigmas: Optional[Callable[[EventIndex], tuple]]
    forwards: Optional[Callable[[EventIndex, list], list]]
    signatures: frozenset

    @property
    def unforwarded(self) -> bool:
        return self.sigmas is not None and self.forwards is None


SIGNATURES = frozenset({"F", "F+", "M+", "L"})

# Keyed by rules name; each algorithms.AlgorithmDef names its entry.
RULES: dict[str, Rules] = {
    "naive": Rules(None, None, frozenset()),
    "jayanti1": Rules(_identity_sigmas, fwd_alg1, frozenset({"F"})),
    "jayanti2": Rules(_identity_sigmas, fwd_mw, SIGNATURES),
    "jayanti3": Rules(_extract_alg3, fwd_mw, SIGNATURES),
    "afek": Rules(_extract_afek, None, frozenset({"F"})),
}


def rules_for(algorithm: str) -> Rules:
    """The rules of the registered algorithm ``algorithm``."""
    return RULES[ALGORITHMS[algorithm].rules]


# -- the derivation bundle ----------------------------------------------------

class Derived:
    """Lazily computed derivations for one history; each is built once
    and cached here."""

    def __init__(self, h: History):
        self.history = h
        idx = h.index
        self.idx = idx if idx is not None and idx.describes(h) else EventIndex(h)
        self.rules = rules_for(h.algorithm)

    @property
    def algorithm(self) -> str:
        return self.history.algorithm

    @cached_property
    def rep(self) -> RepVisibility:
        return RepVisibility(self.idx)

    @cached_property
    def _sigma_triple(self) -> tuple:
        extract = self.rules.sigmas
        return extract(self.idx) if extract is not None else ([], {}, [])

    @property
    def sigmas(self) -> list[VirtualScan]:
        return self._sigma_triple[0]

    @property
    def sigma_of(self) -> dict[int, int]:
        return self._sigma_triple[1]

    @property
    def partial_sigmas(self) -> list[VirtualScan]:
        return self._sigma_triple[2]

    @cached_property
    def sigma_by_id(self) -> dict[int, VirtualScan]:
        """The virtual scans (not the partial ones) by id."""
        return {s.id: s for s in self.sigmas}

    @cached_property
    def borrowed_views(self) -> list[int]:
        """The abs scans whose virtual scan another operation owns: afek
        scans that returned a view borrowed from a write's collect."""
        by_id = self.sigma_by_id
        return [sc for sc, sid in self.sigma_of.items() if by_id[sid].owner not in (None, sc)]

    @cached_property
    def forwards(self) -> list[FwdInstance]:
        return collect_forwards(self.idx)

    @cached_property
    def fwd_edges(self) -> list[tuple[int, int, int]]:
        rule = self.rules.forwards
        return rule(self.idx, self.sigmas) if rule is not None else []

    @cached_property
    def flevel(self) -> Optional[FLevel]:
        if self.rules.forwards is None:
            return None
        return derive_flevel(self.idx, self.sigmas, self.fwd_edges)

    @cached_property
    def snap(self) -> SnapView:
        return derive_snapshot(self.idx, self._observed(), self.sigmas, self.sigma_of,
                               ordered=not self.rules.unforwarded)

    def _observed(self) -> dict:
        """Each abs scan's observed abs writes, ``{scan: {cell: [writes]}}``.
        Without virtual scans, a cell's writes are those whose cell write
        the scan's own a-read observed.  Otherwise each scan has its
        virtual scan's map: the forwarding level's observations, or
        without one, what the virtual scan's a-reads observed."""
        idx = self.idx
        if self.rules.sigmas is None:
            obs: dict[int, dict[int, list[int]]] = {}
            for s in idx.abs_scans:
                per_cell = obs[s.id] = {}
                for e in idx.kids.get(s.id, ()):
                    base, i, _, _ = idx.rep_info[e.id]
                    got = _lifted(idx, e.id) if base == "a" else None
                    if got:
                        per_cell[i] = got
            return obs
        if self.flevel is not None:
            by_sigma = self.flevel.obs
        else:
            by_sigma = {sigma.id: {i: got for i, a in sigma.a.items()
                                   if (got := _lifted(idx, a))}
                        for sigma in self.sigmas}
        return {s.id: by_sigma[sid] for s in idx.abs_scans
                if (sid := self.sigma_of.get(s.id)) is not None}

    def edge_set(self, label: str) -> list[tuple]:
        """Derived relations as exportable edge lists, keyed by label."""
        if label == "rf":
            return sorted(self.history.rf)
        if label == "ll":
            return sorted(self.history.ll)
        if label == "fwd":
            return sorted((w, s) for w, s, _ in self.fwd_edges)
        if label == "wr":
            out = []
            for ws in self.idx.effectful.values():
                out.extend((a.id, b.id) for a, b in zip(ws, ws[1:]))
            return sorted(out)
        if label == "sc":
            return sorted(self.snap.sc_pairs)
        if label == "rf-abs":
            return sorted(self.snap.rf_pairs)
        if label == "hb1":
            return sorted(self.snap.prec_edges)
        if label == "hb":
            return sorted(self.snap.hb.pairs())
        if label == "hb-rep":
            return sorted(self.rep.hb.pairs())
        if label == "rb":
            evs = self.history.events
            return sorted((a.id, b.id) for a in evs for b in evs
                          if a is not b and a.end < b.start)
        if label in ("wrDiff", "whb"):
            from .linearize import build_whb, wrdiff_pairs

            if label == "wrDiff":
                return sorted(wrdiff_pairs(self))
            ids, _, adj = build_whb(self)
            return sorted((w, ids[j]) for k, w in enumerate(ids) for j in bits(adj[k]))
        raise ValueError(f"unknown edge label {label!r}")


def derive(h: History) -> Derived:
    return Derived(h)
