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
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .algorithms import ALGORITHMS
from .events import BOT, INF, REP, Event, EventIndex, History, RegOps


class cached:
    """``functools.cached_property`` without the lock Python 3.11 takes on
    every first read (3.12 drops it): an alg2-dfs leaf makes about eleven
    first reads, at 0.4 µs each here against 1.3 µs."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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
        n = len(order)
        self.n = n
        pos = dict(zip(order, range(n)))
        self.pos = pos
        starts = [intervals[eid][0] for eid in order]
        ends = [intervals[eid][1] for eid in order]
        sparse: list[list[int]] = [[] for _ in range(n)]
        # Whether every edge points forward in start order, found while the
        # edges are read: small graphs like these are closed on every DFS leaf.
        forward = True
        try:
            for a, b in edges:
                pa, pb = pos[a], pos[b]
                sparse[pa].append(pb)
                forward = forward and pa < pb
        except KeyError:
            raise CorruptHistory("edge references a missing event", (a, b)) from None
        self._sparse = sparse
        # chain node k stands for "every node with start >= starts[k]"
        chain_to = [bisect_right(starts, ends[k]) for k in range(n)]
        self._chain_to = chain_to
        self._forward = forward and all(k < c for k, c in enumerate(chain_to))
        if self._forward:
            # No interval ends before it starts and every edge points forward:
            # node k reaches the nodes from chain_to[k] on and what its edges
            # reach, so one pass from the last node closes the graph.
            full = (1 << n) - 1
            reach = [0] * n
            for k in range(n - 1, -1, -1):
                m = full ^ ((1 << chain_to[k]) - 1)
                for s in sparse[k]:
                    m |= (1 << s) | reach[s]
                reach[k] = m
            self._reach = reach
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

    def max_pred(self) -> dict[int, int]:
        """For each node a: the node that starts last, by (start, id), among
        a and the nodes that happen before it."""
        n = self.n
        ids = self.ids
        if self._forward:  # every predecessor starts no later than a
            return dict(zip(ids, ids))
        best = list(range(n)) + [-1] * n  # positions are in (start, id) order
        for node in reversed(self._topo):  # _topo is reverse topological order
            b = best[node]
            for s in self._succs(node):
                if best[s] < b:
                    best[s] = b
        return {ids[k]: ids[best[k]] for k in range(n)}


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
        self._forward = True

    @cached
    def ids(self) -> list[int]:
        return [e.id for e in self._events]

    @cached
    def _reach(self) -> list[int]:
        return [self._full ^ ((2 << k) - 1) for k in range(self.n)]

    def hb(self, a: int, b: int) -> bool:
        return self.pos[a] < self.pos[b]

    def succ_mask(self, a: int) -> int:
        return self._full ^ ((2 << self.pos[a]) - 1)


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


def _parent(h: History, e: Event) -> Event:
    """The event that ``e`` names as its parent, which is not None."""
    try:
        return h.event(e.parent)
    except KeyError:
        raise CorruptHistory("parent references a missing event", (e.id, e.parent)) from None


def _forward_array(von: Event) -> str:
    """The forwarding array of the scanner that phase-1 commit ``von`` names."""
    x = von.input
    if not (isinstance(x, list) and len(x) > 2):
        raise CorruptHistory("phase-1 commit names no scanner", (von.id,))
    return f"Bp[{x[2]}]"


def _span(h: History, ids: list[int]) -> tuple:
    evs = [h.event(i) for i in ids]
    return (min(e.start for e in evs), max(e.end for e in evs))


def _identity_sigma(s: Event, steps, n: int) -> VirtualScan:
    """Abs scan ``s`` as its own virtual scan, from its ``steps`` by start:
    per slot the step that starts last."""
    marks = {"r": {}, "a": {}, "b": {}}
    flags = {"on": None, "off": None}
    for e in steps:
        base, i, _, _ = e.info
        if base in marks:
            marks[base][i] = e.id
        elif base in flags:
            flags[base] = e.id
    r, a, b = marks.values()
    on, off = flags.values()
    complete = s.end != INF and all(i in m for m in (r, a, b) for i in range(n))
    return VirtualScan(s.id, s.start, s.end, r, a, b, on, on, off, off, None, "B", s.id, complete)


def _identity_sigmas(idx: EventIndex):
    """Each abs scan is its own virtual scan, kept by the index until a
    step of the scan changes (``EventIndex.kept``), so it is shared and
    never changed."""
    sigmas, sigma_of, n = [], {}, idx.h.n
    for s in idx.abs_scans:
        kept = idx.kept(s.id)
        sigma = kept.get("sigma")
        if sigma is None:
            sigma = kept["sigma"] = _identity_sigma(s, idx.kids.get(s.id, ()), n)
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
        return idx.instances(e.parent).get(e.info[2], {})

    def link(commit, phase):
        """The LL that a phase-1 or phase-2 commit SC is linked to."""
        srcs = idx.ll_src.get(commit.id)
        if not srcs:
            raise CorruptHistory(f"phase-{phase} commit has no load-link", (commit.id,))
        return srcs[0]

    def successful(reg, base):
        """The successful SCs on ``reg`` labelled ``base``, by start."""
        return sorted((e for e in idx.regs.get(reg, RegOps()).scs
                       if e.output is True and e.info[0] == base),
                      key=lambda e: e.start)

    # successful SS writes anchor the complete chains
    by_on: dict[int, VirtualScan] = {}
    for vssb in successful("SS", "vssb"):
        g3 = group(vssb)
        voff = None
        vx3 = None
        for cand in g3.get("vx", ()):  # the LL that entered phase 3
            srcs = idx.rf_src.get(cand.id, ())
            for s in srcs:
                if idx.label(s) == "voff":
                    voff, vx3 = h.event(s), cand
        if voff is None:
            raise CorruptHistory("SS write without a phase-3 entry", (vssb.id,))
        g2 = group(voff)
        vx2 = _edge_source(h, link(voff, 2), voff.id)
        von_src = idx.single_rf(voff.id)
        von = _edge_source(h, von_src, voff.id) if von_src is not None else None
        if von is None or idx.label(von.id) != "von":
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
                            ss=vssb.id, fwd_array=_forward_array(von))
        sigma.complete = sigma.covers(n)
        next_id += 1
        if von.id in by_on:
            raise CorruptHistory("two SS writes for one virtual scan",
                                 (by_on[von.id].ss, vssb.id))
        by_on[von.id] = sigma
        (sigmas if sigma.complete else partials).append(sigma)

    for von in successful("X", "von"):
        if von.id not in by_on:
            r = {i: e.id for i, e in group(von).get("vr", {}).items()}
            partials.append(VirtualScan(next_id, von.start, INF, r, on=von.id,
                                        fwd_array=_forward_array(von), complete=False))
            next_id += 1

    ss_of_sigma = {sigma.ss: sigma.id for sigma in sigmas}
    for s in idx.abs_scans:
        sss = None
        for e in idx.kids.get(s.id, ()):
            if e.info[0] == "sss":
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
        writer = _edge_source(h, wa_src, last["b"][via].id).parent
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

    write: Optional[int]  # the parent of its events: an abs write unless malformed
    cell: int
    fll: Optional[Event] = None
    fa: Optional[Event] = None
    fvl: Optional[Event] = None
    fsc: Optional[Event] = None
    reg: Optional[str] = None  # the register its fll or fsc, the later one, names
    first: Optional[Event] = None  # its step of least id, once grouped

    @property
    def steps(self) -> list[Event]:
        return [e for e in (self.fll, self.fa, self.fvl, self.fsc) if e is not None]


_FORWARD_STEPS = ("fll", "fa", "fvl", "fsc")


def _op_forwards(idx: EventIndex, parent: Optional[int]) -> tuple:
    """``(forward instances by k, first stray step, first grouped step)``
    of operation ``parent`` (None: of the rep events of no operation), from
    its steps by start, a label repeated within one instance going to the
    later step; first by place in ``idx.reps``.  A stray step has no
    operation or no instance.  Kept by the index until a step of
    ``parent`` changes."""
    kept = idx.kept(parent)
    got = kept.get("forwards")
    if got is not None:
        return got
    found, stray, first, pos = {}, None, None, idx.rep_pos
    for e in idx.steps(parent):
        base, i, inst, _ = e.info
        if base not in _FORWARD_STEPS:
            continue
        if parent is None or inst is None:
            if stray is None or pos[e.id] < pos[stray.id]:
                stray = e
            continue
        if first is None or pos[e.id] < pos[first.id]:
            first = e
        f = found.get(inst)
        if f is None:
            f = found[inst] = FwdInstance(parent, i)
        setattr(f, base, e)
        if base in ("fll", "fsc"):
            f.reg = e.object
    out = [found[k] for k in sorted(found)]
    for f in out:
        f.first = min(f.steps, key=lambda e: e.id)
    got = kept["forwards"] = (out, stray, first)
    return got


def collect_forwards(idx: EventIndex) -> list[FwdInstance]:
    """The forward instances by (parent, k), each operation's kept by the
    index (``_op_forwards``).  A parent that is no abs write is kept:
    F+.fwdprecond reports it.  Raises CorruptHistory at the first forward
    step in history order that has no operation or no instance, or whose
    operation names no event."""
    out, faults = [], []
    for parent in [*sorted(idx.kids), None]:
        fwds, stray, first = _op_forwards(idx, parent)
        out.extend(fwds)
        if stray is not None:
            faults.append((idx.rep_pos[stray.id], stray, True))
        if first is not None and parent not in idx.abs_rank:
            faults.append((idx.rep_pos[first.id], first, False))
    for _, e, is_stray in sorted(faults, key=lambda fault: fault[0]):
        if is_stray:
            raise CorruptHistory("forward step outside an operation's instance", (e.id,))
        _parent(idx.h, e)  # raises if it names no event
    return out


def fwd_alg1(idx: EventIndex, sigmas: list[VirtualScan]):
    """w fwd σ at cell i when σ's read of B[i] observed the w's forward write."""
    edges = []
    for sigma in sigmas:
        for i, eid in sigma.b.items():
            for src in idx.rf_src.get(eid, ()):
                if idx.label(src) == "wb":
                    edges.append((idx.h.event(src).parent, sigma.id, i))
    return edges


def fwd_mw(idx: EventIndex, sigmas: list[VirtualScan]):
    """w fwd σ when some forward instance read w's cell write and its SC
    into σ's forwarding array is what σ observed."""
    edges = []
    for sigma in sigmas:
        for i, eid in sigma.b.items():
            for src in idx.rf_src.get(eid, ()):
                if idx.label(src) != "fsc":
                    continue
                fsc = idx.h.event(src)
                group = idx.instances(fsc.parent).get(fsc.info[2], {})
                fa = group.get("fa", {}).get(i)
                if fa is None:
                    continue
                wa_src = idx.single_rf(fa.id)
                if wa_src is None:
                    continue
                edges.append((_edge_source(idx.h, wa_src, fa.id).parent, sigma.id, i))
    return edges


# -- abstract levels --------------------------------------------------------

def _rf_pairs(obs: dict) -> set:
    """The rf pairs ``(write, observer)`` of an observation map
    ``{observer: {cell: [observed abs writes]}}``."""
    return {(w, o) for o, per_cell in obs.items() for ws in per_cell.values() for w in ws}


class Observations(NamedTuple):
    """What each virtual scan observed at the forwarding level (``observe``)."""

    obs: dict          # sigma_id -> {i: [w,...]}
    fwd_by_slot: dict  # (sigma_id, i) -> [forwarded w]
    direct: dict       # (sigma_id, i) -> whether its b-read observed its reset


class FLevel(NamedTuple):
    """What each virtual scan observed, and its closure with the write order."""

    obs: dict
    fwd_by_slot: dict
    direct: dict
    hb: HbClosure
    # sigma_id -> the node that starts last among its observed writes and
    # their predecessors, or None; a reader takes its start from its own
    # history (``Derived.adopt``)
    threshold: dict


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


def observe(idx: EventIndex, sigmas, fwd_edges) -> Observations:
    """The forwarding level's observation pass.  A virtual scan observes at
    cell i the writes its a-read observed, if its b-read observed its own
    reset, then those forwarded to it."""
    h = idx.h
    by_slot, obs, direct = {}, {}, {}
    for w, sid, i in fwd_edges:
        by_slot.setdefault((sid, i), []).append(w)
    for sigma in sigmas:
        per_cell = obs[sigma.id] = {}
        for i in range(h.n):
            got: list[int] = []
            a, b, r = sigma.a.get(i), sigma.b.get(i), sigma.r.get(i)
            if b is not None and r is not None:
                direct[sigma.id, i] = r in idx.rf_src.get(b, ())
            if a is not None and direct.get((sigma.id, i)):
                for src in idx.rf_src.get(a, ()):
                    if idx.label(src) in ("wa", "init"):
                        w = h.event(src).parent
                        if w is not None:
                            got.append(w)
            got.extend(by_slot.get((sigma.id, i), ()))
            if got:
                per_cell[i] = got
    return Observations(obs, by_slot, direct)


def derive_flevel(idx: EventIndex, sigmas, seen: Observations) -> FLevel:
    """The closure of the observations ``seen`` with the write order."""
    rf = _rf_pairs(seen.obs)
    edges = list(rf)
    intervals = _effectful_writes(idx, edges)
    for sigma in sigmas:
        intervals[sigma.id] = (sigma.start, sigma.end)
    for s in idx.abs_scans:
        intervals.setdefault(s.id, (s.start, s.end))
    hb = HbClosure(intervals, edges)
    latest, pos = hb.max_pred(), hb.pos
    threshold = dict.fromkeys(sigma.id for sigma in sigmas)
    for w, sid in rf:
        node, old = latest[w], threshold[sid]
        if old is None or pos[old] < pos[node]:
            threshold[sid] = node
    return FLevel(*seen, hb, threshold)


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

    @cached
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


# -- what F and F+ share ------------------------------------------------------

class ForwardingFacts:
    """What F and F+ share, derived once per history (``Derived.fwd``): facts
    as lists of ``(witnesses, note)``, each suite reporting them under its own
    axiom ids.  ``escapes`` (F.1, F+.vrtinscan) and ``flevel`` are built at
    once, keeping a CorruptHistory met as ``corrupt``; the rest on first read."""

    def __init__(self, d: "Derived"):
        # no reference to d, so that a Derived dropped at a DFS leaf is freed
        self._h, self._idx = d.history, d.idx
        self.complete, self.escapes, self.flevel, self.corrupt = [], [], None, None
        try:
            self.complete = [s for s in d.sigmas if s.complete]
            self._sigma_of = d.sigma_of
            for scan_id, sid in sorted(self._sigma_of.items()):
                sigma, s = d.sigma_by_id.get(sid), self._h.event(scan_id)
                if sigma is not None and not (s.start <= sigma.start and sigma.end <= s.end):
                    self.escapes.append(((scan_id, sid),
                                         "virtual scan escapes its abs scan interval"))
            self.flevel = d.flevel
        except CorruptHistory as exc:
            self.corrupt = exc

    @cached
    def shared(self) -> tuple[list, list, list, list]:
        """``(io, overlaps, foreign, bottom)``: F.io and F+.io, F.2a and
        F+.sctotal, F.3a and F+.wrauniq, and as ``(event, register,
        value)`` F.3b and F+.scruniq (value False) and F+.fbBuniq (True)."""
        h, idx, obs = self._h, self._idx, self.flevel.obs
        io = []  # a terminated scan's virtual scan observes its returned values
        for s in idx.abs_scans:
            if not s.terminated:
                continue
            sid = self._sigma_of.get(s.id)
            if sid is None:
                io.append(((s.id,), "terminated scan has no virtual scan"))
                continue
            for i in range(h.n):
                if not any(h.event(w).input == s.output[i] for w in obs[sid].get(i, ())):
                    io.append(((s.id, sid),
                               f"virtual scan observes no write matching output at cell {i}"))
        order = sorted(self.complete, key=lambda s: (s.start, s.id))  # totally, by rb
        overlaps = [((s1.id, s2.id), "virtual scans overlap")
                    for s1, s2 in zip(order, order[1:]) if not s1.end < s2.start]
        # a cell's main-array register is written only by its abs writes' wa steps,
        # bottom goes into forwarding registers only by resets, values by forward SCs
        foreign, bottom = [], []
        for reg in sorted(idx.regs):
            if reg.startswith("A["):
                want = "write" + reg[1:]  # A[x] names no cell: every write into it is foreign
                for e in idx.regs[reg].writes:
                    parent_op = _parent(h, e).op if e.parent is not None else None
                    if e.info[0] != "wa" or parent_op != want:
                        foreign.append(((e.id,), f"foreign write into {reg}"))
            elif reg.startswith("B[") or reg.startswith("Bp["):
                for e in idx.write_likes(reg):
                    base = e.info[0]
                    if (e.input is BOT) != (base in ("r", "vr")):
                        bottom.append((e.id, reg, False))
                    if (e.input is not BOT) != (base == "fsc"):
                        bottom.append((e.id, reg, True))
        return io, overlaps, foreign, bottom

    @cached
    def forwards(self) -> list[FwdInstance]:
        return collect_forwards(self._idx)

    @cached
    def writes(self) -> dict[int, tuple]:
        """Each abs write's id, by cell, then in history order, mapped to ``(w,
        its cell write, its flag read, its forward instances by k)``."""
        idx, by_write = self._idx, {}
        for f in self.forwards:
            by_write.setdefault(f.write, []).append(f)
        return {w.id: (w, idx.wa_of.get(w.id),
                       next((e for e in idx.kids.get(w.id, ()) if e.info[0] == "wx"), None),
                       by_write.get(w.id, []))
                for _, ws in sorted(idx.abs_writes.items()) for w in ws}


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

    @property
    def rep_edges(self) -> list[tuple[int, int]]:
        """The recorded rf and ll edges, which the rep-level closure closes."""
        return self.history.rf + self.history.ll

    @cached
    def _rep(self):
        """The rep-level closure, or the CorruptHistory that stopped it."""
        idx = self.idx
        if idx.chained:
            return ChainClosure(idx.reps, idx.rep_pos)
        intervals = {e.id: (e.start, e.end) for e in self.history.events if e.kind == REP}
        try:
            return HbClosure(intervals, self.rep_edges)
        except CorruptHistory as exc:
            return exc

    @property
    def rep_hb(self) -> HbClosure:
        """The happens-before closure of returns-before with the rf and ll
        edges over the rep events: the order of ``idx.reps`` when they form
        a chain (``EventIndex.chained``).  Built once; a CorruptHistory that
        stopped it is kept and raised to every reader."""
        hb = self._rep
        if isinstance(hb, CorruptHistory):
            raise hb
        return hb

    @property
    def rep(self) -> SimpleNamespace:
        """``rep.hb`` is ``rep_hb``, for readers of the former name."""
        return SimpleNamespace(hb=self.rep_hb)

    @cached
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

    @cached
    def sigma_by_id(self) -> dict[int, VirtualScan]:
        """The virtual scans (not the partial ones) by id."""
        return {s.id: s for s in self.sigmas}

    @cached
    def borrowed_views(self) -> list[int]:
        """The abs scans whose virtual scan another operation owns: afek
        scans that returned a view borrowed from a write's collect."""
        by_id = self.sigma_by_id
        return [sc for sc, sid in self.sigma_of.items() if by_id[sid].owner not in (None, sc)]

    @cached
    def fwd_edges(self) -> list[tuple[int, int, int]]:
        rule = self.rules.forwards
        return rule(self.idx, self.sigmas) if rule is not None else []

    @cached
    def observations(self) -> Optional[Observations]:
        """The forwarding level's observation pass (``observe``), which the
        snapshot key reads too; None without forwarding."""
        if self.rules.forwards is None:
            return None
        return observe(self.idx, self.sigmas, self.fwd_edges)

    @cached
    def flevel(self) -> Optional[FLevel]:
        seen = self.observations
        return None if seen is None else derive_flevel(self.idx, self.sigmas, seen)

    @cached
    def fwd(self) -> ForwardingFacts:
        """What F and F+ share (``ForwardingFacts``)."""
        return ForwardingFacts(self)

    @cached
    def snap(self) -> SnapView:
        return derive_snapshot(self.idx, self.observed, self.sigmas, self.sigma_of,
                               ordered=not self.rules.unforwarded)

    def adopt(self, flevel: Optional[FLevel], snap: SnapView) -> None:
        """Take over ``flevel`` and ``snap`` from a history with the same
        snapshot key (memo.py) instead of deriving them.  Their closures
        must be built: what a closure holds past that names events by id,
        and ``flevel.threshold`` names a node, whose start F reads from
        this history."""
        self.__dict__["flevel"], self.__dict__["snap"] = flevel, snap

    @cached
    def observed(self) -> dict:
        """Each abs scan's observed abs writes, ``{scan: {cell: [writes]}}``.
        Without virtual scans, a cell's writes are those whose cell write
        the scan's own a-read observed.  Otherwise each scan has its
        virtual scan's map: the forwarding level's observations, or
        without one, what the virtual scan's a-reads observed.  With
        forwarding it builds the forwarding level, whose failure the
        snapshot level reports."""
        idx = self.idx
        if self.rules.sigmas is None:
            obs: dict[int, dict[int, list[int]]] = {}
            for s in idx.abs_scans:
                per_cell = obs[s.id] = {}
                for e in idx.kids.get(s.id, ()):
                    base, i, _, _ = e.info
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
        """The derived relation ``label`` (in ``EDGE_LABELS``), sorted."""
        if label in ("wrDiff", "whb"):
            from .linearize import build_whb, wrdiff_pairs

            if label == "wrDiff":
                return sorted(wrdiff_pairs(self))
            ids, _, adj = build_whb(self)
            return sorted((w, ids[j]) for k, w in enumerate(ids) for j in bits(adj[k]))
        return sorted(_EDGES[label](self))


_EDGES: dict[str, Callable[[Derived], Iterable[tuple]]] = {
    "rf": lambda d: d.history.rf,
    "ll": lambda d: d.history.ll,
    "fwd": lambda d: ((w, s) for w, s, _ in d.fwd_edges),
    "wr": lambda d: ((a.id, b.id) for ws in d.idx.effectful.values() for a, b in zip(ws, ws[1:])),
    "sc": lambda d: d.snap.sc_pairs,
    "rf-abs": lambda d: d.snap.rf_pairs,
    "hb1": lambda d: d.snap.prec_edges,
    "hb": lambda d: d.snap.hb.pairs(),
    "hb-rep": lambda d: d.rep_hb.pairs(),
    "rb": lambda d: ((a.id, b.id) for a in d.history.events for b in d.history.events
                     if a is not b and a.end < b.start),
}
EDGE_LABELS = (*_EDGES, "wrDiff", "whb")


def derive(h: History) -> Derived:
    return Derived(h)
