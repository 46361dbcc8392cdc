"""Traced units: the explore and stress loops rebuilt from public calls.

Each call into a layer's public function is timed from here, so the
program itself is unchanged.  The loops repeat what ``explore()`` and
``stress()`` do, in the same order, and return the same verdict fields,
so the verdict gate applies to traced units too.

Lazy closures on ``Derived`` are forced one at a time before the
linearizer and the suites run, and only those the workload's suites and
linearizer read, so each closure is billed to the visibility layer and
not to whichever check happens to touch it first.
"""
import hashlib
import time
from collections import defaultdict

from snaplab.checker import applicable_suites, check_chain, run_checks
from snaplab.events import ABS, INF
from snaplab.harness import iter_sims, stress_once
from snaplab.linearize import Linearization, LinearizeError, SizeGuard, \
    brute_force_linearize, completed_set, linearize
from snaplab.visibility import CorruptHistory, derive

clock = time.perf_counter

# Suites that read the rep-level closure, and suites that read virtual
# scans, forwarding and snapshot visibility (checker.py, linearize.py).
REP_READERS = {"M", "M+", "L", "F", "F+"}
SNAP_READERS = {"F", "F+", "S"}


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


class Behaviours:
    """Distinct behaviours among the histories seen.

    An abs-level history is the order of abs invocations and responses,
    with event ids and outputs.  A per-register trace is, for each
    register, the sequence of its rep events as (parent id, op, input,
    output).  Event ids are recorder sequence numbers.
    """

    def __init__(self):
        self.abs = set()
        self.regs = set()
        self.keys = set()

    def add(self, h) -> None:
        points = []
        regs = defaultdict(list)
        for e in h.events:
            if e.kind == ABS:
                points.append((e.start, "inv", e.id, e.op, e.input))
                if e.end != INF:
                    points.append((e.end, "res", e.id, e.output))
            else:
                regs[e.object].append((e.parent, e.op, e.input, e.output))
        points.sort(key=lambda p: p[0])
        a = _digest(repr([p[1:] for p in points]))
        r = _digest(repr(sorted((k, repr(v)) for k, v in regs.items())))
        self.abs.add(a)
        self.regs.add(r)
        self.keys.add(a + r)


class Check:
    """Derive, linearize and check one history with every layer timed."""

    def __init__(self, cfg, spans):
        names = applicable_suites(cfg.algorithm, cfg.suites)
        self.suites = [s for s in names if s != "CHAIN"]
        self.chain = "CHAIN" in names
        lin = getattr(cfg, "linearize", False)
        self.oracle_guard = cfg.oracle_guard if getattr(cfg, "oracle", False) else None
        self.do_lin = lin or self.oracle_guard is not None or self.chain
        self.need_rep = bool(REP_READERS.intersection(self.suites))
        self.need_snap = bool(SNAP_READERS.intersection(self.suites)) or self.do_lin
        self.t = spans

    def _force(self, name, fn) -> None:
        t0 = clock()
        try:
            fn()
        except CorruptHistory:
            pass  # the suites that read it report the corruption
        self.t[name] += clock() - t0

    def __call__(self, h):
        """Returns (violations, lin_ok, oracle verdict or None, linearization)."""
        t = self.t
        t0 = clock()
        d = derive(h)
        t["visibility.index_s"] += clock() - t0
        if self.need_rep:
            self._force("visibility.rep_s", lambda: d.rep.hb)
        if self.need_snap:
            self._force("visibility.sigma_s", lambda: d.sigmas)
            self._force("visibility.fwd_s", lambda: (d.fwd_edges, d.flevel))
            self._force("visibility.snap_s", lambda: d.snap)
            t["visibility.fwd_edges"] += len(d.fwd_edges)
        t["visibility.rep_edges"] += len(h.rf) + len(h.ll)

        lin = lin_ok = None
        if self.do_lin:
            t0 = clock()
            try:
                lin = linearize(d)
                lin_ok = lin.legal
            except LinearizeError:
                lin_ok = False
            t["linearize.lin_s"] += clock() - t0

        results = {}
        for name in self.suites:
            t0 = clock()
            results[name] = run_checks(d, (name,), lin_ok=lin_ok).suites[name]
            t[f"checker.{name.replace('+', 'plus')}_s"] += clock() - t0
        chain = []
        if self.chain:
            t0 = clock()
            check_chain(results, lin_ok, chain)
            t["checker.CHAIN_s"] += clock() - t0
        nviol = len(chain) + sum(len(r.violations) for r in results.values())
        t["checker.violations"] += nviol

        verdict = None
        if self.oracle_guard is not None:
            t0 = clock()
            try:
                verdict = brute_force_linearize(d, self.oracle_guard)
            except SizeGuard:
                verdict = None
            t["linearize.oracle_s"] += clock() - t0
        t0 = clock()
        t["linearize.ec_max"] = max(t["linearize.ec_max"], len(completed_set(d)))
        t["trace.counters_s"] += clock() - t0
        return nviol, lin_ok, verdict, lin


def explore_unit(cfg, spans):
    """One traced ``explore()``: returns its summary fields and failed count."""
    check = Check(cfg, spans)
    seen = Behaviours()
    hasher = hashlib.sha256() if cfg.hash_stream else None
    s = dict(schedules=0, violations=0, lin_failures=0, oracle_mismatches=0,
             oracle_skipped=0)
    failed = events = 0
    sims = iter_sims(cfg)
    while True:
        t0 = clock()
        sim = next(sims, None)
        if sim is None:
            spans["harness.sim_s"] += clock() - t0
            break
        h = sim.history()
        spans["harness.sim_s"] += clock() - t0
        spans["harness.steps"] += len(sim.schedule)

        nviol, lin_ok, verdict, lin = check(h)
        agree = None
        if verdict is not None:
            agree = isinstance(verdict, Linearization) == bool(lin_ok)
        skipped = check.oracle_guard is not None and verdict is None
        if hasher is not None:
            t0 = clock()
            payload = h.to_json()
            if lin is not None:
                payload += "\n" + lin.to_json()
            hasher.update(hashlib.sha256(payload.encode()).digest())
            spans["events.to_json_s"] += clock() - t0

        s["schedules"] += 1
        s["violations"] += nviol
        s["lin_failures"] += lin_ok is False
        s["oracle_mismatches"] += agree is False
        s["oracle_skipped"] += skipped
        failed += bool(nviol or lin_ok is False or agree is False or skipped)
        events += len(h.events)
        t0 = clock()
        seen.add(h)
        spans["trace.counters_s"] += clock() - t0
    s["stream_sha256"] = hasher.hexdigest() if hasher is not None else None
    _count(spans, seen, s["schedules"], events)
    return s, failed


def stress_unit(cfg, spans, worker_errors):
    """One traced ``stress()``: returns (runs, failed runs)."""
    check = Check(cfg, spans)
    seen = Behaviours()
    failed = events = 0
    for _ in range(cfg.runs):
        errors_before = len(worker_errors)
        t0 = clock()
        h = stress_once(cfg)
        spans["harness.sim_s"] += clock() - t0
        spans["harness.steps"] += sum(1 for e in h.events if e.kind != ABS)
        nviol = check(h)[0]
        open_abs = sum(1 for e in h.events if e.kind == ABS and e.end == INF)
        failed += bool(nviol or open_abs or len(worker_errors) > errors_before)
        events += len(h.events)
        t0 = clock()
        seen.add(h)
        spans["trace.counters_s"] += clock() - t0
    _count(spans, seen, cfg.runs, events)
    return cfg.runs, failed


def _count(spans, seen, histories, events) -> None:
    spans["harness.schedules"] += histories
    spans["harness.distinct_abs"] += len(seen.abs)
    spans["harness.distinct_reg_traces"] += len(seen.regs)
    spans["harness.distinct_keys"] += len(seen.keys)
    spans["harness.distinct_ratio"] += len(seen.keys) / max(histories, 1)
    spans["events.per_history"] += events / max(histories, 1)
