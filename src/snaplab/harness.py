"""Execution drivers.

The simulator runs the algorithms as step machines, one register
operation per scheduling point, under exhaustive DFS, bounded DFS,
seeded random, or fixed schedules.  The stress runner steps the same
simulator from real threads, one per script thread, against the
threadsafe recorder.  Both emit recorded histories that are checked post
hoc.
"""
from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional

from .algorithms import ALGORITHMS, WRITE, OpScript, initial_write, op_generator, \
    op_input, op_name
from .events import ABS, UNIT, History, HistoryRecorder
from .linearize import Linearization, SizeGuard, brute_force_linearize, completed_set, \
    lin_verdict
from .registers import Memory
from .report import CheckReport, SuiteResult
from .checker import applicable_suites, run_checks, run_suite
from .memo import Memo
from .visibility import CorruptHistory, Derived, derive


class ExploreCapExceeded(RuntimeError):
    """Exhaustive exploration outgrew its cap; switch to dfs:LIMIT or
    random:SEED:SAMPLES."""


class ReproMismatch(AssertionError):
    """A scripted scenario did not reproduce its expected outputs."""


class ScheduleError(ValueError):
    """A fixed schedule steps a thread that does not exist or has
    finished."""


class _Thread:
    __slots__ = ("pid", "ops", "op_idx", "gen", "pending", "abs_ev", "results")

    def __init__(self, pid, ops):
        self.pid = pid
        self.ops = ops
        self.op_idx = 0
        self.gen = None
        self.pending = None
        self.abs_ev = None
        self.results: list = []  # what the current operation's steps returned


class SimRun:
    """One deterministic execution; each step() runs exactly one register
    operation of the chosen thread.  ``checkpoint`` and ``restore`` take
    it back to an earlier point, for the DFS to try another branch."""

    def __init__(self, algorithm: str, n: int, script: OpScript, seed=None,
                 threadsafe=False):
        adef = ALGORITHMS[algorithm]
        adef.validate(script, n)
        initial = [0] * n
        self.adef = adef
        self.n = n
        self.rec = HistoryRecorder(algorithm, n, initial, threadsafe=threadsafe, seed=seed)
        self.mem = Memory(self.rec, threadsafe=threadsafe)
        self.bank = adef.make_bank(self.mem, n, script.pids(), initial)
        for i in range(n):
            ev = self.rec.begin(ABS, f"write[{i}]", initial[i], None, None)
            self.mem.step(initial_write(adef, self.bank, i, initial), None, ev.id)
            self.rec.finish(ev, UNIT)
        self.threads = [_Thread(t.pid, t.ops) for t in script.threads]
        self.schedule: list[int] = []
        # calls of step() since this run was made or the DFS last yielded
        # it, those a restore undid included
        self.steps_run = 0

    def enabled(self) -> list[int]:
        return [k for k, t in enumerate(self.threads)
                if t.gen is not None or t.op_idx < len(t.ops)]

    @property
    def done(self) -> bool:
        return not self.enabled()

    def step(self, k: int) -> None:
        self._advance(self.threads[k])
        self.schedule.append(k)
        self.steps_run += 1

    def _advance(self, t: _Thread) -> None:
        """Run the next register operation of ``t``.  Stress workers call
        this, each for its own thread, and keep out of ``step``'s schedule
        bookkeeping."""
        if t.gen is None:
            op = t.ops[t.op_idx]
            t.abs_ev = self.rec.begin(ABS, op_name(op), op_input(op), None, None)
            t.gen = op_generator(self.adef, self.bank, self.n, t.pid, op)
            t.pending = next(t.gen)
        res = self.mem.step(t.pending, t.pid, t.abs_ev.id)
        try:
            t.pending = t.gen.send(res)
            t.results.append(res)
        except StopIteration as stop:
            self.rec.finish(t.abs_ev, UNIT if t.ops[t.op_idx][0] == WRITE else list(stop.value))
            t.gen = None
            t.abs_ev = None
            t.op_idx += 1
            t.results = []

    def checkpoint(self) -> tuple:
        """The state ``restore`` takes this run back to: the recorder's and
        the memory's, the schedule's length, and per thread its operation,
        its open abs event and what that operation's steps returned so far."""
        return (self.rec.mark(), self.mem.save(), len(self.schedule),
                [(t.op_idx, t.abs_ev.id if t.abs_ev else None, tuple(t.results))
                 for t in self.threads])

    def restore(self, cp: tuple) -> None:
        """Go back to ``checkpoint`` ``cp``.  Histories taken since keep
        their events: an abs event that was open at ``cp`` and has returned
        since is replaced by an open copy.  A generator cannot be copied, so
        a thread that moved since ``cp`` gets a new one, sent the recorded
        results again; the step machines are functions of those results."""
        mark, mem, steps, threads = cp
        self.rec.rewind(mark)
        self.mem.restore(mem)
        del self.schedule[steps:]
        for t, (op_idx, abs_id, results) in zip(self.threads, threads):
            if t.op_idx == op_idx and len(t.results) == len(results):
                continue  # not moved: every step changes one of the two
            t.op_idx, t.results = op_idx, list(results)
            if abs_id is None:
                t.gen = t.pending = t.abs_ev = None
                continue
            t.abs_ev = self.rec.reopen(abs_id)
            t.gen = op_generator(self.adef, self.bank, self.n, t.pid, t.ops[op_idx])
            t.pending = next(t.gen)
            for res in results:
                t.pending = t.gen.send(res)

    def run_schedule(self, schedule: Iterable[int]) -> None:
        threads = self.threads
        for pos, k in enumerate(schedule):
            if type(k) is not int or not 0 <= k < len(threads):
                raise ScheduleError(f"step {pos} names thread {k!r}, but the script "
                                    f"has threads 0..{len(threads) - 1}")
            t = threads[k]
            if t.gen is None and t.op_idx >= len(t.ops):
                raise ScheduleError(f"step {pos} runs thread {k}, which has finished")
            self.step(k)

    def run_all(self, choose: Callable[[list[int]], int]) -> None:
        while True:
            en = self.enabled()
            if not en:
                return
            self.step(choose(en))

    def history(self) -> History:
        return self.rec.history()


# -- exploration modes --------------------------------------------------------

@dataclass(frozen=True)
class Exhaustive:
    cap: int = 200_000

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError(f"cap {self.cap}: want at least one schedule")


@dataclass(frozen=True)
class DfsBounded:
    limit: int = 200_000

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError(f"limit {self.limit}: want at least one schedule")


@dataclass(frozen=True)
class RandomWalks:
    seed: int
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples {self.samples}: want at least one schedule")


@dataclass(frozen=True)
class FixedSchedule:
    schedule: tuple[int, ...]


# mode name -> its class, the numbers of counts it takes, and its forms
_MODES = {"exhaustive": (Exhaustive, (0, 1), "exhaustive or exhaustive:CAP"),
          "dfs": (DfsBounded, (1,), "dfs:LIMIT"),
          "random": (RandomWalks, (2,), "random:SEED:SAMPLES")}


def parse_mode(text: str):
    name, *counts = text.split(":")
    if name == "fixed":
        raise ValueError("fixed schedules are loaded by the CLI from a file")
    if name not in _MODES:
        raise ValueError(f"unknown mode {text!r}")
    mode, arity, forms = _MODES[name]
    if len(counts) not in arity:
        raise ValueError(f"want {forms}")
    return mode(*map(int, counts))


@dataclass(frozen=True)
class ExploreConfig:
    algorithm: str
    n: int
    script: OpScript
    mode: object
    suites: tuple[str, ...] = ("S",)
    linearize: bool = False
    oracle: bool = False
    oracle_guard: int = 10
    hash_stream: bool = False


@dataclass
class EvalResult:
    schedule: tuple[int, ...]
    history: History
    derived: Derived
    report: CheckReport
    lin: Optional[Linearization] = None
    lin_ok: Optional[bool] = None
    lin_error: Optional[str] = None
    oracle: object = None
    agree: Optional[bool] = None
    snapshot_key: Optional[bytes] = None  # the memo's keys (see memo.py)
    register_keys: tuple = ()


@dataclass
class ExploreSummary:
    schedules: int = 0
    passed: int = 0
    failed: int = 0
    violations: int = 0
    lin_failures: int = 0
    oracle_mismatches: int = 0
    oracle_skipped: int = 0
    failing: list = field(default_factory=list)
    max_steps: dict = field(default_factory=dict)
    stream_sha256: Optional[str] = None
    complete: bool = True
    afek_view_returns: int = 0
    max_ec: int = 0
    distinct_snapshot_keys: int = 0  # behaviours the snapshot layer checked
    distinct_register_keys: int = 0  # register traces M, M+ and L checked
    steps_executed: int = 0  # register steps the enumeration ran, undone ones included

    @property
    def clean(self) -> bool:
        return (self.violations == 0 and self.lin_failures == 0
                and self.oracle_mismatches == 0)


@dataclass
class _SnapshotLayer:
    """What S, the linearizer and the oracle found for one behaviour."""
    s: Optional[SuiteResult] = None
    lin: Optional[Linearization] = None
    lin_ok: Optional[bool] = None
    lin_error: Optional[str] = None
    oracle: object = None


def _snapshot_layer(cfg: ExploreConfig, d: Derived, with_s: bool) -> _SnapshotLayer:
    lin = lin_ok = lin_err = verdict = None
    if cfg.linearize or cfg.oracle or "CHAIN" in cfg.suites:
        lin, lin_ok, lin_err = lin_verdict(d)
    s = run_suite(d, "S") if with_s else None
    if cfg.oracle:
        try:
            verdict = brute_force_linearize(d, cfg.oracle_guard)
        except SizeGuard:
            verdict = None
    return _SnapshotLayer(s, lin, lin_ok, lin_err, verdict)


def evaluate(cfg: ExploreConfig, sim: SimRun, memo: Memo) -> EvalResult:
    """Derive, check, linearize and run the oracle on ``sim``'s history;
    a behaviour ``memo`` has seen is not checked again."""
    history = sim.history()
    d = derive(history)
    names = applicable_suites(cfg.algorithm, cfg.suites)
    snap_key = None
    layer = _SnapshotLayer()
    if "S" in names or cfg.linearize or cfg.oracle or "CHAIN" in cfg.suites:
        layer, snap_key = memo.snapshot(d, partial(_snapshot_layer, cfg, d, "S" in names))
    done, reg_keys = memo.register_suites(d, names)
    done.update(memo.forwarding_suites(d, names, snap_key, reg_keys))
    if layer.s is not None:
        done["S"] = SuiteResult("S", list(layer.s.violations))
    report = run_checks(d, cfg.suites, lin_ok=layer.lin_ok, done=done)
    res = EvalResult(tuple(sim.schedule), history, d, report, lin=layer.lin,
                     lin_ok=layer.lin_ok, lin_error=layer.lin_error, oracle=layer.oracle,
                     snapshot_key=snap_key, register_keys=reg_keys)
    if layer.oracle is not None:
        res.agree = isinstance(layer.oracle, Linearization) == bool(layer.lin_ok)
    return res


def _new_sim(cfg: ExploreConfig) -> SimRun:
    seed = cfg.mode.seed if isinstance(cfg.mode, RandomWalks) else None
    return SimRun(cfg.algorithm, cfg.n, cfg.script, seed=seed)


def _iter_dfs(cfg: ExploreConfig, limit: Optional[int]):
    """Depth-first enumeration of complete schedules, each thread's first
    choice first.  One SimRun runs every edge of the schedule tree once: it
    checkpoints each node with two or more enabled threads and backtracks
    by restoring the deepest one that has a choice left."""
    sim = _new_sim(cfg)
    frames: list[list] = []  # [checkpoint, enabled threads, next choice]
    count = 0
    while True:
        en = sim.enabled()
        while en:
            if len(en) > 1:
                frames.append([sim.checkpoint(), en, 1])
            sim.step(en[0])
            en = sim.enabled()
        yield sim
        sim.steps_run = 0
        count += 1
        if not frames or (limit is not None and count >= limit):
            return
        frame = frames[-1]
        cp, en, i = frame
        if i + 1 == len(en):
            frames.pop()
        else:
            frame[2] = i + 1
        sim.restore(cp)
        sim.step(en[i])


def iter_sims(cfg: ExploreConfig):
    """The runs of ``cfg.mode``, one per schedule.  A yielded SimRun is
    valid until the next one is asked for (the DFS modes move one SimRun
    back and forth); the History its ``history()`` returned stays valid."""
    mode = cfg.mode
    if isinstance(mode, Exhaustive):
        count = 0
        for sim in _iter_dfs(cfg, mode.cap + 1):
            count += 1
            if count > mode.cap:
                raise ExploreCapExceeded(
                    f"more than {mode.cap} interleavings; use dfs:LIMIT or random:SEED:SAMPLES")
            yield sim
    elif isinstance(mode, DfsBounded):
        yield from _iter_dfs(cfg, mode.limit)
    elif isinstance(mode, RandomWalks):
        rng = random.Random(mode.seed)
        for _ in range(mode.samples):
            sim = _new_sim(cfg)
            sim.run_all(lambda en: en[rng.randrange(len(en))])
            yield sim
    elif isinstance(mode, FixedSchedule):
        sim = _new_sim(cfg)
        sim.run_schedule(mode.schedule)
        yield sim
    else:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass
class Failure:
    """A failing schedule: replay it with ``FixedSchedule(schedule)``."""
    schedule: tuple[int, ...]
    report: CheckReport
    lin_error: Optional[str] = None


def max_steps(d: Derived) -> dict[str, int]:
    """The most register steps one write and one scan of ``d``'s history
    ran.  Each step records one rep event under its abs operation, so an
    operation's steps are its children; the first ``n`` abs events are the
    initial writes, which no thread ran."""
    out: dict[str, int] = {}
    kids = d.idx.kids
    for e in d.idx.abs_events[d.history.n:]:
        kind = "scan" if e.op == "scan" else "write"
        steps = len(kids.get(e.id, ()))
        if steps > out.get(kind, 0):
            out[kind] = steps
    return out


def _view_returned(d: Derived) -> bool:
    """Whether a scan returned a borrowed view; False where the virtual
    scans cannot be derived (F and S report that as H.corrupt)."""
    try:
        return bool(d.borrowed_views)
    except CorruptHistory:
        return False


def explore(cfg: ExploreConfig, per_result: Optional[Callable[[EvalResult], None]] = None,
            keep_failing: int = 5) -> ExploreSummary:
    """Evaluate every schedule of ``cfg.mode``, each behaviour once (see
    memo.py), and fold each result into the summary."""
    memo = Memo()
    summary = ExploreSummary()
    hasher = hashlib.sha256()
    snapshot_keys: set = set()
    register_keys: set = set()
    for sim in iter_sims(cfg):
        summary.steps_executed += sim.steps_run
        res = evaluate(cfg, sim, memo)
        if per_result is not None:
            per_result(res)
        if cfg.hash_stream:
            payload = res.history.to_json()
            if res.lin is not None:
                payload += "\n" + res.lin.to_json()
            hasher.update(hashlib.sha256(payload.encode()).digest())
        nviol = len(res.report.all_violations())
        summary.schedules += 1
        summary.violations += nviol
        summary.lin_failures += res.lin_ok is False
        summary.oracle_mismatches += res.agree is False
        summary.oracle_skipped += cfg.oracle and res.oracle is None
        if nviol or res.lin_ok is False or res.agree is False:
            summary.failed += 1
            if len(summary.failing) < keep_failing:
                summary.failing.append(Failure(res.schedule, res.report, res.lin_error))
        else:
            summary.passed += 1
        for k, v in max_steps(res.derived).items():
            summary.max_steps[k] = max(summary.max_steps.get(k, 0), v)
        summary.max_ec = max(summary.max_ec, len(completed_set(res.derived)))
        summary.afek_view_returns += _view_returned(res.derived)
        if res.snapshot_key is not None:
            snapshot_keys.add(res.snapshot_key)
        register_keys.update(res.register_keys)
        # a live history keeps the recorder's index, so the next leaf would
        # feed a new one from the start
        del res
    if cfg.hash_stream:
        summary.stream_sha256 = hasher.hexdigest()
    summary.distinct_snapshot_keys = len(snapshot_keys)
    summary.distinct_register_keys = len(register_keys)
    return summary


# -- stress ---------------------------------------------------------------------

@dataclass(frozen=True)
class StressConfig:
    algorithm: str
    n: int
    script: OpScript
    runs: int = 1
    suites: tuple[str, ...] = ("RB", "S")


def stress_once(cfg: StressConfig, errors: Optional[list] = None) -> History:
    """One real-thread run of the script.  A worker that raises appends its
    exception to ``errors`` and re-raises it, so that ``threading.excepthook``
    still reports it; the history keeps its unfinished operation."""
    sim = SimRun(cfg.algorithm, cfg.n, cfg.script, threadsafe=True)

    def worker(t):
        try:
            while t.gen is not None or t.op_idx < len(t.ops):
                sim._advance(t)
        except Exception as exc:
            if errors is not None:
                errors.append(exc)
            raise

    workers = [threading.Thread(target=worker, args=(t,)) for t in sim.threads]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return sim.history()


@dataclass
class StressSummary:
    runs: int = 0
    violations: int = 0
    worker_errors: int = 0  # exceptions raised by worker threads
    failing: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.violations == 0 and self.worker_errors == 0


def stress(cfg: StressConfig, per_run=None) -> StressSummary:
    summary = StressSummary()
    for _ in range(cfg.runs):
        errors: list = []
        h = stress_once(cfg, errors)
        d = derive(h)
        report = run_checks(d, cfg.suites)
        summary.runs += 1
        summary.worker_errors += len(errors)
        nviol = len(report.all_violations())
        summary.violations += nviol
        if nviol and len(summary.failing) < 3:
            summary.failing.append(report)
        if per_run is not None:
            per_run(h, d, report)
    return summary


def random_script(n: int, threads: int, ops_per_thread: int, seed: int,
                  scan_ratio: float = 0.5) -> OpScript:
    rng = random.Random(seed)
    per_thread = []
    for _ in range(threads):
        ops = []
        for _ in range(ops_per_thread):
            if rng.random() < scan_ratio:
                ops.append(("scan",))
            else:
                ops.append(("write", rng.randrange(n), rng.randrange(1, 100)))
        per_thread.append(ops)
    return OpScript.from_lists(per_thread)


# -- scripted scenarios -----------------------------------------------------------

@dataclass
class ReproResult:
    name: str
    history: History
    scan_output: list
    ids: dict[str, int]
    schedule: tuple[int, ...]


def _scan_outputs(h: History) -> list:
    return [e for e in h.events if e.op == "scan"]


def repro(name: str) -> ReproResult:
    """Replay a hardcoded schedule and assert its expected observable output."""
    if name == "naive_03":
        script = OpScript.from_lists([
            [("scan",)],
            [("write", 0, 2)],
            [("write", 1, 3)],
        ])
        sim = SimRun("naive", 2, script)
        sim.run_schedule([0, 1, 2, 0])
        h = sim.history()
        scan = _scan_outputs(h)[0]
        if list(scan.output) != [0, 3]:
            raise ReproMismatch(f"naive_03 scan returned {scan.output}, wanted (0, 3)")
        w0 = next(e for e in h.events if e.op == "write[0]" and e.input == 2)
        w1 = next(e for e in h.events if e.op == "write[1]" and e.input == 3)
        return ReproResult(name, h, list(scan.output),
                           {"scan": scan.id, "w0": w0.id, "w1": w1.id},
                           tuple(sim.schedule))
    if name == "jayanti1_fig3":
        script = OpScript.from_lists([
            [("scan",)],
            [("write", 0, 2), ("write", 0, 3)],
            [("write", 1, 4)],
        ])
        sim = SimRun("jayanti1", 2, script)
        # scan: on r0 r1 a0 | w0 completes (wa wx wb) | w0' starts (wa) |
        # w1 starts (wa) | scan: a1 off b0 b1; w0' and w1 never return.
        sim.run_schedule([0, 0, 0, 0, 1, 1, 1, 1, 2, 0, 0, 0, 0])
        h = sim.history()
        scan = _scan_outputs(h)[0]
        if list(scan.output) != [2, 4]:
            raise ReproMismatch(f"jayanti1_fig3 scan returned {scan.output}, wanted (2, 4)")
        w0 = next(e for e in h.events if e.op == "write[0]" and e.input == 2)
        w0p = next(e for e in h.events if e.op == "write[0]" and e.input == 3)
        w1 = next(e for e in h.events if e.op == "write[1]" and e.input == 4)
        return ReproResult(name, h, list(scan.output),
                           {"scan": scan.id, "w0": w0.id, "w0p": w0p.id, "w1": w1.id},
                           tuple(sim.schedule))
    raise ValueError(f"unknown scenario {name!r}; have naive_03, jayanti1_fig3")
