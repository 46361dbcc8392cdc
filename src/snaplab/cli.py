"""Command-line front end: explore, stress, check, linearize, repro, dump-edges.

Exit codes: 0 all requested checks passed, 1 check failures (failing axiom
ids on stderr), 2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algorithms import ALGORITHMS, OpScript, ScriptError
from .checker import SUITES, run_checks
from .events import ABS, REP, History
from .harness import ExploreCapExceeded, ExploreConfig, FixedSchedule, \
    ReproMismatch, ScheduleError, StressConfig, explore, parse_mode, random_script, \
    repro, stress
from .linearize import Linearization, SizeGuard, brute_force_linearize, lin_verdict, \
    linearize
from .report import CheckReport
from .visibility import EDGE_LABELS, CorruptHistory, derive

def _load_script(path: str) -> OpScript:
    with open(path) as fh:
        text = fh.read()
    try:
        return OpScript.from_json(text)
    except ValueError as exc:  # ScriptError and JSONDecodeError are ValueErrors
        raise ScriptError(f"{path}: {exc}") from exc


class MalformedHistory(Exception):
    """A history file that is not a serialized History."""


class BadArgument(Exception):
    """A command-line argument that names no cell count, suite, mode or label."""


def _load_history(path: str) -> History:
    with open(path) as fh:
        text = fh.read()
    try:
        h = History.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedHistory(f"malformed history {path}: {type(exc).__name__}: {exc}") from exc
    if h.algorithm not in ALGORITHMS:
        raise MalformedHistory(f"malformed history {path}: unknown algorithm {h.algorithm!r}")
    if len(h.initial) != h.n:
        raise MalformedHistory(f"malformed history {path}: {len(h.initial)} initial values "
                               f"for {h.n} cells")
    for e in h.events:
        write = _WRITE_OP.fullmatch(e.op)
        if e.kind == ABS and e.op != "scan" and not (write and int(write[1]) < h.n):
            raise MalformedHistory(f"malformed history {path}: event {e.id} op {e.op!r} is "
                                   f"neither scan nor write[cell] with a cell below {h.n}")
        if e.kind == ABS and e.op == "scan" and e.terminated and not (
                isinstance(e.output, list) and len(e.output) == h.n):
            raise MalformedHistory(f"malformed history {path}: event {e.id} is a returned "
                                   f"scan with output {e.output!r}: want a list of {h.n} "
                                   "values")
        if e.kind not in (ABS, REP) or (e.kind == REP and e.object is None):
            raise MalformedHistory(f"malformed history {path}: event {e.id} is of kind "
                                   f"{e.kind!r} with object {e.object!r}: want abs, or rep "
                                   "with a register")
    return h


_WRITE_OP = re.compile(r"write\[(0|[1-9][0-9]*)\]")


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_failures(report: CheckReport) -> None:
    for v in report.all_violations():
        print(v.render(), file=sys.stderr)


def _suites(text: str) -> tuple[str, ...]:
    """A comma list of suite names; a name that is no suite is a usage error."""
    names = tuple(text.split(","))
    for name in names:
        if name not in SUITES:
            raise BadArgument(f"unknown suite {name!r}; have {','.join(SUITES)}")
    return names


def _mode(text: str):
    try:
        return parse_mode(text)
    except ValueError as exc:  # an unknown mode, or a count that is no number
        raise BadArgument(f"bad mode {text!r}: {exc}") from exc


def _load_schedule(path: str) -> FixedSchedule:
    """A ``{"schedule": [thread indices]}`` file.  SimRun.run_schedule
    checks each index against the script."""
    with open(path) as fh:
        text = fh.read()
    try:
        schedule = json.loads(text)["schedule"]
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ScheduleError(f"{path}: malformed schedule: {type(exc).__name__}: {exc}") \
            from exc
    if not isinstance(schedule, list):
        raise ScheduleError(f"{path}: malformed schedule: \"schedule\" is not a list")
    return FixedSchedule(tuple(schedule))


def cmd_explore(args) -> int:
    script = _load_script(args.script)
    fixed = args.mode.split(":", 1)[1] if args.mode.startswith("fixed:") else None
    cfg = ExploreConfig(
        algorithm=args.alg, n=args.n, script=script,
        mode=_load_schedule(fixed) if fixed else _mode(args.mode),
        suites=_suites(args.check), linearize=True, oracle=args.oracle,
        hash_stream=args.hash)
    written = 0

    def per_result(res):
        nonlocal written
        if args.out:
            base = os.path.join(args.out, f"history_{written:06d}")
            with open(base + ".json", "w") as fh:
                fh.write(res.history.to_json() + "\n")
            with open(base + ".schedule.json", "w") as fh:  # a fixed:PATH file
                fh.write(json.dumps({"schedule": list(res.schedule)}) + "\n")
            with open(base + ".report.json", "w") as fh:
                json.dump(res.report.to_obj(), fh, indent=2)
            if res.lin is not None:
                with open(base + ".lin.json", "w") as fh:
                    fh.write(res.lin.to_json() + "\n")
        written += 1

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    try:
        summary = explore(cfg, per_result=per_result if args.out else None)
    except ScheduleError as exc:
        raise ScheduleError(f"{fixed}: malformed schedule: {exc}") from exc
    out = {
        "schedules": summary.schedules,
        "passed": summary.passed,
        "failed": summary.failed,
        "violations": summary.violations,
        "lin_failures": summary.lin_failures,
        "oracle_mismatches": summary.oracle_mismatches,
        "oracle_skipped": summary.oracle_skipped,
        "max_steps": summary.max_steps,
        "distinct_snapshot_keys": summary.distinct_snapshot_keys,
        "distinct_register_keys": summary.distinct_register_keys,
        "steps_executed": summary.steps_executed,
    }
    if summary.stream_sha256:
        out["stream_sha256"] = summary.stream_sha256
    _emit(out, None)
    for failure in summary.failing:
        print(json.dumps({"schedule": list(failure.schedule)}), file=sys.stderr)
        _report_failures(failure.report)
        if failure.lin_error:
            print(failure.lin_error, file=sys.stderr)
    return 0 if summary.clean else 1


def cmd_stress(args) -> int:
    for flag, count, what in (("--n", args.n, "cell"), ("--threads", args.threads, "thread"),
                              ("--ops", args.ops, "operation per thread"),
                              ("--runs", args.runs, "run")):
        if count < 1:
            raise BadArgument(f"{flag} {count}: want at least one {what}")
    script = random_script(args.n, args.threads, args.ops, args.seed)
    cfg = StressConfig(algorithm=args.alg, n=args.n, script=script,
                       runs=args.runs, suites=_suites(args.check))
    summary = stress(cfg)
    _emit({"runs": summary.runs, "violations": summary.violations,
           "worker_errors": summary.worker_errors}, None)
    for report in summary.failing:
        _report_failures(report)
    return 0 if summary.clean else 1


def cmd_check(args) -> int:
    suites = _suites(args.suites)
    report = run_checks(derive(_load_history(args.history)), suites, label=args.history)
    _emit(report.to_obj(), args.out)
    if not report.passed:
        _report_failures(report)
        return 1
    return 0


def cmd_linearize(args) -> int:
    if args.guard < 1:
        raise BadArgument(f"--guard {args.guard}: want at least one event")
    h = _load_history(args.history)
    d = derive(h)
    lin, legal, error = lin_verdict(d)
    result: dict = {"linearization": lin.to_obj()} if lin is not None else {"error": error}
    code = 0 if legal else 1
    if args.oracle:
        try:
            verdict = brute_force_linearize(d, args.guard)
        except SizeGuard as exc:
            result["oracle"] = {"skipped": str(exc)}
        else:
            result["oracle"] = verdict.to_obj()
    _emit(result, args.out)
    return code


def cmd_repro(args) -> int:
    try:
        res = repro(args.scenario)
    except ReproMismatch as exc:
        print(str(exc), file=sys.stderr)
        return 1
    d = derive(res.history)
    out = {"scenario": res.name, "scan_output": res.scan_output, "ids": res.ids,
           "schedule": list(res.schedule)}
    if args.scenario == "naive_03":
        verdict = brute_force_linearize(d)
        out["oracle"] = verdict.to_obj() if not isinstance(verdict, Linearization) \
            else {"linearizable": True}
        ok = not isinstance(verdict, Linearization)
        if not ok:
            print("expected the naive scenario to be non-linearizable", file=sys.stderr)
    else:
        lin = linearize(d)
        out["linearization"] = lin.to_obj()
        ok = lin.legal
        if not ok:
            print("expected the scripted scenario to linearize", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{res.name}.history.json"), "w") as fh:
            fh.write(res.history.to_json() + "\n")
    _emit(out, None)
    return 0 if ok else 1


def cmd_dump_edges(args) -> int:
    d = derive(_load_history(args.history))
    out = []
    for lab in args.labels.split(","):
        if lab not in EDGE_LABELS:
            raise BadArgument(f"unknown edge label {lab!r}; have {','.join(EDGE_LABELS)}")
        try:
            pairs = d.edge_set(lab)
        except CorruptHistory as exc:  # the relation cannot be derived
            raise MalformedHistory(f"{args.history}: cannot derive {lab}: {exc}") from exc
        out.append({"label": lab, "pairs": [list(p) for p in pairs]})
    _emit(out, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snaplab",
                                description="concurrent-snapshot laboratory")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("explore", help="enumerate or sample schedules and check each history")
    ex.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--script", required=True)
    ex.add_argument("--mode", default="exhaustive",
                    help="exhaustive | dfs:LIMIT | random:SEED:SAMPLES | fixed:PATH")
    ex.add_argument("--check", default="S", help="comma list of suites (RB,M,M+,L,F,F+,S,CHAIN)")
    ex.add_argument("--oracle", action="store_true")
    ex.add_argument("--hash", action="store_true", help="hash the history/linearization stream")
    ex.add_argument("--out", default=None)
    ex.set_defaults(fn=cmd_explore)

    st = sub.add_parser("stress", help="real-thread runs with post-hoc checking")
    st.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--threads", type=int, default=4)
    st.add_argument("--ops", type=int, default=200)
    st.add_argument("--runs", type=int, default=1)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--check", default="RB,S")
    st.set_defaults(fn=cmd_stress)

    ck = sub.add_parser("check", help="run axiom suites over a recorded history")
    ck.add_argument("--history", required=True)
    ck.add_argument("--suites", default="RB,S")
    ck.add_argument("--out", default=None)
    ck.set_defaults(fn=cmd_check)

    ln = sub.add_parser("linearize", help="construct and validate a linearization")
    ln.add_argument("--history", required=True)
    ln.add_argument("--oracle", action="store_true")
    ln.add_argument("--guard", type=int, default=10)
    ln.add_argument("--out", default=None)
    ln.set_defaults(fn=cmd_linearize)

    rp = sub.add_parser("repro", help="replay a scripted scenario")
    rp.add_argument("scenario", choices=["naive_03", "jayanti1_fig3"])
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_repro)

    de = sub.add_parser("dump-edges", help="export derived relations as edge lists")
    de.add_argument("--history", required=True)
    de.add_argument("--labels", default="rf,ll")
    de.add_argument("--out", default=None)
    de.set_defaults(fn=cmd_dump_edges)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (MalformedHistory, BadArgument, ScriptError, ScheduleError, ExploreCapExceeded,
            OSError) as exc:
        print(f"snaplab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
