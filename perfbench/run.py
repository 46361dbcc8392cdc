"""snaplab benchmark: time to verdict on three checker workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it measures whole units (one ``explore()`` or
``stress()`` call each) until ``--seconds`` have passed and prints the
end-to-end metrics.  Each unit is timed next to the same unit run by
``snaplab_baseline``, a frozen copy of the package, and the times are
reported at the reference machine's speed (see README.md).  With
``--trace 1`` it alternates an untraced unit and the same unit rebuilt
from timed public calls (``traced.py``) and prints the per-layer metrics.
Every verdict is checked against its known answer (``verdicts.json``);
the last line of standard output is one JSON object.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Set-up is timed in fresh interpreters, half of the pairs before and half
# after the measured units, so that the median spans the run.
SETUP_PAIRS = 8
# Per-layer metrics that are maxima over units; all others are per-unit means.
MAXIMA = {"linearize.ec_max"}

_SETUP_PROBE = """
import importlib, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
lib = importlib.import_module(sys.argv[3])
import workloads
workloads.build(lib, sys.argv[4], int(sys.argv[5]))
print(time.perf_counter() - t0)
"""

_RSS_PROBE = """
import resource, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import snaplab, workloads
cfg = workloads.build(snaplab, sys.argv[3], int(sys.argv[4]))
(snaplab.stress if isinstance(cfg, snaplab.StressConfig) else snaplab.explore)(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "snaplab", "__init__.py")):
        sys.exit("perfbench: no snaplab sources under src/; run from the root of a checkout")
    sys.path[:0] = [SRC, HERE]
    import snaplab
    if not os.path.abspath(snaplab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported snaplab from {snaplab.__file__}, not from src/")


_load_program()

import snaplab  # noqa: E402
import snaplab_baseline  # noqa: E402
from snaplab import NotLinearizable, explore  # noqa: E402
from snaplab.events import ABS, INF  # noqa: E402

import traced  # noqa: E402
import workloads  # noqa: E402

GATED = ("schedules", "violations", "lin_failures", "oracle_mismatches",
         "oracle_skipped", "stream_sha256")


class Unit:
    """What one measured unit did: wall time, callback gaps, verdicts."""

    def __init__(self):
        self.wall = 0.0
        self.gaps = []
        self.events = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verdict = {}


def _bad_result(cfg, res) -> bool:
    return bool(any(s.violations for s in res.report.suites.values())
                or res.lin_ok is False or res.agree is False
                or (cfg.oracle and res.oracle is None))


def explore_unit(lib, cfg) -> Unit:
    u = Unit()
    last = 0.0

    def per_result(res):
        nonlocal last
        now = time.perf_counter()
        u.gaps.append(now - last)
        last = now
        u.events += len(res.history.events)
        u.failed += _bad_result(cfg, res)

    t0 = last = time.perf_counter()
    summary = lib.explore(cfg, per_result=per_result)
    u.wall = time.perf_counter() - t0
    u.attempted = summary.schedules
    u.verdict = {k: getattr(summary, k) for k in GATED}
    return u


def stress_unit(lib, cfg, worker_errors) -> Unit:
    u = Unit()
    last = 0.0
    seen_errors = len(worker_errors)

    def per_run(h, d, report):
        nonlocal last, seen_errors
        now = time.perf_counter()
        u.gaps.append(now - last)
        last = now
        u.events += len(h.events)
        nviol = sum(len(s.violations) for s in report.suites.values())
        open_abs = sum(1 for e in h.events if e.kind == ABS and e.end == INF)
        errors, seen_errors = len(worker_errors) - seen_errors, len(worker_errors)
        u.failed += bool(nviol or open_abs or errors)

    t0 = last = time.perf_counter()
    summary = lib.stress(cfg, per_run=per_run)
    u.wall = time.perf_counter() - t0
    u.attempted = summary.runs
    u.verdict = {"runs": summary.runs, "violations": summary.violations}
    return u


def known_verdict(name, seed, k, known) -> dict:
    """The recorded verdict where one exists (unit 0 of the default seed,
    or of any seed where the seed does not change the inputs); else a
    clean one."""
    if name in known and k == 0 and (name not in workloads.SEEDED
                                     or seed == workloads.DEFAULT_SEED):
        return known[name]
    if name == "stress-soak":
        return {"runs": workloads.STRESS_RUNS, "violations": 0}
    return {"schedules": workloads.attempts(name), "violations": 0, "lin_failures": 0,
            "oracle_mismatches": 0, "oracle_skipped": 0}


def run_unit(name, seed, k, known, worker_errors, lib=snaplab, trace_spans=None) -> Unit:
    """Run unit ``k`` untraced with ``lib``, or traced into ``trace_spans``,
    and gate it."""
    cfg = workloads.build(lib, name, seed, k)
    try:
        if trace_spans is None:
            u = (stress_unit(lib, cfg, worker_errors) if name == "stress-soak"
                 else explore_unit(lib, cfg))
        else:
            u = Unit()
            t0 = time.perf_counter()
            if name == "stress-soak":
                u.attempted, u.failed = traced.stress_unit(cfg, trace_spans, worker_errors)
                u.verdict = {"runs": u.attempted,
                             "violations": int(trace_spans["checker.violations"])}
            else:
                u.verdict, u.failed = traced.explore_unit(cfg, trace_spans)
                u.attempted = u.verdict["schedules"]
            u.wall = time.perf_counter() - t0
    except Exception:  # a crashed unit is a counted failure, not a lost run
        u = Unit()
        u.attempted = u.failed = 1
        u.problems.append(traceback.format_exc())
        return u
    mismatches = [f"{key}={u.verdict.get(key)!r}, known {want!r}"
                  for key, want in known_verdict(name, seed, k, known).items()
                  if u.verdict.get(key) != want]
    if mismatches:
        u.failed += 1
        u.problems.append(f"unit {k}: verdict differs from the known answer: "
                          + "; ".join(mismatches))
    return u


def negative_control() -> None:
    """Abort unless the checker still rejects the naive (0,3) schedule."""
    cfg = workloads.naive_control(snaplab)
    caught = []

    def per_result(res):
        if res.schedule == workloads.NAIVE_03_SCHEDULE:
            caught.append(isinstance(res.oracle, NotLinearizable))

    summary = explore(cfg, per_result=per_result)
    if summary.schedules != 12 or summary.violations < 1 or caught != [True]:
        sys.exit(f"perfbench: negative control failed: {summary.schedules} schedules, "
                 f"{summary.violations} S violations, (0,3) schedule refuted {caught}; "
                 "the checker has lost its teeth, so no numbers are posted")


def _setup_probe(package, name, seed) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, HERE, package, name, str(seed)],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def setup_pairs(name, seed, count) -> list:
    """(program, baseline) set-up times, each timed in a fresh interpreter:
    import plus config and script construction."""
    pairs = []
    for i in range(count):
        order = ("snaplab", "snaplab_baseline")[::1 if i % 2 == 0 else -1]
        t = {p: _setup_probe(p, name, seed) for p in order}
        pairs.append((t["snaplab"], t["snaplab_baseline"]))
    return pairs


def peak_rss_mb(name, seed) -> float:
    """Peak resident memory of a fresh interpreter that runs unit 0."""
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, SRC, HERE, name, str(seed)],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _measure(seconds, run) -> None:
    """Call ``run(k)`` for k = 0, 1, ... while another call still fits in
    ``seconds``; the first call is always made."""
    t_start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run(len(durations))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(durations) > seconds:
            return


def end_to_end(name, seed, unit_pairs, setup, reference) -> dict:
    """Program time over baseline time, per pair; the medians of those
    ratios scale the baseline's times on the reference machine.  The event
    rate is a throughput over the whole run, so it takes the ratio of the
    two sides' rates over all timed pairs."""
    ref = reference[name]
    timed = unit_pairs[1:]  # the first pair warmed up

    def rate(units):
        units = list(units)
        return sum(u.events for u in units) / sum(u.wall for u in units)

    verdict = statistics.median(p.wall / b.wall for p, b in timed)
    rate_ratio = rate(p for p, _ in timed) / rate(b for _, b in timed)
    print(f"perfbench: raw medians: verdict_s program "
          f"{statistics.median(p.wall for p, _ in timed):.4f} baseline "
          f"{statistics.median(b.wall for _, b in timed):.4f}; setup_s program "
          f"{statistics.median(p for p, _ in setup):.4f} baseline "
          f"{statistics.median(b for _, b in setup):.4f}; checked_events_per_s baseline "
          f"{rate(b for _, b in timed):.1f}; "
          f"pairs={len(timed)}")
    return {
        "verdict_s": verdict * ref["verdict_s"],
        "setup_s": statistics.median(p / b for p, b in setup) * ref["setup_s"],
        "checked_events_per_s": ref["checked_events_per_s"] * rate_ratio,
        "peak_rss_mb": peak_rss_mb(name, seed),
    }


def per_layer(spans_per_unit, plain, traced_units) -> dict:
    n = len(spans_per_unit)
    out = defaultdict(float)
    for spans in spans_per_unit:
        for key, value in spans.items():
            if key in MAXIMA:
                out[key] = max(out[key], value)
            else:
                out[key] += value / n
    wall = sum(u.wall for u in traced_units) / n
    layers = sum(v for k, v in out.items()
                 if k.endswith("_s") and not k.startswith("trace."))
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - sum(u.wall for u in plain) / n
    out["trace.unattributed_s"] = wall - layers - out["trace.counters_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "verdicts.json")) as f:
        known = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)

    worker_errors = []
    default_hook = threading.excepthook

    def hook(exc_args):
        worker_errors.append(exc_args.exc_type.__name__)
        default_hook(exc_args)

    threading.excepthook = hook

    negative_control()
    name, seed = args.workload, args.seed
    if args.trace:
        spans_per_unit, plain, traced_units = [], [], []

        def pair(k):
            plain.append(run_unit(name, seed, k, known, worker_errors))
            spans_per_unit.append(defaultdict(float))
            traced_units.append(run_unit(name, seed, k, known, worker_errors,
                                         trace_spans=spans_per_unit[-1]))

        _measure(args.seconds, pair)
        units = plain + traced_units
        values = per_layer(spans_per_unit, plain, traced_units)
        wanted = declared["per_layer"]
    else:
        unit_pairs = []

        def pair(k):
            # Alternate which side runs first, so neither always runs warm.
            libs = (snaplab, snaplab_baseline)[::1 if k % 2 == 0 else -1]
            done = {lib: run_unit(name, seed, k, known, worker_errors, lib) for lib in libs}
            if done[snaplab_baseline].failed:
                sys.exit("perfbench: the frozen baseline failed unit "
                         f"{k}: {done[snaplab_baseline].problems}; no numbers are posted")
            unit_pairs.append((done[snaplab], done[snaplab_baseline]))

        setup = setup_pairs(name, seed, SETUP_PAIRS // 2)
        pair(0)  # warm-up, gated but not timed
        _measure(args.seconds, lambda k: pair(k + 1))
        setup += setup_pairs(name, seed, SETUP_PAIRS - SETUP_PAIRS // 2)
        units = [p for p, _ in unit_pairs]
        values = end_to_end(name, seed, unit_pairs, setup, reference)
        wanted = declared["end_to_end"]

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for u in units:
        for problem in u.problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    gaps_ms = sorted(g * 1000 for u in units for g in u.gaps)
    print(f"perfbench: {name} seed={seed} trace={args.trace} units={len(units)} "
          f"attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.6f}")
    print(f"perfbench: first verdict {json.dumps(units[0].verdict, sort_keys=True)}")
    # Printed, not gated: p99 needs 1,000 samples, which the long-history
    # workloads never reach, and p50 jumps between the modes of the
    # per-schedule times of the sweeps (README.md).
    p99 = (f"{statistics.quantiles(gaps_ms, n=100)[98]:.4f}" if len(gaps_ms) >= 1000
           else "not reported (fewer than 1,000 samples)")
    print(f"perfbench: per-{'run' if name == 'stress-soak' else 'schedule'} "
          f"samples={len(gaps_ms)} verdict_ms_p50={statistics.median(gaps_ms):.4f} "
          f"verdict_ms_p99={p99}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
