#!/usr/bin/env python3
"""Real-thread soak: repeatedly run a random script on OS threads and check
the recorded histories against the snapshot axioms.

Usage: python scripts/stress_soak.py [--alg jayanti3] [--threads 4]
       [--ops 200] [--runs 100] [--n 2] [--seed 8]
"""
import argparse
import time

from snaplab import StressConfig, random_script, stress


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--alg", default="jayanti3")
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--ops", type=int, default=200)
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--seed", type=int, default=8)
    args = ap.parse_args()
    script = random_script(args.n, args.threads, args.ops, seed=args.seed)
    t0 = time.perf_counter()
    done = 0

    def tick(h, d, report):
        nonlocal done
        done += 1
        if done % 10 == 0:
            print(f"  run {done}: {len(h.events)} events, "
                  f"{'ok' if report.passed else 'VIOLATIONS'}")

    summary = stress(StressConfig(args.alg, args.n, script, runs=args.runs,
                                  suites=("RB", "S")), per_run=tick)
    print(f"{summary.runs} runs in {time.perf_counter() - t0:.1f}s, "
          f"{summary.violations} violations, {summary.worker_errors} worker errors")
    for report in summary.failing:
        for v in report.all_violations()[:10]:
            print(" ", v.render())
    return 0 if summary.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
