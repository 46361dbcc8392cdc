#!/usr/bin/env python3
"""The standard schedule sweeps, and a runner that prints a one-line
verdict for one of them.

``SWEEPS`` is the one registry of the sweeps: criteria 3 (alg1), 4
(alg2), 5 (alg3) and 6 (afek) of ``tests/test_acceptance.py``, and the
naive control.  ``scripts/report_stream.py`` and the acceptance tests
build their configs from it through ``sweep_config``.

Usage: python scripts/sweep.py [alg1|alg2|alg3|afek|naive] [--fast]
"""
import sys
import time
from dataclasses import replace

from snaplab import ExploreConfig, Exhaustive, OpScript, explore
from snaplab.harness import DfsBounded, RandomWalks

SWEEPS = {
    "alg1": ("jayanti1", 2, [[("write", 0, 2)], [("write", 1, 4)], [("scan",)]],
             Exhaustive(300_000), ("F", "S", "CHAIN")),
    "alg2": ("jayanti2", 1, [[("write", 0, 2)], [("write", 0, 3)], [("scan",)]],
             DfsBounded(200_000), ("M", "M+", "L", "F+", "F", "S", "CHAIN")),
    "alg3": ("jayanti3", 1, [[("write", 0, 2)], [("scan",)], [("scan",)]],
             RandomWalks(20260808, 10_000), ("M", "M+", "L", "F+", "F", "S", "CHAIN")),
    "afek": ("afek", 2, [[("write", 0, 1), ("write", 0, 2)], [("scan",)]],
             Exhaustive(300_000), ("F", "S", "CHAIN")),
    "naive": ("naive", 2, [[("scan",)], [("write", 0, 2)], [("write", 1, 3)]],
              Exhaustive(300_000), ("S",)),
}

FAST = {"alg2": DfsBounded(10_000), "alg3": RandomWalks(20260808, 500)}


def sweep_config(name: str, mode=None, **overrides) -> ExploreConfig:
    """Sweep ``name`` with the linearizer and the oracle on, run in ``mode``
    instead of its own if one is given; ``overrides`` replace any other
    ExploreConfig fields."""
    algorithm, n, threads, own_mode, suites = SWEEPS[name]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(threads), mode or own_mode,
                        suites=suites, linearize=True, oracle=True)
    return replace(cfg, **overrides)


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "alg1"
    cfg = sweep_config(name, FAST.get(name) if "--fast" in sys.argv else None)
    t0 = time.perf_counter()
    summary = explore(cfg)
    dt = time.perf_counter() - t0
    print(f"{name}: {summary.schedules} schedules in {dt:.1f}s; "
          f"violations={summary.violations} lin_failures={summary.lin_failures} "
          f"oracle_mismatches={summary.oracle_mismatches}; "
          f"distinct_snapshot_keys={summary.distinct_snapshot_keys} "
          f"distinct_register_keys={summary.distinct_register_keys} "
          f"steps_executed={summary.steps_executed}")
    if name == "naive":
        print("  (the naive sweep is the negative control: failures expected)")
        return 0
    return 0 if summary.clean else 1


if __name__ == "__main__":
    sys.exit(main())
