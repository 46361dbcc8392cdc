#!/usr/bin/env python3
"""Print one sha256 per standard sweep over everything the checker reports.

Each sweep runs with every suite (inapplicable ones are dropped), the
linearizer, the oracle and the history/linearization stream hash.  The
digest covers, per schedule, the ``CheckReport.to_obj()`` without its
``wall_s`` and the ``sc``, ``rf-abs``, ``hb1`` and ``hb`` edge sets, then
the summary fields, including the stream hash and the failure records.
Two checkouts that print the same lines report the same things.

Sweeps: criteria 3 (alg1) and 6 (afek) in full, prefixes of criteria 4
(alg2, the first 20,000 DFS schedules) and 5 (alg3, 2,000 random walks),
and the naive control: about a minute on one core of a 2-vCPU machine.
``--quick`` takes a shorter prefix of every sweep instead (about 12 s).

Usage: python scripts/report_stream.py [--quick]
"""
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from snaplab import explore  # noqa: E402
from snaplab.checker import SUITES  # noqa: E402
from snaplab.harness import DfsBounded, RandomWalks  # noqa: E402
from sweep import sweep_config  # noqa: E402

EDGES = ("sc", "rf-abs", "hb1", "hb")
FULL = {"alg1": None, "afek": None, "alg2": DfsBounded(20_000),
        "alg3": RandomWalks(20260808, 2_000), "naive": None}
QUICK = {"alg1": DfsBounded(4_000), "afek": DfsBounded(2_000), "alg2": DfsBounded(3_000),
         "alg3": RandomWalks(20260808, 300), "naive": None}
SUMMARY = ("schedules", "passed", "failed", "violations", "lin_failures",
           "oracle_mismatches", "oracle_skipped", "max_steps", "stream_sha256",
           "complete", "afek_view_returns", "max_ec")


def _report(report) -> dict:
    obj = report.to_obj()
    obj["stats"] = {k: v for k, v in obj["stats"].items() if k != "wall_s"}
    return obj


def _line(hasher, obj) -> None:
    hasher.update(json.dumps(obj, sort_keys=True).encode() + b"\n")


def sweep_hash(name: str, mode) -> tuple[int, str]:
    cfg = sweep_config(name, mode, suites=SUITES, hash_stream=True)
    hasher = hashlib.sha256()

    def per_result(res):
        _line(hasher, _report(res.report))
        for label in EDGES:
            _line(hasher, res.derived.edge_set(label))

    summary = explore(cfg, per_result=per_result, keep_failing=10)
    _line(hasher, {k: getattr(summary, k) for k in SUMMARY})
    _line(hasher, [[list(f.schedule), _report(f.report), f.lin_error]
                   for f in summary.failing])
    return summary.schedules, hasher.hexdigest()


def main() -> int:
    modes = QUICK if "--quick" in sys.argv[1:] else FULL
    for name, mode in modes.items():
        t0 = time.perf_counter()
        schedules, digest = sweep_hash(name, mode)
        print(f"{name} {schedules} {digest}  ({time.perf_counter() - t0:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
