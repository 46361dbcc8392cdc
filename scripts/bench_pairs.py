#!/usr/bin/env python3
"""Alternating perfbench pairs: a parent revision against the working tree.

Exports PARENT_REV into a temporary directory (``git archive``, so the
repository gains no worktree to prune), then runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

in that copy ("parent") and in the working tree ("new"), one after the
other and never at once, alternating which side runs first: ten pairs per
workload at seed 1, then one pair at seed 2, for every workload.  Writes
``BENCH_<pr>.json``: every run's result line under ``runs``, and per
workload and metric the medians, the parent's interquartile range, how
many pairs the change won and a verdict against the metric's ``bound`` in
BENCHMARK.json under ``summary``, and prints that verdict one line per
workload and metric:

- ``within bound``: the change's median is not worse than the parent's
  by more than the bound (a fraction of the parent's median);
- ``worse than bound``: it is;
- ``unresolved``: the parent's interquartile range is wider than the
  bound, so the runs cannot tell, unless every run of the change reads
  better than every run of the parent.

Per workload and side it also records and prints the failed share: the
failed operations over the attempted ones, summed over the result
lines.  A faster side attempts more operations, so the share, not the
count, compares the two.

``--claim WORKLOAD/METRIC`` names the gain the change claims.  Its
verdict, recorded under ``claim`` and printed last, is ``gain shown``
when the change wins at least nine tenths of the seed-1 pairs (ties
count for neither), its median is better than the parent's by more than
the parent's interquartile range, and the seed-2 pair goes the same way;
otherwise ``gain not shown``.

Usage: python scripts/bench_pairs.py PARENT_REV --pr N [--claim WORKLOAD/METRIC]
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import NAMES  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCH["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
PAIRS = 10     # per workload at seed 1
SECONDS = 30   # perfbench --seconds per run


def export(rev: str, into: str) -> str:
    """The files of ``rev``, unpacked under ``into``; returns its full hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", full], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into, filter="data")
    return full


def run(where: str, workload: str, seed: int) -> dict:
    """perfbench's result line for one run in the checkout ``where``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=where, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no result line from {where} ({workload}, seed "
                         f"{seed}), exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _iqr(xs: list) -> float:
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def against_bound(better: str, par: list, new: list, bound: float) -> str:
    """The verdict of the change's runs ``new`` against the parent's ``par``
    on ``bound``, a fraction of the parent's median."""
    def cost(x):  # lower is better
        return x if better == "lower" else -x

    pm = statistics.median(par)
    if _iqr(par) > bound * pm and not max(map(cost, new)) < min(map(cost, par)):
        return "unresolved"
    worse = (cost(statistics.median(new)) - cost(pm)) / pm
    return "worse than bound" if worse > bound else "within bound"


def claim_verdict(summary: dict, metric: str) -> dict:
    """The verdict on a claimed gain in ``metric``, from its workload's
    ``summary``: see the module docstring."""
    s = summary[metric]
    gap = s["parent_median"] - s["change_median"]
    if s["better"] == "higher":
        gap = -gap
    seed_2 = summary["seed_2"]
    if set(seed_2) == {"parent", "new"}:
        p2, n2 = seed_2["parent"][metric], seed_2["new"][metric]
        seed_2_agrees = n2 < p2 if s["better"] == "lower" else n2 > p2
    else:
        seed_2_agrees = False  # no seed-2 pair was run
    wins_enough = s["change_wins"] >= 0.9 * s["pairs"]
    shown = wins_enough and gap > s["parent_iqr"] and seed_2_agrees
    return {"change_wins": s["change_wins"], "pairs": s["pairs"],
            "median_gain": round(gap, 6), "parent_iqr": s["parent_iqr"],
            "seed_2_agrees": seed_2_agrees,
            "verdict": "gain shown" if shown else "gain not shown"}


def parse_claim(text: str) -> tuple[str, str]:
    """``WORKLOAD/METRIC`` as a pair; SystemExit unless both are known."""
    workload, _, metric = text.partition("/")
    if workload not in NAMES or metric not in BETTER:
        raise SystemExit(f"bench_pairs: bad claim {text!r}: want WORKLOAD/METRIC with "
                         f"WORKLOAD in {', '.join(NAMES)} and METRIC in {', '.join(BETTER)}")
    return workload, metric


def summarize(runs: list, workload: str) -> dict:
    mine = [r for r in runs if r["workload"] == workload]
    value = {(r["seed"], r["pair"], r["side"]): r["result"] for r in mine}
    pairs = sorted({r["pair"] for r in mine if r["seed"] == 1})
    out = {}
    for metric, better in BETTER.items():
        par = [value[1, k, "parent"]["metrics"][metric]["value"] for k in pairs]
        new = [value[1, k, "new"]["metrics"][metric]["value"] for k in pairs]
        pm, nm = statistics.median(par), statistics.median(new)
        out[metric] = {
            "better": better, "pairs": len(pairs),
            "bound": BOUND[metric], "verdict": against_bound(better, par, new, BOUND[metric]),
            "change_wins": sum((n < p) if better == "lower" else (n > p)
                               for p, n in zip(par, new)),
            "parent_median": round(pm, 6), "change_median": round(nm, 6),
            "change_vs_parent": round(nm / pm - 1, 4), "parent_iqr": round(_iqr(par), 6),
            "parent_runs": [round(x, 6) for x in par], "change_runs": [round(x, 6) for x in new]}
    out["seed_2"] = {side: {m: round(value[2, 1, side]["metrics"][m]["value"], 6)
                            for m in BETTER}
                     for side in ("parent", "new") if (2, 1, side) in value}
    out["failed"] = {}
    for side in ("parent", "new"):
        failed = sum(r["result"]["failed"] for r in mine if r["side"] == side)
        attempted = sum(r["result"]["attempted"] for r in mine if r["side"] == side)
        out["failed"][side] = {"failed": failed, "attempted": attempted,
                               "share": round(failed / max(attempted, 1), 6)}
    out["correct"] = all(r["result"]["correct"] for r in mine)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_REV")
    ap.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="the end-to-end metric the change claims to improve on a workload")
    args = ap.parse_args()
    claim = parse_claim(args.claim) if args.claim else None
    out_path = ROOT / f"BENCH_{args.pr}.json"
    runs: list = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = export(args.parent, tmp)
        sides = {"parent": tmp, "new": str(ROOT)}
        for workload in NAMES:
            plan = [(1, k) for k in range(1, PAIRS + 1)] + [(2, 1)]
            for seed, k in plan:
                order = ("parent", "new") if k % 2 else ("new", "parent")
                for side in order:
                    result = run(sides[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "pair": k,
                                 "side": side, "result": result})
                    print(f"{workload} seed {seed} pair {k} {side}: "
                          + " ".join(f"{m}={v['value']:.4g}"
                                     for m, v in result["metrics"].items()), flush=True)
    doc = {
        "what": "perfbench result lines of the parent commit and of this change, "
                "alternating which runs first in each pair",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   "--trace 0",
        "made_by": "python3 scripts/bench_pairs.py " + " ".join(sys.argv[1:]),
        "parent": parent[:7],
        "host": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}; "
                "parent and change run one after the other, never at once",
        "claim": None,
        "summary": {w: summarize(runs, w) for w in NAMES},
        "runs": runs,
    }
    if claim is not None:
        workload, metric = claim
        doc["claim"] = {"workload": workload, "metric": metric,
                        **claim_verdict(doc["summary"][workload], metric)}
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for w in NAMES:
        for metric in BETTER:
            s = doc["summary"][w][metric]
            print(f"{w} {metric}: {s['parent_median']} -> {s['change_median']} "
                  f"({s['change_vs_parent']:+.1%}, {s['change_wins']}/{s['pairs']} pairs, "
                  f"parent IQR {s['parent_iqr']}), bound {s['bound']:.0%}: {s['verdict']}")
        print(f"{w} failed share: " + ", ".join(
            f"{side} {f['failed']}/{f['attempted']} = {f['share']:.6f}"
            for side, f in doc["summary"][w]["failed"].items()))
    if claim is not None:
        c = doc["claim"]
        print(f"claim {c['workload']}/{c['metric']}: {c['verdict']} ({c['change_wins']}/"
              f"{c['pairs']} pairs won, median gain {c['median_gain']} against parent IQR "
              f"{c['parent_iqr']}, seed 2 {'agrees' if c['seed_2_agrees'] else 'does not agree'})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
