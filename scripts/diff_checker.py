#!/usr/bin/env python3
"""Differential check: the suites against the frozen baseline checker.

Simulates one random schedule per history, mutates each history one to
three times (drop, add or reverse an rf/ll edge, or flip an SC/VL
outcome), and runs M, M+, L, F+, F and S over it with both ``snaplab``
and ``perfbench/snaplab_baseline``.  Reports must be equal, violation
order included, or both runs must raise the same exception type, with
the one exception that ``agree`` names.  Prints one JSON line per
mismatching history, then the number of histories whose verdicts agree
and how many violations of each axiom fired, then how many of the
agreeing histories were chained (``EventIndex.chained``: their rep-level
closure is a ``ChainClosure``, which answers by position) and how many
violations of each axiom fired on those.

Usage: python scripts/diff_checker.py [--alg jayanti3] [--ops 40]
       [--count 2000] [--seed 1]

Exits 1 if any history mismatches.
"""
import argparse
import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import snaplab  # noqa: E402
import snaplab_baseline  # noqa: E402  (read-only: the frozen yardstick)
from snaplab import ALGORITHMS, REP, OpScript, ScriptError, random_script  # noqa: E402
from snaplab.harness import ExploreConfig, RandomWalks, iter_sims  # noqa: E402

SUITES = ("M", "M+", "L", "F+", "F", "S")
N = 2  # cells


def verdict(lib, text: str, suites=SUITES):
    """The report of ``lib`` on the history ``text`` without its wall time,
    or the name of the exception type it raised."""
    h = lib.History.from_json(text)
    try:
        report = lib.run_checks(lib.derive(h), suites).to_obj()
    except Exception as exc:  # the baseline's exception type is the answer
        return type(exc).__name__
    del report["stats"]["wall_s"]
    return report


def agree(ours, theirs, text: str) -> bool:
    """Whether snaplab's verdict ``ours`` on ``text`` agrees with the
    baseline's ``theirs``: they are equal, or ``text`` is a jayanti3
    history with a phase-1 or phase-2 commit SC that has no ll edge.  The
    baseline's virtual-scan extraction raises KeyError on it, where
    snaplab reports H.corrupt in F+, F and S; M, M+ and L must still equal
    the baseline's report over those three suites."""
    if ours == theirs:
        return True
    if theirs != "KeyError" or not isinstance(ours, dict):
        return False
    got = ours["suites"]
    if not all(name in got and any(v["axiom"] == "H.corrupt" for v in got[name]["violations"])
               for name in ("F+", "F", "S")):
        return False
    base = verdict(snaplab_baseline, text, ("M", "M+", "L"))
    return isinstance(base, dict) and \
        base["suites"] == {name: got[name] for name in ("M", "M+", "L")}


def mutate(text: str, rng: random.Random) -> str:
    """Drop, add or reverse one rf/ll edge, or flip one SC/VL outcome."""
    obj = json.loads(text)
    reps = [e for e in obj["events"] if e["kind"] == REP]
    edges = obj[rng.choice(("rf", "ll"))]
    kind = rng.choice(("drop", "add", "reverse", "flip"))
    if kind == "drop" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == "reverse" and edges:
        k = rng.randrange(len(edges))
        edges[k] = edges[k][::-1]
    elif kind == "add":
        a = rng.choice(reps)
        b = rng.choice([e for e in reps if e["object"] == a["object"]])
        edges.append([a["id"], b["id"]])
    elif kind == "flip":
        conds = [e for e in reps if e["op"].endswith((".sc", ".vl")) and e["end"] != "inf"]
        if conds:
            c = rng.choice(conds)
            c["output"] = not c["output"]
    return json.dumps(obj)


def mutants(alg: str, ops: int, count: int, seed: int):
    """``count`` mutated histories, each from its own random schedule of a
    two-cell script with ``ops`` operations per thread: two threads that
    both write and scan where ``alg`` allows it, else one scanner and one
    writer per cell."""
    rng = random.Random(seed)
    for k in range(count):
        s = seed * 100_000 + k
        script = random_script(N, 2, ops, s)
        try:
            ALGORITHMS[alg].validate(script, N)
        except ScriptError:
            vals = random.Random(s)
            script = OpScript.from_lists(
                [[("scan",)] * ops] +
                [[("write", i, vals.randrange(1, 100)) for _ in range(ops)] for i in range(N)])
        sim = next(iter_sims(ExploreConfig(alg, N, script, RandomWalks(s, 1))))
        text = sim.history().to_json()
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        yield text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--alg", default="jayanti3", choices=sorted(ALGORITHMS))
    ap.add_argument("--ops", type=int, default=40, help="operations per thread")
    ap.add_argument("--count", type=int, default=2000, help="mutated histories")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    fired: Counter = Counter()
    fired_chained: Counter = Counter()
    outcomes: Counter = Counter()
    mismatches = chained = 0
    for text in mutants(args.alg, args.ops, args.count, args.seed):
        ours = verdict(snaplab, text)
        theirs = verdict(snaplab_baseline, text)
        if not agree(ours, theirs, text):
            mismatches += 1
            print(json.dumps({"history": json.loads(text), "snaplab": ours,
                              "baseline": theirs}))
            continue
        is_chained = snaplab.derive(snaplab.History.from_json(text)).idx.chained
        chained += is_chained
        if isinstance(ours, str):
            outcomes[f"raised {ours}"] += 1
            continue
        outcomes["failed" if any(not s["pass"] for s in ours["suites"].values())
                 else "passed"] += 1
        axioms = [v["axiom"] for s in ours["suites"].values() for v in s["violations"]]
        fired.update(axioms)
        if is_chained:
            fired_chained.update(axioms)
    print(f"{args.count - mismatches}/{args.count} agree ({args.alg}, {args.ops} ops per "
          f"thread, seed {args.seed}): " +
          ", ".join(f"{n} {k}" for k, n in sorted(outcomes.items())))
    for axiom, n in sorted(fired.items()):
        print(f"  {axiom:18} {n}")
    print(f"{chained} of the {args.count - mismatches} agreeing histories chained; fired on those:")
    for axiom, n in sorted(fired_chained.items()):
        print(f"  {axiom:18} {n}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
