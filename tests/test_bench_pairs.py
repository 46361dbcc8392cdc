"""The verdict ``scripts/bench_pairs.py --claim`` records for a claimed gain."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_pairs import claim_verdict, parse_claim  # noqa: E402


def _summary(parent: list, change: list, seed_2: tuple, better: str = "lower") -> dict:
    """A workload summary of ``verdict_s`` as ``summarize`` writes it."""
    def median(xs):
        xs = sorted(xs)
        return (xs[(len(xs) - 1) // 2] + xs[len(xs) // 2]) / 2

    q = sorted(parent)
    wins = sum((n < p) if better == "lower" else (n > p) for p, n in zip(parent, change))
    return {"verdict_s": {"better": better, "pairs": len(parent), "change_wins": wins,
                          "parent_median": median(parent), "change_median": median(change),
                          "parent_iqr": q[7] - q[2]},
            "seed_2": {"parent": {"verdict_s": seed_2[0]}, "new": {"verdict_s": seed_2[1]}}}


PARENT = [0.46, 0.45, 0.47, 0.46, 0.44, 0.46, 0.45, 0.47, 0.46, 0.45]


def test_a_clear_gain_is_shown():
    s = _summary(PARENT, [x - 0.03 for x in PARENT], (0.46, 0.43))
    got = claim_verdict(s, "verdict_s")
    assert got["verdict"] == "gain shown" and got["change_wins"] == 10 and got["seed_2_agrees"]


@pytest.mark.parametrize("change, seed_2, why", [
    ([x - 0.03 for x in PARENT[:8]] + PARENT[8:], (0.46, 0.43), "wins only 8 of 10 pairs"),
    ([x - 0.005 for x in PARENT], (0.46, 0.43), "gap within the parent's IQR"),
    ([x - 0.03 for x in PARENT], (0.43, 0.46), "seed 2 goes the other way"),
])
def test_a_gain_is_not_shown(change, seed_2, why):
    assert claim_verdict(_summary(PARENT, change, seed_2), "verdict_s")["verdict"] == \
        "gain not shown", why


def test_a_claim_names_a_workload_and_a_metric():
    assert parse_claim("alg2-dfs/verdict_s") == ("alg2-dfs", "verdict_s")
    for bad in ("alg2-dfs", "alg2-dfs/wall", "nope/verdict_s"):
        with pytest.raises(SystemExit, match="bad claim"):
            parse_claim(bad)
