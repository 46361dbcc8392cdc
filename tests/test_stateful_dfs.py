"""The stateful DFS against replay from scratch.

``iter_sims`` runs the DFS modes on one SimRun that it checkpoints at
branch points and restores to backtrack.  ``_replay_dfs`` below is the
enumerator it replaced: it builds a new SimRun per schedule and replays
the whole prefix.  Both must give the same schedules in the same order,
the same histories byte for byte (``max_steps`` is read off them), and a
history kept from an earlier schedule must not change when the DFS
backtracks through it.
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from snaplab import ALGORITHMS, ExploreConfig, OpScript, SimRun, explore
from snaplab.algorithms import R
from snaplab.harness import DfsBounded, Exhaustive, RandomWalks, iter_sims

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from sweep import SWEEPS, sweep_config  # noqa: E402

# a prefix of every standard sweep, or all of it where it is small
PREFIX = 2_000


def _replay_dfs(cfg, limit):
    """Depth-first enumeration that replays every schedule from a new
    SimRun: the reference for the stateful DFS."""
    frames = []  # [choices, index]
    count = 0
    while True:
        sim = SimRun(cfg.algorithm, cfg.n, cfg.script)
        for choices, i in frames:
            sim.step(choices[i])
        while True:
            en = sim.enabled()
            if not en:
                break
            frames.append([en, 0])
            sim.step(en[0])
        yield sim
        count += 1
        if count >= limit:
            return
        while frames and frames[-1][1] + 1 >= len(frames[-1][0]):
            frames.pop()
        if not frames:
            return
        frames[-1][1] += 1


def _plain_json(h) -> str:
    """The history's JSON without its cached per-event fragments."""
    return json.dumps(h.to_obj(), separators=(",", ":"))


def _assert_same_as_replay(cfg, limit):
    """Run both enumerators over ``cfg`` for up to ``limit`` schedules and
    compare them; returns the number of schedules."""
    cfg = replace(cfg, mode=DfsBounded(limit))
    kept = []
    replayed = _replay_dfs(cfg, limit)
    for sim in iter_sims(cfg):
        ref = next(replayed)
        assert sim.schedule == ref.schedule
        h = sim.history()
        text = ref.history().to_json()
        assert h.to_json() == text, sim.schedule
        kept.append((h, text))
    assert next(replayed, None) is None
    for h, text in kept:  # nothing the DFS did later changed them
        assert _plain_json(h) == text
        assert h.to_json() == text
    return len(kept)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_stateful_dfs_equals_replay(name):
    count = _assert_same_as_replay(sweep_config(name), PREFIX)
    assert count == (12 if name == "naive" else PREFIX)


# Which scripts each algorithm accepts (``AlgorithmDef.validate``).
SINGLE_SCANNER = {"jayanti1", "jayanti2"}
SINGLE_WRITER_PER_CELL = {"jayanti1", "afek"}


@st.composite
def small_configs(draw):
    """A small script that the drawn algorithm accepts: a drawn op that
    breaks its constraints becomes a scan, or is dropped."""
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)))
    n = draw(st.integers(1, 2))
    scanner = None
    owner = {}  # cell -> the thread that writes it
    threads = []
    for k in range(draw(st.integers(1, 3))):
        ops = []
        for _ in range(draw(st.integers(1, 2))):
            cell = draw(st.integers(-1, n - 1))  # -1: a scan
            if cell >= 0 and algorithm in SINGLE_WRITER_PER_CELL \
                    and owner.setdefault(cell, k) != k:
                cell = -1
            if cell < 0:
                if algorithm in SINGLE_SCANNER and scanner not in (None, k):
                    continue
                scanner = k
                ops.append(("scan",))
            else:
                ops.append(("write", cell, draw(st.integers(1, 9))))
        threads.append(ops)
    script = OpScript.from_lists(threads)
    ALGORITHMS[algorithm].validate(script, n)
    return ExploreConfig(algorithm, n, script, Exhaustive())


@given(small_configs())
def test_stateful_dfs_equals_replay_on_random_scripts(cfg):
    _assert_same_as_replay(cfg, 150)


def test_steps_executed_counts_tree_edges():
    """dfs:1000 of the alg2 unit script runs 3,898 register steps, one per
    edge of its schedule tree; replaying each prefix ran 15,713."""
    cfg = sweep_config("alg2", DfsBounded(1_000))
    assert explore(cfg).steps_executed == 3_898
    replayed = sum(len(sim.schedule) for sim in _replay_dfs(cfg, 1_000))
    assert replayed == 15_713


def test_steps_executed_outside_dfs_is_the_schedule_lengths():
    cfg = sweep_config("alg3", RandomWalks(20260808, 20))
    total = sum(len(sim.schedule) for sim in iter_sims(cfg))
    assert explore(cfg).steps_executed == total


def _one_collect_scan(bank, n, pid):
    """afek's scan cut to one double collect: on a change it returns the
    changed cell's embedded view, without the double-move rule."""
    a = [None] * n
    b = [None] * n
    for i in range(n):
        a[i] = yield (R, bank.A[i], None, f"a[{i}]@1")
    for i in range(n):
        b[i] = yield (R, bank.A[i], None, f"b[{i}]@1")
    for i in range(n):
        if a[i][1] != b[i][1]:
            return list(b[i][2])
    return [x[0] for x in b]


@pytest.mark.parametrize("lin", [False, True], ids=["F,S", "F,S+linearizer"])
def test_underivable_virtual_scans_are_counted_failures(monkeypatch, lin):
    """Where the virtual scans cannot be derived, explore() counts the
    schedule as failed (H.corrupt from F and S, a CorruptHistory
    linearizer error) instead of raising."""
    monkeypatch.setitem(ALGORITHMS, "afek-one-collect",
                        replace(ALGORITHMS["afek"], name="afek-one-collect",
                                scanner=_one_collect_scan))
    cfg = sweep_config("afek", algorithm="afek-one-collect", suites=("F", "S"),
                       linearize=lin, oracle=False)
    summary = explore(cfg)
    assert summary.failed > 0 and summary.passed > 0
    assert summary.lin_failures == (summary.failed if lin else 0)
    failure = summary.failing[0]
    assert {v.axiom for s in failure.report.suites.values() for v in s.violations} == \
        {"H.corrupt"}
    assert set(failure.report.suites) == {"F", "S"}
    if lin:
        assert failure.lin_error.startswith("CorruptHistory: ")
    else:
        assert failure.lin_error is None
