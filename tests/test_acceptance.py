"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy sweeps are computed once at module scope and shared between the
criteria that reference them (the LL/SC lemma criterion re-uses the
algorithm-2 and algorithm-3 sweeps; the determinism criterion re-runs
each flow hashing only the emitted history/linearization stream).

The sweeps of criteria 3-6 are ``scripts/sweep.py``'s registry entries;
the criteria assert their schedule counts, so an edit to the registry
cannot quietly shrink them.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from corruptions import ALL as CORRUPTIONS
from snaplab import ExploreConfig, NotLinearizable, StressConfig, brute_force_linearize, \
    derive, explore, linearize, random_script, repro, run_checks, stress
from snaplab.linearize import SizeGuard

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from sweep import sweep_config  # noqa: E402

_cache: dict = {}


def _sweep(name):
    """((config, summary), seconds) of the standard sweep ``name``, with
    the stream hash on; run once and shared between criteria."""
    if name not in _cache:
        t0 = time.perf_counter()
        cfg = sweep_config(name, hash_stream=True)
        _cache[name] = ((cfg, explore(cfg)), time.perf_counter() - t0)
    return _cache[name]


def _ok(name, elapsed, detail=""):
    print(f"\nCRITERION {name}: PASS ({elapsed:.2f}s) {detail}".rstrip())


# -- criterion 1: the naive counterexample -------------------------------------

def test_criterion_1_naive_counterexample():
    t0 = time.perf_counter()
    res = repro("naive_03")
    assert res.scan_output == [0, 3]
    verdict = brute_force_linearize(derive(res.history))
    assert isinstance(verdict, NotLinearizable)
    report = run_checks(derive(res.history), ("S",))
    assert not report.passed  # negative control: the derived chain breaks
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok("1 (naive (0,3) not linearizable)", elapsed)


# -- criterion 2: the scripted forwarding scenario ------------------------------

def test_criterion_2_fig3_reproduction():
    t0 = time.perf_counter()
    res = repro("jayanti1_fig3")
    assert res.scan_output == [2, 4]
    d = derive(res.history)
    lin = linearize(d)
    assert lin.legal
    order = lin.order
    assert order.index(res.ids["w0"]) < order.index(res.ids["w1"])
    assert order.index(res.ids["w0"]) < order.index(res.ids["w0p"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok("2 (scripted scan returns (2,4) and linearizes)", elapsed)


# -- criterion 3: exhaustive sweep of the single-writer algorithm ----------------

def test_criterion_3_alg1_exhaustive_sweep():
    (cfg, summary), elapsed = _sweep("alg1")
    assert summary.clean, summary.failing and summary.failing[0].report.to_obj()
    assert summary.schedules == 38_560
    assert summary.steps_executed == 139_410  # one per edge of the schedule tree
    assert summary.oracle_skipped == 0 and summary.oracle_mismatches == 0
    assert elapsed < 60.0
    _ok("3 (single-writer sweep)", elapsed,
        f"{summary.schedules} interleavings, 0 violations")


# -- criterion 4: the multi-writer single-scanner sweep ---------------------------

def test_criterion_4_alg2_bounded_sweep():
    (cfg, summary), elapsed = _sweep("alg2")
    assert summary.clean, summary.failing and summary.failing[0].report.to_obj()
    assert summary.schedules == 200_000
    assert summary.oracle_mismatches == 0 and summary.oracle_skipped == 0
    assert elapsed < 300.0
    _ok("4 (multi-writer sweep, 200k schedules)", elapsed)


# -- criterion 5: sampled multi-scanner schedules ---------------------------------

def test_criterion_5_alg3_random_sampling():
    (cfg, summary), elapsed = _sweep("alg3")
    assert summary.schedules == 10_000
    assert summary.clean, summary.failing and summary.failing[0].report.to_obj()
    assert "F+" in cfg.suites  # includes virtual-scan extraction checks
    assert elapsed < 600.0
    _ok("5 (multi-scanner sampling, 10k schedules)", elapsed)


# -- criterion 6: the version-number algorithm ------------------------------------

def test_criterion_6_afek_exhaustive_sweep():
    (cfg, summary), elapsed = _sweep("afek")
    assert summary.clean, summary.failing and summary.failing[0].report.to_obj()
    assert summary.schedules == 11_296
    assert summary.steps_executed == 42_891  # one per edge of the schedule tree
    assert summary.afek_view_returns > 0  # double-move schedules borrow a view
    assert elapsed < 300.0
    _ok("6 (view-borrowing sweep)", elapsed,
        f"{summary.schedules} interleavings, {summary.afek_view_returns} view returns")


# -- criterion 7: LL/SC lemma suite across criteria 4-5 ----------------------------

def test_criterion_7_llsc_lemmas_clean():
    (c4, s4), e4 = _sweep("alg2")
    (c5, s5), e5 = _sweep("alg3")
    assert "L" in c4.suites and "L" in c5.suites
    assert s4.violations == 0 and s5.violations == 0
    _ok("7 (LL/SC lemma instances over criteria 4-5)", e4 + e5)


# -- criterion 8: real-thread soak --------------------------------------------------

def test_criterion_8_stress_soak():
    t0 = time.perf_counter()
    script = random_script(2, 4, 200, seed=8)
    cfg = StressConfig("jayanti3", 2, script, runs=100, suites=("RB", "S"))
    guard_checked = False

    def per_run(h, d, report):
        nonlocal guard_checked
        if not guard_checked:
            with pytest.raises(SizeGuard):
                brute_force_linearize(d)
            guard_checked = True

    summary = stress(cfg, per_run=per_run)
    elapsed = time.perf_counter() - t0
    assert summary.runs == 100 and summary.violations == 0
    assert guard_checked  # oracle skipped by the size guard as stated
    assert elapsed < 600.0
    _ok("8 (stress soak, 4 threads x 200 ops x 100 runs)", elapsed)


# -- criterion 9: corruption detection ----------------------------------------------

def test_criterion_9_corruption_detection():
    t0 = time.perf_counter()
    for fixture in CORRUPTIONS:
        history, suite, expected = fixture()
        report = run_checks(derive(history), (suite,))
        assert expected in report.axiom_ids(), (fixture.__name__, report.to_obj())
    _ok(f"9 ({len(CORRUPTIONS)} corruptions flagged)", time.perf_counter() - t0,
        ", ".join(f.__name__ for f in CORRUPTIONS))


# -- criterion 10: determinism -------------------------------------------------------

def _rerun_hash(cfg: ExploreConfig) -> str:
    """Repeat a sweep hashing only the history/linearization stream."""
    quiet = replace(cfg, suites=(), linearize=True, oracle=False, hash_stream=True)
    return explore(quiet).stream_sha256


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    h2a = repro("jayanti1_fig3").history.to_json()
    h2b = repro("jayanti1_fig3").history.to_json()
    assert h2a == h2b
    l2a = linearize(derive(repro("jayanti1_fig3").history)).to_json()
    l2b = linearize(derive(repro("jayanti1_fig3").history)).to_json()
    assert l2a == l2b
    for name in ("alg1", "alg2", "alg3"):
        (cfg, summary), _ = _sweep(name)
        assert summary.stream_sha256 == _rerun_hash(cfg), name
    _ok("10 (byte-identical reruns of criteria 2-5)", time.perf_counter() - t0)
