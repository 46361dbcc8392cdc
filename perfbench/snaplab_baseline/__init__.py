"""snaplab: a concurrent-snapshot laboratory.

Instrumented wait-free snapshot algorithms over recorded registers, a
visibility-relation engine, axiom-suite checking, and constructive plus
brute-force linearization.
"""

from .algorithms import ALGORITHMS, OpScript, ScriptError
from .checker import run_checks
from .events import ABS, BOT, INF, REP, UNIT, Event, History, HistoryRecorder, \
    returns_before, subevent
from .harness import DfsBounded, Exhaustive, ExploreConfig, FixedSchedule, \
    RandomWalks, SimRun, StressConfig, explore, random_script, repro, stress
from .linearize import Linearization, NotLinearizable, brute_force_linearize, \
    completed_set, linearize, pick_maximal_candidate
from .registers import Memory, UsageError
from .report import CheckReport, SuiteResult, Violation
from .visibility import CorruptHistory, Derived, HbClosure, VirtualScan, derive

__all__ = [
    "ALGORITHMS", "ABS", "BOT", "INF", "REP", "UNIT",
    "CheckReport", "CorruptHistory", "Derived", "DfsBounded", "Event",
    "Exhaustive", "ExploreConfig", "FixedSchedule", "HbClosure", "History",
    "HistoryRecorder", "Linearization", "Memory", "NotLinearizable", "OpScript",
    "RandomWalks", "ScriptError", "SimRun", "StressConfig", "SuiteResult",
    "UsageError", "Violation", "VirtualScan",
    "brute_force_linearize", "completed_set", "derive", "explore", "linearize",
    "pick_maximal_candidate", "random_script", "repro", "returns_before",
    "run_checks", "stress", "subevent",
]
