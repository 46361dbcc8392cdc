"""Benchmark workloads: each builds the inputs of one measured unit.

A unit is one call of ``explore()`` or ``stress()``.  Unit ``k`` of every
workload gets its own inputs, so a run that measures several units
averages over several inputs, a cache kept across calls gains nothing,
and the same seed always yields the same sequence of inputs.

``build`` takes the package to build for (``snaplab``, or the frozen
``snaplab_baseline`` that each unit is timed against), because a config
must come from the package whose ``explore()`` or ``stress()`` reads it.
This module imports neither, so a set-up probe times one package alone.
"""

DEFAULT_SEED = 1
FULL_SUITES = ("M", "M+", "L", "F+", "F", "S", "CHAIN")

NAMES = ("alg2-dfs", "alg3-long-random", "stress-soak")
SEEDED = ("alg3-long-random", "stress-soak")

ALG2_LIMIT = 1_000     # DFS schedules per unit
ALG3_OPS = 40          # per thread; 2 threads give histories of ~1,600 events
ALG3_WALKS = 1         # random schedules per unit
STRESS_OPS = 200       # per thread
STRESS_THREADS = 2     # one per core of the reference machine
STRESS_RUNS = 1        # stress runs per unit


def unit_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def attempts(name: str) -> int:
    """Schedules (explore) or runs (stress) in one unit."""
    return {"alg2-dfs": ALG2_LIMIT, "alg3-long-random": ALG3_WALKS,
            "stress-soak": STRESS_RUNS}[name]


def build(lib, name: str, seed: int, k: int = 0):
    """The config of unit ``k`` of workload ``name`` under ``seed``."""
    if name == "alg2-dfs":
        # The schedule tree does not depend on the written values; unit k
        # writes its own pair so that no two units share a behaviour.
        return lib.ExploreConfig(
            "jayanti2", 1,
            lib.OpScript.from_lists([[("write", 0, 2 + 2 * k)], [("write", 0, 3 + 2 * k)],
                                     [("scan",)]]),
            lib.DfsBounded(ALG2_LIMIT), suites=FULL_SUITES,
            linearize=True, oracle=True, hash_stream=True)
    s = unit_seed(seed, k)
    if name == "alg3-long-random":
        # The oracle stays off: completed sets are far beyond its guard of 10.
        return lib.ExploreConfig(
            "jayanti3", 2, lib.random_script(2, 2, ALG3_OPS, s),
            lib.RandomWalks(s, ALG3_WALKS), suites=FULL_SUITES,
            linearize=True, hash_stream=True)
    if name == "stress-soak":
        return lib.StressConfig(
            "jayanti3", 2, lib.random_script(2, STRESS_THREADS, STRESS_OPS, s),
            runs=STRESS_RUNS, suites=("RB", "S"))
    raise ValueError(f"unknown workload {name!r}; have {', '.join(NAMES)}")


# The schedule whose scan returns (0,3), which no sequential order explains.
NAIVE_03_SCHEDULE = (0, 1, 2, 0)


def naive_control(lib):
    """The negative control: every schedule of the naive (0,3) scenario."""
    return lib.ExploreConfig(
        "naive", 2,
        lib.OpScript.from_lists([[("scan",)], [("write", 0, 2)], [("write", 1, 3)]]),
        lib.Exhaustive(), suites=("S",), linearize=True, oracle=True)
