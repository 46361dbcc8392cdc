"""The checker against the frozen baseline in ``perfbench/snaplab_baseline``.

The suites read V.1, the register signatures, the LL/SC lemmas and the
snapshot axioms from the masks of the happens-before closure; the frozen
copy enumerates them pair by pair.  Both must give the same report,
violation order included, or raise the same exception type, on every
history here: the corruption fixtures, seeded mutations of alg2 DFS and
small alg3 random histories, and hand-built histories for the axioms that
mutation seldom reaches.  The test also asserts that each rewritten axiom
fires somewhere in the set, since equal clean reports would prove nothing
for it.
"""
import json
import random
import sys
from pathlib import Path

from corruptions import ALL as CORRUPTIONS
import snaplab
from snaplab import ABS, REP, UNIT, Event, History, OpScript, random_script
from snaplab.harness import DfsBounded, ExploreConfig, RandomWalks, iter_sims

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import snaplab_baseline  # noqa: E402  (read-only: the frozen yardstick)

SUITES = ("M", "M+", "L", "F+", "F", "S")
MUTANTS = 1500

# every axiom whose check was rewritten over closure masks; either wrtotal
# proves the shared fast path, so they count as one
REWRITTEN = ("V.1", "L4.1", "L4.2", "L4.3", "M.nowrbetween", "M+.nowrbetween",
             ("M.wrtotal", "M+.wrtotal"), "S.2", "S.4", "S.7", "F+.sconuniq")


def _verdict(lib, text: str):
    h = lib.History.from_json(text)
    try:
        report = lib.run_checks(lib.derive(h), SUITES).to_obj()
    except Exception as exc:  # the baseline's exception type is the answer
        return type(exc).__name__
    del report["stats"]["wall_s"]
    return report


# -- hand-built histories -------------------------------------------------------

def _llsc_no_successful_pair() -> History:
    """Two LL/SC windows on K, the first returning before the second, and
    neither SC successful: no successful pair lies between them (L4.3)."""
    events = [
        Event(0, ABS, "probe", None, UNIT, 0, 11, None, None),
        Event(1, REP, "u.w", 5, UNIT, 1, 2, None, "K"),
        Event(2, REP, "u.ll", None, 5, 3, 4, 0, "K"),
        Event(3, REP, "u.sc", 7, False, 5, 6, 0, "K"),
        Event(4, REP, "u.ll", None, 5, 7, 8, 0, "K"),
        Event(5, REP, "u.sc", 8, False, 9, 10, 0, "K"),
    ]
    return History("jayanti2", 1, [0], events=events,
                   rf=[(1, 2), (1, 3), (1, 4), (1, 5)], ll=[(2, 3), (4, 5)])


def _overlapping_writes() -> History:
    """Two overlapping writes with no edge between them, on a plain
    register K (M.wrtotal) and on an LL/SC register Q (M+.wrtotal)."""
    events = [
        Event(0, ABS, "probe", None, UNIT, 0, 11, None, None),
        Event(1, REP, "u.w", 1, UNIT, 1, 4, None, "K"),
        Event(2, REP, "u.w", 2, UNIT, 2, 3, None, "K"),
        Event(3, REP, "v.w", 1, UNIT, 5, 8, None, "Q"),
        Event(4, REP, "v.w", 2, UNIT, 6, 7, None, "Q"),
        Event(5, REP, "v.ll", None, 2, 9, 10, 0, "Q"),
    ]
    return History("jayanti2", 1, [0], events=events, rf=[(4, 5)])


def _overlapping_cell_writes() -> History:
    """Two afek writes of cell 0 that overlap; afek derives no write order,
    so nothing orders them (S.4)."""
    events = [
        Event(0, ABS, "write[0]", 1, UNIT, 0, 5),
        Event(1, REP, "wa.w", [1, 1, [0]], UNIT, 2, 3, 0, "A[0]"),
        Event(2, ABS, "write[0]", 2, UNIT, 1, 8),
        Event(3, REP, "wa.w", [2, 2, [0]], UNIT, 4, 6, 2, "A[0]"),
    ]
    return History("afek", 1, [0], events=events)


def _scans_disagree_on_order() -> History:
    """A naive run: scan 4 sees the old cell 0 and the new cell 1, scan 8
    the new cell 0 and the old cell 1, so they order the writes oppositely
    (S.7)."""
    events = [
        Event(0, ABS, "write[0]", 0, UNIT, 0, 3),
        Event(1, REP, "wa.w", 0, UNIT, 1, 2, 0, "A[0]"),
        Event(2, ABS, "write[1]", 0, UNIT, 4, 7),
        Event(3, REP, "wa.w", 0, UNIT, 5, 6, 2, "A[1]"),
        Event(4, ABS, "scan", None, [0, 3], 8, 27),
        Event(5, REP, "a[0].r", None, 0, 9, 10, 4, "A[0]"),
        Event(6, ABS, "write[0]", 2, UNIT, 11, 14),
        Event(7, REP, "wa.w", 2, UNIT, 12, 13, 6, "A[0]"),
        Event(8, ABS, "scan", None, [2, 0], 15, 20),
        Event(9, REP, "a[0].r", None, 2, 16, 17, 8, "A[0]"),
        Event(10, REP, "a[1].r", None, 0, 18, 19, 8, "A[1]"),
        Event(11, ABS, "write[1]", 3, UNIT, 21, 24),
        Event(12, REP, "wa.w", 3, UNIT, 22, 23, 11, "A[1]"),
        Event(13, REP, "a[1].r", None, 3, 25, 26, 4, "A[1]"),
    ]
    return History("naive", 2, [0, 0], events=events,
                   rf=[(1, 5), (7, 9), (3, 10), (12, 13)])


HAND_BUILT = (_llsc_no_successful_pair, _overlapping_writes, _overlapping_cell_writes,
              _scans_disagree_on_order)


# -- seeded mutations -------------------------------------------------------------

def _mutate(text: str, rng: random.Random) -> str:
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


def _seed_histories() -> list[History]:
    script = OpScript.from_lists([[("write", 0, 2)], [("write", 0, 3)], [("scan",)]])
    out = [sim.history() for sim in
           iter_sims(ExploreConfig("jayanti2", 1, script, DfsBounded(50)))]
    for k in range(6):
        cfg = ExploreConfig("jayanti3", 2, random_script(2, 2, 4, k), RandomWalks(k, 1))
        out.extend(sim.history() for sim in iter_sims(cfg))
    return out


def _inputs() -> list[str]:
    texts = [fixture()[0].to_json() for fixture in CORRUPTIONS]
    texts += [build().to_json() for build in HAND_BUILT]
    seeds = _seed_histories()
    rng = random.Random(2110)
    for _ in range(MUTANTS):
        text = rng.choice(seeds).to_json()
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        texts.append(text)
    return texts


def test_reports_match_frozen_baseline():
    fired: set[str] = set()
    for text in _inputs():
        ours = _verdict(snaplab, text)
        theirs = _verdict(snaplab_baseline, text)
        assert ours == theirs, text[:500]
        if isinstance(ours, dict):
            fired.update(v["axiom"] for s in ours["suites"].values() for v in s["violations"])
    silent = [ax for ax in REWRITTEN
              if not (set(ax) if isinstance(ax, tuple) else {ax}) & fired]
    assert not silent, f"never fired, so never compared: {silent}"


def test_hand_built_histories_fire_their_axioms():
    want = {_llsc_no_successful_pair: {"L4.3"},
            _overlapping_writes: {"M.wrtotal", "M+.wrtotal"},
            _overlapping_cell_writes: {"S.4"},
            _scans_disagree_on_order: {"S.7"}}
    for build, axioms in want.items():
        report = _verdict(snaplab, build().to_json())
        got = {v["axiom"] for s in report["suites"].values() for v in s["violations"]}
        assert axioms <= got, (build.__name__, sorted(got))
