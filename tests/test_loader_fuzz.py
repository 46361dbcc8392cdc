"""The history, script and fixed-schedule loaders under hypothesis.

Every input either loads, and the command then exits 0 or 1, or the
command exits 2 with one ``snaplab: ...`` line naming what is malformed.
No input raises: an exception escaping ``main`` would print a traceback
that reads like a failed check.  Loading a history parses every rep op,
and deriving it builds its event index, so both run on every input.
"""
import contextlib
import io
import json

from hypothesis import given, strategies as st

from snaplab import ALGORITHMS, OpScript, SimRun
from snaplab.cli import main

SUITES = "RB,M,M+,L,F+,F,S,CHAIN"

# Values near the ones a loader expects, and some far from them.
values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(999) | st.just("inf")
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["scan", "write[0]", "write[z]", "a[0].r", "wa.w", "fll[0]@1.ll",
                       "x", "abs", "rep", "A[0]", "X", "jayanti3"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)

EVENT_FIELDS = ("id", "kind", "op", "input", "output", "start", "end", "parent", "object")


def _base_histories() -> list:
    """A small recorded history of every algorithm."""
    out = []
    for alg in sorted(ALGORITHMS):
        script = [[("scan",)], [("write", 0, 5)]]
        sim = SimRun(alg, 2 if alg != "jayanti3" else 1, OpScript.from_lists(script))
        sim.run_all(lambda en: en[len(sim.schedule) % len(en)])
        out.append(sim.history().to_json())
    return out


BASES = _base_histories()


@st.composite
def edited_histories(draw) -> str:
    """A recorded history with a few fields, edges or keys replaced or dropped."""
    obj = json.loads(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        where = draw(st.sampled_from(["meta", "event", "edge", "key"]))
        if where == "meta" and isinstance(obj.get("meta"), dict):
            obj["meta"][draw(st.sampled_from(["algorithm", "n", "initial", "seed"]))] = \
                draw(values)
        elif where == "event" and isinstance(obj.get("events"), list) and obj["events"]:
            e = draw(st.sampled_from(obj["events"]))
            if isinstance(e, dict):
                field = draw(st.sampled_from(EVENT_FIELDS))
                if draw(st.booleans()):
                    e[field] = draw(values)
                else:
                    e.pop(field, None)
        elif where == "edge":
            edges = obj.get(draw(st.sampled_from(["rf", "ll"])))
            if isinstance(edges, list):
                edges.append(draw(st.lists(st.integers(-2, 40) | st.just(999), max_size=3)
                                  | values))
        else:
            key = draw(st.sampled_from(["meta", "events", "rf", "ll"]))
            if draw(st.booleans()):
                obj[key] = draw(values)
            else:
                obj.pop(key, None)
    return json.dumps(obj)


def _run(argv) -> tuple:
    """``main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@given(text=edited_histories() | st.text(max_size=20))
def test_history_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("h") / "h.json"
    path.write_text(text)
    for argv in (["check", "--suites", SUITES], ["linearize", "--oracle"],
                 ["dump-edges", "--labels", "rf,hb-rep,hb"]):
        rc, err = _run(argv + ["--history", str(path)])
        assert rc in (0, 1, 2), (argv, text)
        if rc == 2:  # dump-edges also exits 2 on a relation it cannot derive
            assert err.startswith((f"snaplab: malformed history {path}: ",
                                   f"snaplab: {path}: cannot derive ")), (argv, err, text)


ops = (st.just("scan")
       | st.fixed_dictionaries({"write": st.lists(st.integers(-1, 3), min_size=2, max_size=2)})
       | values)


@given(threads=st.lists(st.fixed_dictionaries({"pid": st.integers(0, 3) | values,
                                               "ops": st.lists(ops, max_size=3)})
                        | values, max_size=3),
       alg=st.sampled_from(sorted(ALGORITHMS)))
def test_script_loader(tmp_path_factory, threads, alg):
    path = tmp_path_factory.mktemp("s") / "s.json"
    path.write_text(json.dumps({"threads": threads}))
    rc, err = _run(["explore", "--alg", alg, "--n", "2", "--script", str(path),
                            "--mode", "random:0:1", "--check", "S"])
    assert rc in (0, 1, 2), (threads, err)
    if rc == 2:
        assert err.startswith("snaplab: ") and err.count("\n") == 1, (threads, err)


@given(schedule=st.lists(st.integers(-1, 3) | values, max_size=8) | values)
def test_fixed_schedule_loader(tmp_path_factory, schedule):
    base = tmp_path_factory.mktemp("f")
    script = base / "script.json"
    script.write_text(json.dumps({"threads": [{"pid": 0, "ops": ["scan"]},
                                              {"pid": 1, "ops": [{"write": [0, 2]}]}]}))
    path = base / "schedule.json"
    path.write_text(json.dumps({"schedule": schedule}))
    rc, err = _run(["explore", "--alg", "naive", "--n", "2", "--script", str(script),
                            "--mode", f"fixed:{path}", "--check", "S"])
    assert rc in (0, 1, 2), (schedule, err)
    if rc == 2:
        assert err.startswith(f"snaplab: {path}: malformed schedule: "), (schedule, err)
