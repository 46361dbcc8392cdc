"""One-field edits of recorded histories, every one of them.

One history per algorithm, picked to take the derivations' deep paths
(forwards observed, a complete virtual scan, a borrowed view).  Each
edit sets one event's ``input``, ``output`` or ``parent`` to a value
from ``VALUES``, or re-points one rf or ll edge to a missing source.
Every command then exits 0 or 1, or 2 with one line naming the history;
none raises.  A derivation that follows an edited id or field to
nothing it can use reports H.corrupt instead.
"""
import contextlib
import io
import json

import pytest

from snaplab import OpScript, derive
from snaplab.cli import main
from snaplab.harness import DfsBounded, ExploreConfig, iter_sims
from snaplab.visibility import EDGE_LABELS

SUITES = "RB,M,M+,L,F+,F,S,CHAIN"
COMMANDS = (["check", "--suites", SUITES], ["linearize", "--oracle"],
            ["dump-edges", "--labels", ",".join(EDGE_LABELS)])
VALUES = (999, 5, [2], None)
MISSING = 999


def _has_forward(d) -> bool:
    return bool(d.fwd_edges)


# algorithm, cells, script, what its history must show
CASES = {
    "naive": (1, [[("write", 0, 2)], [("scan",)]], lambda d: True),
    "jayanti1": (1, [[("write", 0, 2)], [("scan",)]], _has_forward),
    "jayanti2": (1, [[("write", 0, 2)], [("scan",)]], _has_forward),
    "jayanti3": (1, [[("write", 0, 2)], [("scan",)]], _has_forward),
    "afek": (1, [[("write", 0, 2), ("write", 0, 3)], [("scan",)]],
             lambda d: bool(d.borrowed_views)),
}


def _history(algorithm: str) -> str:
    """The first DFS history of the algorithm's case that shows what it must."""
    n, script, shows = CASES[algorithm]
    cfg = ExploreConfig(algorithm, n, OpScript.from_lists(script), DfsBounded(1_000))
    for sim in iter_sims(cfg):
        h = sim.history()
        if shows(derive(h)):
            return h.to_json()
    raise AssertionError(f"no {algorithm} schedule shows what the sweep needs")


def _edits(obj: dict):
    """``(what, edited copy)`` for every one-field edit of ``obj``."""
    text = json.dumps(obj)
    for k, e in enumerate(obj["events"]):
        for field in ("input", "output", "parent"):
            for value in VALUES:
                edited = json.loads(text)
                edited["events"][k][field] = value
                yield f"event {e['id']} {field}={value!r}", edited
    for label in ("rf", "ll"):
        for k, (src, dst) in enumerate(obj[label]):
            edited = json.loads(text)
            edited[label][k] = [MISSING, dst]
            yield f"{label} [{src},{dst}] from {MISSING}", edited


def _run(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_one_field_edits_never_raise(tmp_path, algorithm):
    path = tmp_path / "h.json"
    faults = []
    for what, edited in _edits(json.loads(_history(algorithm))):
        path.write_text(json.dumps(edited))
        for argv in COMMANDS:
            try:
                rc, err = _run(argv + ["--history", str(path)])
            except Exception as exc:  # noqa: BLE001 - every escape is a fault
                faults.append(f"{what}: {argv[0]} raised {type(exc).__name__}: {exc}")
                continue
            if rc not in (0, 1, 2) or rc == 2 and not err.startswith(
                    (f"snaplab: malformed history {path}: ",
                     f"snaplab: {path}: cannot derive ")):
                faults.append(f"{what}: {argv[0]} exited {rc}: {err!r}")
    assert not faults, "\n".join(faults)
