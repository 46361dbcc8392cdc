"""The five subject snapshot algorithms as resumable step machines.

Each write/scan operation is a generator that yields one step descriptor
per primitive register operation; the driver (simulator or a real thread)
executes the descriptor and sends the result back in.  Rep-event labels
carry the cell index and, where needed, an instance tag (``@k``) so the
visibility layer can regroup the events without guessing.

Step descriptors are tuples ``(memop, register, value, label)`` with
``memop`` one of R, W, LL, SC, VL, UPD and ``label`` the rep event's
``(label, cell, instance)``, cell and instance None where absent; the
recorder writes it as the op ``label[cell]@instance.memop``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from .events import BOT

R, W, LL, SC, VL, UPD = range(6)

WRITE = "write"
SCAN = "scan"


class ScriptError(ValueError):
    """Operation script violates the algorithm's usage constraints."""


@dataclass(frozen=True)
class ThreadScript:
    pid: int
    ops: tuple[tuple, ...]  # ("write", i, v) | ("scan",)


@dataclass(frozen=True)
class OpScript:
    threads: tuple[ThreadScript, ...]

    @classmethod
    def from_lists(cls, per_thread: Iterable[Iterable[tuple]]) -> "OpScript":
        return cls(tuple(
            ThreadScript(pid, tuple(tuple(op) for op in ops))
            for pid, ops in enumerate(per_thread)
        ))

    @classmethod
    def from_obj(cls, obj: dict) -> "OpScript":
        """Raises ScriptError on an unknown op, a missing key or a wrong type."""
        threads = []
        try:
            for t in obj["threads"]:
                ops = []
                for op in t["ops"]:
                    if op == "scan":
                        ops.append((SCAN,))
                    elif isinstance(op, dict) and "write" in op:
                        i, v = op["write"]
                        ops.append((WRITE, int(i), v))
                    else:
                        raise ScriptError(f"unknown op {op!r}")
                threads.append(ThreadScript(int(t["pid"]), tuple(ops)))
        except ScriptError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ScriptError(f"malformed script: {type(exc).__name__}: {exc}") from exc
        return cls(tuple(threads))

    @classmethod
    def from_json(cls, text: str) -> "OpScript":
        return cls.from_obj(json.loads(text))

    def to_obj(self) -> dict:
        return {"threads": [
            {"pid": t.pid,
             "ops": [{"write": [op[1], op[2]]} if op[0] == WRITE else "scan" for op in t.ops]}
            for t in self.threads
        ]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    def pids(self) -> list[int]:
        return [t.pid for t in self.threads]


def _check_basic(script: OpScript, n: int) -> None:
    if n < 1:
        raise ScriptError(f"n={n}: want at least one cell")
    pids = script.pids()
    if len(set(pids)) != len(pids):
        raise ScriptError("thread pids must be unique")
    for t in script.threads:
        for op in t.ops:
            if op[0] == WRITE:
                if not (0 <= op[1] < n):
                    raise ScriptError(f"write index {op[1]} out of range for n={n}")
                if not isinstance(op[2], int):
                    raise ScriptError("write values must be integers")
            elif op[0] != SCAN:
                raise ScriptError(f"unknown op {op!r}")


def _check_single_scanner(script: OpScript) -> None:
    scanners = [t.pid for t in script.threads if any(op[0] == SCAN for op in t.ops)]
    if len(scanners) > 1:
        raise ScriptError(f"single-scanner algorithm: scans on threads {scanners}")


def _check_single_writer_per_cell(script: OpScript) -> None:
    cell_writer: dict[int, int] = {}
    for t in script.threads:
        for op in t.ops:
            if op[0] == WRITE:
                prev = cell_writer.setdefault(op[1], t.pid)
                if prev != t.pid:
                    raise ScriptError(
                        f"single-writer-per-cell: cell {op[1]} written by threads {prev} and {t.pid}")


# -- register banks --------------------------------------------------------

class Bank:
    """Precomputed register names for one algorithm instance."""

    def __init__(self):
        self.A: list[str] = []
        self.B: list[str] = []
        self.X: str = ""
        self.SS: str = ""
        self.Ap: dict[int, list[str]] = {}
        self.Bp: dict[int, list[str]] = {}


def _bank_naive(mem, n, pids, initial):
    bank = Bank()
    bank.A = [mem.make(f"A[{i}]", None) for i in range(n)]
    return bank


def _bank_jayanti1(mem, n, pids, initial):
    bank = _bank_naive(mem, n, pids, initial)
    bank.B = [mem.make(f"B[{i}]", BOT) for i in range(n)]
    bank.X = mem.make("X", False, init_event=True)
    return bank


def _bank_jayanti3(mem, n, pids, initial):
    bank = Bank()
    bank.A = [mem.make(f"A[{i}]", None) for i in range(n)]
    # X = [phase, pA, pB, sync]; SS = [img, sync]
    bank.X = mem.make("X", [1, pids[0] if pids else 0, pids[0] if pids else 0, False],
                      init_event=True)
    bank.SS = mem.make("SS", [list(initial), False], init_event=True)
    for p in pids:
        bank.Ap[p] = [mem.make(f"Ap[{p}][{i}]", None) for i in range(n)]
        bank.Bp[p] = [mem.make(f"Bp[{p}][{i}]", BOT) for i in range(n)]
    return bank


# -- naive ------------------------------------------------------------------

def _naive_write(bank, n, pid, i, v):
    yield (W, bank.A[i], v, ("wa", None, None))


def _naive_scan(bank, n, pid):
    out = [None] * n
    for i in range(n):
        out[i] = yield (R, bank.A[i], None, ("a", i, None))
    return out


# -- Jayanti single-writer single-scanner ------------------------------------

def _j1_write(bank, n, pid, i, v):
    yield (W, bank.A[i], v, ("wa", None, None))
    x = yield (R, bank.X, None, ("wx", None, None))
    if x:
        yield (W, bank.B[i], v, ("wb", None, None))


def _j1_scan(bank, n, pid):
    out = [None] * n
    yield (W, bank.X, True, ("on", None, None))
    for i in range(n):
        yield (W, bank.B[i], BOT, ("r", i, None))
    for i in range(n):
        out[i] = yield (R, bank.A[i], None, ("a", i, None))
    yield (W, bank.X, False, ("off", None, None))
    for i in range(n):
        b = yield (R, bank.B[i], None, ("b", i, None))
        if b is not BOT:
            out[i] = b
    return out


# -- Jayanti multi-writer single-scanner -------------------------------------

def _forward(bank, b, i, k):
    """The k-th forward of a write to cell i, into register ``b``: jayanti2's
    B[i], or jayanti3's Bp[p][i] for the scanner p that raised X."""
    yield (LL, b, None, ("fll", i, k))
    v = yield (R, bank.A[i], None, ("fa", i, k))
    ok = yield (VL, bank.X, None, ("fvl", i, k))
    if ok:
        yield (SC, b, v, ("fsc", i, k))


def _j2_write(bank, n, pid, i, v):
    yield (W, bank.A[i], v, ("wa", None, None))
    x = yield (LL, bank.X, None, ("wx", None, None))
    if x:
        yield from _forward(bank, bank.B[i], i, 1)
        yield from _forward(bank, bank.B[i], i, 2)


def _j2_scan(bank, n, pid):
    out = [None] * n
    for i in range(n):
        yield (W, bank.B[i], BOT, ("r", i, None))
    yield (W, bank.X, True, ("on", None, None))
    for i in range(n):
        out[i] = yield (R, bank.A[i], None, ("a", i, None))
    yield (W, bank.X, False, ("off", None, None))
    for i in range(n):
        b = yield (R, bank.B[i], None, ("b", i, None))
        if b is not BOT:
            out[i] = b
    return out


# -- Jayanti multi-writer multi-scanner --------------------------------------

def _j3_write(bank, n, pid, i, v):
    yield (W, bank.A[i], v, ("wa", None, None))
    x = yield (LL, bank.X, None, ("wx", None, None))
    if x[0] == 2:
        yield from _forward(bank, bank.Bp[x[2]][i], i, 1)
        yield from _forward(bank, bank.Bp[x[2]][i], i, 2)


def _j3_push_vs(bank, n, p, k):
    x = yield (LL, bank.X, None, ("vx", None, k))
    if x[0] == 1:
        for i in range(n):
            yield (W, bank.Bp[p][i], BOT, ("vr", i, k))
        yield (SC, bank.X, [2, x[1], p, x[3]], ("von", None, k))
        x = yield (LL, bank.X, None, ("vx", None, k))
    if x[0] == 2:
        for i in range(n):
            a = yield (R, bank.A[i], None, ("va", i, k))
            yield (W, bank.Ap[p][i], a, ("vab", i, k))
        yield (SC, bank.X, [3, p, x[2], x[3]], ("voff", None, k))
        x = yield (LL, bank.X, None, ("vx", None, k))
    if x[0] == 3:
        out = [None] * n
        for i in range(n):
            b = yield (R, bank.Bp[x[2]][i], None, ("vb", i, k))
            if b is not BOT:
                out[i] = b
            else:
                out[i] = yield (R, bank.Ap[x[1]][i], None, ("vau", i, k))
        ss = yield (LL, bank.SS, None, ("vss", None, k))
        ok = yield (VL, bank.X, None, ("vvl", None, k))
        if ss[1] == x[3] and ok:
            yield (SC, bank.SS, [out, not ss[1]], ("vssb", None, k))
        yield (SC, bank.X, [1, x[1], x[2], not x[3]], ("vend", None, k))


def _j3_scan(bank, n, pid):
    yield from _j3_push_vs(bank, n, pid, 1)
    yield from _j3_push_vs(bank, n, pid, 2)
    ss = yield (R, bank.SS, None, ("sss", None, None))
    return list(ss[0])


# -- Afek et al. single-writer multi-scanner ---------------------------------

def _afek_collect(bank, n):
    """One double-collect loop; returns ("clean", data, k) or ("view", data, k)."""
    moved = [False] * n
    k = 0
    while True:
        k += 1
        a = [None] * n
        b = [None] * n
        for i in range(n):
            a[i] = yield (R, bank.A[i], None, ("a", i, k))
        for i in range(n):
            b[i] = yield (R, bank.A[i], None, ("b", i, k))
        changed = False
        for i in range(n):
            if a[i][1] != b[i][1]:
                if moved[i]:
                    return ("view", list(b[i][2]), k)
                changed = True
                moved[i] = True
        if not changed:
            return ("clean", [b[i][0] for i in range(n)], k)


def _afek_write(bank, n, pid, i, v):
    _, view, _ = yield from _afek_collect(bank, n)
    yield (UPD, bank.A[i], lambda old, v=v, view=view: [v, old[1] + 1, view], ("wa", None, None))


def _afek_scan(bank, n, pid):
    _, data, _ = yield from _afek_collect(bank, n)
    return data


# -- registry ----------------------------------------------------------------

@dataclass(frozen=True)
class AlgorithmDef:
    name: str
    rules: str  # its entry in visibility.RULES: derivations and signatures
    make_bank: Callable
    writer: Callable
    scanner: Callable
    validate: Callable
    initial_cell: Callable  # (v0, initial array) -> stored A[i] value
    write_bound: Callable  # n -> max register steps per write
    scan_bound: Callable


def _validate_j1(script, n):
    _check_basic(script, n)
    _check_single_scanner(script)
    _check_single_writer_per_cell(script)


def _validate_j2(script, n):
    _check_basic(script, n)
    _check_single_scanner(script)


def _validate_afek(script, n):
    _check_basic(script, n)
    _check_single_writer_per_cell(script)


ALGORITHMS: dict[str, AlgorithmDef] = {
    "naive": AlgorithmDef(
        "naive", "naive", _bank_naive, _naive_write, _naive_scan, _check_basic,
        lambda v0, init: v0,
        write_bound=lambda n: 1, scan_bound=lambda n: n),
    "jayanti1": AlgorithmDef(
        "jayanti1", "jayanti1", _bank_jayanti1, _j1_write, _j1_scan, _validate_j1,
        lambda v0, init: v0,
        write_bound=lambda n: 3, scan_bound=lambda n: 3 * n + 2),
    "jayanti2": AlgorithmDef(
        "jayanti2", "jayanti2", _bank_jayanti1, _j2_write, _j2_scan, _validate_j2,
        lambda v0, init: v0,
        write_bound=lambda n: 10, scan_bound=lambda n: 3 * n + 2),
    "jayanti3": AlgorithmDef(
        "jayanti3", "jayanti3", _bank_jayanti3, _j3_write, _j3_scan, _check_basic,
        lambda v0, init: v0,
        write_bound=lambda n: 10, scan_bound=lambda n: 10 * n + 19),
    "afek": AlgorithmDef(
        "afek", "afek", _bank_naive, _afek_write, _afek_scan, _validate_afek,
        lambda v0, init: [v0, 0, list(init)],
        write_bound=lambda n: 2 * n * (n + 2) + 1, scan_bound=lambda n: 2 * n * (n + 2)),
}


def op_generator(adef: AlgorithmDef, bank: Bank, n: int, pid: int, op: tuple):
    if op[0] == WRITE:
        return adef.writer(bank, n, pid, op[1], op[2])
    return adef.scanner(bank, n, pid)


def initial_write(adef: AlgorithmDef, bank: Bank, i: int, initial: list) -> tuple:
    """The step descriptor that stores cell i's initial value into A[i]."""
    return (W, bank.A[i], adef.initial_cell(initial[i], initial), ("wa", None, None))


def op_name(op: tuple) -> str:
    return f"write[{op[1]}]" if op[0] == WRITE else "scan"


def op_input(op: tuple):
    return op[2] if op[0] == WRITE else None
