"""Violation records and check reports shared by all checker suites."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance.

    ``witnesses`` lists the event ids instantiating the axiom's quantifiers,
    in quantifier order, so the axiom body can be re-evaluated on them.
    """

    axiom: str
    witnesses: tuple[int, ...]
    note: str = ""

    def render(self) -> str:
        ids = ",".join(str(w) for w in self.witnesses)
        return f"{self.axiom}[{ids}] {self.note}".rstrip()


@dataclass
class SuiteResult:
    name: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return {
            "pass": self.passed,
            "violations": [
                {"axiom": v.axiom, "witnesses": list(v.witnesses), "note": v.note}
                for v in self.violations
            ],
        }


@dataclass
class CheckReport:
    history: str
    suites: dict[str, SuiteResult] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites.values())

    def all_violations(self) -> list[Violation]:
        out: list[Violation] = []
        for s in self.suites.values():
            out.extend(s.violations)
        return out

    def axiom_ids(self) -> set[str]:
        return {v.axiom for v in self.all_violations()}

    def to_obj(self) -> dict:
        return {
            "history": self.history,
            "suites": {name: s.to_obj() for name, s in sorted(self.suites.items())},
            "stats": self.stats,
        }
