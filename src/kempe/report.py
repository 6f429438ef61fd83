"""Machine-readable outcomes of lemma/theorem checks.

A failing report always carries a counterexample payload, built by
`failing` from the host graph or coloring the check was given; sweeps count
hypothesis-met and vacuous instances separately so that a suite that never
fires a hypothesis is flagged rather than silently green.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .coloring import PartialEdgeColoring
from .graph import Graph, to_graph6


@dataclass
class VerificationReport:
    check: str
    passed: bool
    hypothesis_met: int = 0
    vacuous: int = 0
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None

    def __post_init__(self) -> None:
        if not self.passed and not self.counterexample:
            raise ValueError("failing report requires a counterexample payload")

    @property
    def fired(self) -> bool:
        return self.hypothesis_met > 0

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        """Combine two partial results of the same check (associative;
        the first counterexample encountered is kept).

        A numeric detail is summed and any other keeps its first value. A
        key whose two values are of the two kinds raises TypeError, since
        no fold of such values is associative."""
        if other.check != self.check:
            raise ValueError(f"cannot merge {self.check} with {other.check}")
        details = dict(self.details)
        for key, value in other.details.items():
            numeric = isinstance(value, (int, float))
            if key in details and numeric != isinstance(details[key], (int, float)):
                raise TypeError(
                    f"{self.check} detail {key!r} mixes numeric and other values"
                )
            if numeric:
                details[key] = details.get(key, 0) + value
            else:
                details.setdefault(key, value)
        return VerificationReport(
            check=self.check,
            passed=self.passed and other.passed,
            hypothesis_met=self.hypothesis_met + other.hypothesis_met,
            vacuous=self.vacuous + other.vacuous,
            details=details,
            counterexample=self.counterexample or other.counterexample,
        )

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "hypothesis_met": self.hypothesis_met,
            "vacuous": self.vacuous,
            "details": self.details,
            "counterexample": self.counterexample,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = "" if self.fired else " (vacuous)"
        return (
            f"{status:4} {self.check}: met={self.hypothesis_met} "
            f"vacuous={self.vacuous}{note}"
        )


def merge_reports(reports: Iterable[VerificationReport], check: str) -> VerificationReport:
    """Fold partial results of `check` in order, consuming the iterable
    lazily; vacuous when it yields nothing."""
    out = None
    for rep in reports:
        out = rep if out is None else out.merge(rep)
    return out if out is not None else vacuous(check)


def passing(check: str, met: int = 1, **details) -> VerificationReport:
    return VerificationReport(check, True, hypothesis_met=met, details=details)


def vacuous(check: str, **details) -> VerificationReport:
    return VerificationReport(check, True, vacuous=1, details=details)


def failing(
    check: str,
    host: Graph | PartialEdgeColoring,
    met: int = 1,
    details: dict | None = None,
    **evidence,
) -> VerificationReport:
    """A failing report whose counterexample is the host's graph6, the
    host's serialized coloring when it is a coloring, and the evidence."""
    if isinstance(host, PartialEdgeColoring):
        evidence = {"coloring": host.serialize(), **evidence}
        host = host.graph
    return VerificationReport(
        check,
        False,
        hypothesis_met=met,
        details=details or {},
        counterexample={"graph6": to_graph6(host), **evidence},
    )
