"""Structured verdicts for theorem and inequality checks.

A VerdictReport records every hypothesis with both sides of its inequality
(as exactness-preserving strings), the located witness, whether the
conclusion holds, and the numeric slacks -- everything needed to reproduce
the check from its inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .numerics import Checked, fmt_rational, fmt_real

HOLDS = "holds"
FAILS = "fails"
UNRESOLVED = "unresolved"
VACUOUS = "vacuous"


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, Fraction)):
        return fmt_rational(Fraction(x))
    return fmt_real(x)


class HypothesisFlag:
    __slots__ = ("name", "status", "lhs", "rhs", "note")

    def __init__(self, name: str, status: str, lhs: str = "", rhs: str = "",
                 note: str = ""):
        self.name = name
        self.status = status  # holds / fails / unresolved / vacuous
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

    @classmethod
    def from_checked(cls, name: str, c: Checked, note: str = "") -> "HypothesisFlag":
        return cls(name, HOLDS if c.holds else FAILS, fmt(c.lhs), fmt(c.rhs), note)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


class VerdictReport:
    __slots__ = ("check", "hypotheses", "witness", "conclusion_holds",
                 "slacks", "notes")

    def __init__(self, check: str, hypotheses: list[HypothesisFlag] | None = None,
                 witness: dict | None = None, conclusion_holds: bool | None = None,
                 slacks: dict | None = None, notes: list[str] | None = None):
        self.check = check
        self.hypotheses = [] if hypotheses is None else hypotheses
        self.witness = witness
        self.conclusion_holds = conclusion_holds
        self.slacks = {} if slacks is None else slacks
        self.notes = [] if notes is None else notes

    def add_hypothesis(self, name: str, checked: Checked, note: str = "") -> HypothesisFlag:
        flag = HypothesisFlag.from_checked(name, checked, note)
        self.hypotheses.append(flag)
        return flag

    def add_flag(self, name: str, status: str, lhs="", rhs="", note: str = "") -> HypothesisFlag:
        flag = HypothesisFlag(name, status, fmt(lhs) if lhs != "" else "",
                              fmt(rhs) if rhs != "" else "", note)
        self.hypotheses.append(flag)
        return flag

    def add_slack(self, name: str, value) -> None:
        self.slacks[name] = fmt(value)

    @property
    def hypotheses_met(self) -> bool:
        """True when no resolved hypothesis fails (unresolved flags pass through)."""
        return all(f.status != FAILS for f in self.hypotheses)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "hypotheses": [
                {"name": f.name, "status": f.status, "lhs": f.lhs, "rhs": f.rhs,
                 "note": f.note}
                for f in self.hypotheses
            ],
            "witness": self.witness,
            "conclusion_holds": self.conclusion_holds,
            "slacks": dict(sorted(self.slacks.items())),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
