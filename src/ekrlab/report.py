"""Structured verdicts for theorem and inequality checks.

A VerdictReport records every hypothesis with both sides of its inequality
(as exactness-preserving strings), the located witness, whether the
conclusion holds, and the numeric slacks -- everything needed to reproduce
the check from its inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .numerics import Checked, _Frozen, fmt_rational, fmt_real

HOLDS = "holds"
FAILS = "fails"
UNRESOLVED = "unresolved"


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, Fraction)):
        return fmt_rational(Fraction(x))
    return fmt_real(x)


class HypothesisFlag(_Frozen):
    """One hypothesis: its name, status (holds / fails / unresolved), both
    sides of its inequality as strings ("" when it has none) and a note."""

    __slots__ = ("name", "status", "lhs", "rhs", "note")

    @classmethod
    def from_checked(cls, name: str, c: Checked, note: str = "") -> "HypothesisFlag":
        return cls(name, HOLDS if c.holds else FAILS, fmt(c.lhs), fmt(c.rhs), note)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


class VerdictReport:
    """A check's verdict, filled in as the check runs."""

    __slots__ = ("check", "hypotheses", "witness", "conclusion_holds",
                 "slacks", "notes")

    def __init__(self, check: str):
        self.check = check
        self.hypotheses = []
        self.witness = None
        self.conclusion_holds = None
        self.slacks = {}
        self.notes = []

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
