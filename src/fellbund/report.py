"""Validation reports: every validator returns one instead of raising.

A report lists each violated condition with a witness (where it failed and
the numerical residual).  Structural errors that make further checking
meaningless (dangling references, dimension mismatches) raise ValueError
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Violation:
    check: str
    where: str
    residual: float | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out: dict = {"check": self.check, "where": self.where}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        parts = [f"{self.check} at {self.where}"]
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3e}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, where: str, residual: float | None = None, detail: str = "") -> None:
        """A violation; a residual that overflowed is named in the detail instead."""
        if residual is not None and not math.isfinite(residual):
            residual, detail = None, "; ".join(filter(None, [detail, "residual overflows"]))
        self.violations.append(Violation(check, where, residual, detail))

    def require(self, condition: bool, check: str, where: str,
                residual: float | None = None, detail: str = "") -> None:
        if not condition:
            self.add(check, where, residual, detail)

    def check_residual(self, residual: float, tol: float, check: str, where: str,
                       detail: str = "") -> None:
        if not residual <= tol:
            self.add(check, where, float(residual), detail)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        if self.ok:
            lines = [f"{self.subject}: OK"]
        else:
            lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
            lines += [f"  - {v}" for v in self.violations]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)
