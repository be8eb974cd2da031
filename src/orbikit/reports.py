"""Validation and check reports with a stable rendered field order."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ValidationReport:
    subject: str
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)

    def note(self, message: str):
        self.notes.append(message)

    def render(self) -> str:
        lines = [f"subject: {self.subject}", f"status: {'valid' if self.ok else 'invalid'}"]
        lines.append(f"violations: {len(self.violations)}")
        lines.extend(f"- {v}" for v in self.violations)
        if self.notes:
            lines.append(f"notes: {len(self.notes)}")
            lines.extend(f"- {n}" for n in self.notes)
        return "\n".join(lines)

    def raise_if_invalid(self):
        if not self.ok:
            raise ValueError(self.render())
        return self


@dataclass
class CheckResult:
    """One named acceptance-style check inside a scenario run."""

    name: str
    passed: bool
    detail: str = ""
    value: float | None = None
    tolerance: float | None = None
    error: str | None = None  # "<Type>: <message>" when the check raised

    def as_dict(self):
        out = {"name": self.name, "passed": bool(self.passed), "detail": self.detail}
        if self.value is not None:
            out["value"] = float(self.value)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        if self.error is not None:
            out["error"] = self.error
        return out
