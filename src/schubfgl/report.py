"""Uniform result reporting for the verification routines.

A report is a flat list of labelled cases.  A case marked annotated
records a known, documented discrepancy: it does not count against
`passed`, but strict consumers may still reject reports that carry
unexpected findings.  A report without cases checked nothing and does
not pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckCase:
    label: str
    ok: bool
    annotated: bool = False
    detail: str = ""


@dataclass
class CheckReport:
    name: str
    cases: list[CheckCase] = field(default_factory=list)

    def add(self, label: str, ok: bool, annotated: bool = False, detail: str = "") -> None:
        self.cases.append(CheckCase(label, ok, annotated, detail))

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(c.ok for c in self.cases if not c.annotated)

    @property
    def findings(self) -> list[CheckCase]:
        """Annotated cases that did not hold literally."""
        return [c for c in self.cases if c.annotated and not c.ok]

    def to_json_obj(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "cases": [
                {
                    "label": c.label,
                    "ok": c.ok,
                    "annotated": c.annotated,
                    "detail": c.detail,
                }
                for c in self.cases
            ],
            "findings": [c.label for c in self.findings],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.cases:
            if c.ok:
                status = "ok"
            elif c.annotated:
                status = "FINDING"
            else:
                status = "FAIL"
            line = f"[{status}] {self.name}: {c.label}"
            if c.detail and not c.ok:
                line += f" ({c.detail})"
            lines.append(line)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{self.name}: {verdict} "
            f"({sum(1 for c in self.cases if c.ok)}/{len(self.cases)} cases ok, "
            f"{len(self.findings)} findings)"
        )
        return lines
