"""Verification report containers.

Checks throughout the package return structured reports rather than bare
booleans: each named check records the worst residual seen, the tolerance
it was held to, and a locating witness on failure.  Reports serialize to
JSON for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    witness: Any = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "witness": _jsonable(self.witness),
        }


@dataclass
class VerificationReport:
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckReport) -> None:
        self.checks.append(check)

    def failures(self) -> list[CheckReport]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _jsonable(obj: Any) -> Any:
    """Coerce numpy scalars/containers into plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "item") and getattr(obj, "ndim", 1) == 0:
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)
