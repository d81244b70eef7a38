"""Machine-readable run reports with byte-stable serialization.

The serializer is deliberately hand-rolled: object keys sorted, floats
rendered with 17 significant digits (round-trip exact for doubles), no
whitespace, no timestamps, non-finite numbers rejected. Identical runs
therefore produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCHEMA_ID = "contactconn-report/1"


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one invariant suite over all usable points."""

    name: str
    passed: bool
    residuals: dict[str, float]
    points_used: int

    def as_json(self) -> dict:
        return {
            "passed": self.passed,
            "residuals": dict(self.residuals),
            "points_used": self.points_used,
        }


@dataclass(frozen=True)
class PointRecord:
    """Per-point facts: location, scaling factor, spectrum, flags."""

    index: int
    point: tuple[float, ...]
    skipped: bool
    reason: str | None = None
    mu: float | None = None
    spectrum: tuple[float, ...] | None = None

    def as_json(self) -> dict:
        out: dict = {
            "index": self.index,
            "point": list(self.point),
            "skipped": self.skipped,
        }
        if self.skipped:
            out["reason"] = self.reason or ""
        else:
            out["mu"] = self.mu
            out["lambda"] = list(self.spectrum or ())
        return out


@dataclass(frozen=True)
class Report:
    manifold: str
    dim: int
    seed: int
    requested_points: int
    skipped_points: int
    suites: tuple[SuiteResult, ...]
    points: tuple[PointRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def as_json(self) -> dict:
        names = [s.name for s in self.suites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate suite entries in report: {names}")
        return {
            "schema": SCHEMA_ID,
            "manifold": self.manifold,
            "dim": self.dim,
            "seed": self.seed,
            "requested_points": self.requested_points,
            "skipped_points": self.skipped_points,
            "passed": self.passed,
            "suites": {s.name: s.as_json() for s in self.suites},
            "points": [p.as_json() for p in sorted(self.points, key=lambda r: r.index)],
        }


# JSON string escapes: the quote, the backslash and each control
# character below 0x20 as \u00XX; every other character stands as it is.
_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(i): f"\\u{i:04x}" for i in range(0x20)}}
)


def _canon(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in report: {value!r}")
        return f"{value:.17g}"
    if isinstance(value, str):
        return '"' + value.translate(_ESCAPES) + '"'
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"report object keys must be strings, got {k!r}")
        inner = ",".join(f"{_canon(k)}:{_canon(value[k])}" for k in sorted(value))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def render_report(report: Report) -> str:
    """Canonical single-line JSON for the report, with trailing newline."""
    return _canon(report.as_json()) + "\n"
