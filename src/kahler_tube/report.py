"""Report data structures and byte-deterministic serialization.

The JSON emitter is hand-rolled for one reason: the report contract pins
floating-point fields to 17 significant digits, while ``json.dumps`` uses
shortest-roundtrip repr.  Everything else (key order, spacing) is fixed by
construction so reruns with the same config produce identical bytes.  The
config goes through the generic ``_emit``; every check row has the same
keys, so ``VerifyReport.to_json`` writes each from one template.

The sweep result is held by column: a ``(points,)`` array of energy
densities and a ``(points, directions)`` array of curvatures.  ``to_csv``
writes each point's lines with one ``%`` on one template shared by every
point, so no per-row object stands between the curvature array and the
text; ``SweepResult.rows`` builds the row tuples only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np


class NonFiniteError(ValueError):
    """A report or sweep table would hold a NaN or an infinity (CLI exit code 2)."""


def format_float(x: float) -> str:
    """17-significant-digit decimal form, round-trip exact for doubles."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteError("reports must contain finite numbers only")
    return format(x, ".17g")


def relative_spread(lo: float, hi: float) -> float:
    """(hi - lo) over the larger of |lo| and |hi|; 0.0 when both vanish."""
    scale = max(abs(lo), abs(hi))
    return (hi - lo) / scale if scale > 0.0 else 0.0


def _quoted(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _emit(value: Any, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_emit(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_emit(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


#: ``_emit`` of a check row's scalar types, by exact type; others use ``_emit``.
_SCALARS = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: format_float,
    str: _quoted,
}

#: One check row of the report, at its indentation in the document.
_ROW = (
    '    {{\n      "name": {},\n      "max_residual": {},\n      "tolerance": {},\n'
    '      "pass": {},\n      "worst_point_id": {},\n      "status": {}{}\n    }}'
)


def _row_value(value: Any) -> str:
    """``_emit`` of a row's field value (row fields sit at indent 3)."""
    emit = _SCALARS.get(type(value))
    return emit(value) if emit is not None else _emit(value, 3)


def _row_json(check: CheckResult) -> str:
    """``_emit(check.as_dict(), 2)``, from ``_ROW``."""
    optional = ""
    if check.reason is not None:
        optional += ',\n      "reason": ' + _row_value(check.reason)
    if check.detail is not None:
        optional += ',\n      "detail": ' + _row_value(check.detail)
    return _ROW.format(
        _row_value(check.name), _row_value(check.max_residual), _row_value(check.tolerance),
        _row_value(check.passed), _row_value(check.worst_point_id), _row_value(check.status), optional,
    )


@dataclass
class CheckResult:
    """Outcome of one named check, aggregated over all sampled points."""

    name: str
    tolerance: float
    max_residual: float | None = None
    passed: bool | None = None
    worst_point_id: int | None = None
    status: str = "ran"
    reason: str | None = None
    detail: str | None = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_point_id": self.worst_point_id,
            "status": self.status,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class VerifyReport:
    """Full certification report: config echo, per-check rows, verdict."""

    config: dict[str, Any]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        ran = [c for c in self.checks if c.status == "ran"]
        return "PASS" if all(c.passed for c in ran) else "FAIL"

    @property
    def all_passed(self) -> bool:
        return self.verdict == "PASS"

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        """``as_dict`` as JSON with two-space indents; no row dict is built."""
        rows = ",\n".join(map(_row_json, self.checks))
        checks = f"[\n{rows}\n  ]" if self.checks else "[]"
        return f'{{\n  "config": {_emit(self.config, 1)},\n  "checks": {checks},\n  "verdict": {_emit(self.verdict, 1)}\n}}\n'


class SweepRow(NamedTuple):
    """One sweep table row: the value at one (point, direction) pair."""

    point_id: int
    t: float
    direction_id: int
    value: float


@dataclass
class SweepResult:
    """Holomorphic-sectional-curvature sweep, held by column.

    ``t[i]`` is the energy density of point ``i`` (shape ``(points,)``) and
    ``values[i, j]`` the curvature at point ``i`` in direction ``j`` (shape
    ``(points, directions)``).
    """

    t: np.ndarray
    values: np.ndarray

    @property
    def rows(self) -> list[SweepRow]:
        """One row per (point, direction), point-major; built when read."""
        return [
            SweepRow(point_id, t, direction_id, value)
            for point_id, (t, row) in enumerate(zip(self.t.tolist(), self.values.tolist()))
            for direction_id, value in enumerate(row)
        ]

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))

    @property
    def maximum(self) -> float:
        return float(np.max(self.values))

    @property
    def relative_spread(self) -> float:
        return relative_spread(self.minimum, self.maximum)

    def to_csv(self) -> str:
        if not np.isfinite(self.values).all():
            raise NonFiniteError("reports must contain finite numbers only")
        lines = ["point_id,t,direction_id,hol_sect_curv"]
        # One template holds a point's lines; "@" marks each line's
        # "point_id,t," prefix and ``%.17g`` is ``format_float``'s form.
        template = "\n".join(f"@{j},%.17g" for j in range(self.values.shape[1]))
        for point_id, (t, row) in enumerate(zip(self.t.tolist(), self.values.tolist())):
            # t is formatted (and checked for finiteness) once per point.
            lines.append(template.replace("@", f"{point_id},{format_float(t)},") % tuple(row))
        lo, hi = self.minimum, self.maximum
        lines.append(
            f"#summary,{format_float(lo)},{format_float(hi)},"
            f"{format_float(relative_spread(lo, hi))}"
        )
        return "\n".join(lines) + "\n"
