"""Report data structures and byte-deterministic serialization.

The JSON emitter is hand-rolled for one reason: the report contract pins
floating-point fields to 17 significant digits, while ``json.dumps`` uses
shortest-roundtrip repr.  Everything else (key order, spacing) is fixed by
construction so reruns with the same config produce identical bytes.  The
config goes through the generic ``_emit``; every check row has the same
keys, so ``VerifyReport.to_json`` writes each from one template.

The sweep result is held by column: a ``(points,)`` array of energy
densities and a ``(points, directions)`` array of curvatures, and
``SweepResult.rows`` builds row tuples only when read.  ``to_csv`` writes
its floats with ``format_floats``, the array twin of ``format_float``: for
``1e-4 <= |x| < 1e16`` it finds the correctly rounded (half-even)
17-digit significand with float64 arithmetic alone.  With
``k = 16 - floor(log10|x|)``, Dekker's TwoProduct gives ``|x| 10^k`` as
``hi + lo`` exactly (``10^k`` is an exact double for ``k <= 22``); once
``hi + lo`` lies in ``[1e16, 1e17)``, after at most one step of ``k``
where ``log10`` misses a power of ten, ``hi >= 2^53`` is an even integer,
so ``hi + rint(lo)`` is the half-even rounding.  Every other value (zero,
subnormals, e-notation, ``|x| >= 1e16``) goes through ``format_float``, so
the CSV bytes are those of ``%.17g``.
"""

from __future__ import annotations

import functools
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


#: Bytes of one ``format_floats`` field, five little-endian words: byte 0
#: holds the sign, bytes 1-5 the "0." and zeros of a value below 1, digit
#: i = 0..16 of the significand sits at byte 2i + 7 and the byte before it
#: holds the decimal point when one goes there.  Unused bytes are NUL.
FIELD_BYTES = 40

#: ``10**k`` for k = 0..22, every one an exact double.
_POW10 = np.array([float(10**k) for k in range(23)])


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a = hi + lo`` exactly, each half 26 significant bits or fewer."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k = hi + lo`` exactly: Dekker's TwoProduct, without FMA."""
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


@functools.cache
def _field_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of ``format_floats``, built by numpy on first use.

    ``digits[g]``: the word of the four digits of ``g < 10**4`` at its odd
    bytes.  ``last[j - 1, g]``: the index in the significand of the last
    nonzero digit of ``g`` as its group j = 1..4 (digits 4j-3..4j), 0 when
    ``g = 0``.  ``keep`` and ``marks``: the field's AND and OR masks, one
    row per (exponent + 4, last nonzero digit, negative).  ``keep`` passes
    the digits up to the last nonzero one or the units digit, whichever
    comes later; ``marks`` adds the sign, the "0." and zeros of a negative
    exponent, and the decimal point after the units digit when a nonzero
    digit follows it.
    """
    group = np.indices((10,) * 4, dtype=np.int8).reshape(4, -1)  # digits of 0..9999
    words = np.zeros((10_000, 8), np.int8)
    words[:, 1::2] = group.T + ord("0")
    position = np.full(10_000, -1, np.int8)
    for i in range(4):
        position[group[i] != 0] = i
    last = np.where(position >= 0, position + 4 * np.arange(4, dtype=np.int8)[:, None] + 1, 0)

    exponent = np.arange(-4, 17, dtype=np.int8)[:, None, None, None]
    last_digit = np.arange(17, dtype=np.int8)[None, :, None, None]
    negative = np.arange(2, dtype=np.uint8)[None, None, :, None]
    byte = np.arange(FIELD_BYTES, dtype=np.int8)
    keep = (byte % 2 == 1) & (byte >= 7) & (byte <= 2 * np.maximum(exponent, last_digit) + 7)
    point = (byte == 2 * exponent + 8) & (exponent >= 0) & (exponent < last_digit)
    below_one = np.frombuffer(b"\0" + b"0.000".ljust(FIELD_BYTES - 1, b"\0"), np.uint8)
    marks = (
        (byte == 0) * negative * np.uint8(ord("-"))
        + ((byte < 2 - exponent) & (exponent < 0)) * below_one
        + point * np.uint8(ord("."))
    )
    keep = np.broadcast_to(keep * np.uint8(255), marks.shape)

    def rows(mask: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(mask).reshape(-1, FIELD_BYTES).view(f"V{FIELD_BYTES}").ravel()

    return words.view("<u8").ravel(), last, rows(keep), rows(marks)


def format_floats(x: np.ndarray) -> np.ndarray:
    """``format_float`` of every entry of ``x``, one NUL-padded field a row.

    Returns an ``(x.size, FIELD_BYTES)`` uint8 matrix whose row i, with its
    NUL bytes dropped, is ``format_float(x.flat[i])`` in ASCII.  Values with
    ``1e-4 <= |x| < 1e16`` take the float64 route of the module docstring;
    every other value goes through ``format_float`` itself, which raises
    ``NonFiniteError`` on a NaN or an infinity.
    """
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    # One step of k where log10 missed a power of ten puts hi + lo in
    # [1e16, 1e17); by Sterbenz hi - 1e16 is exact where it is small, so
    # each sign below is that of hi + lo - 1e16 (1e17).
    step = ((hi - 1e16) + lo < 0).view(np.int8) - ((hi - 1e17) + lo >= 0).view(np.int8)
    if step.any():
        k += step
        hi, lo = _scaled(a, k)
    significand = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = significand == 10**17
    exponent = 16 - k + carry
    # The 17 digits as the leading one and four groups of four.
    groups = np.empty((5, x.size), np.int64)
    rest = np.where(carry, 10**16, significand)
    for j in range(4, 0, -1):
        quotient = rest // 10_000
        groups[j] = rest - quotient * 10_000
        rest = quotient
    groups[0] = rest
    digits, last, keep, marks = _field_tables()
    last_digit = np.maximum(
        np.maximum(last[0][groups[1]], last[1][groups[2]]),
        np.maximum(last[2][groups[3]], last[3][groups[4]]),
    )
    row = ((exponent + 4) * 17 + last_digit) * 2 + (x < 0)
    words = np.take(keep, row).view("<u8").reshape(x.size, 5)
    words &= np.take(digits, groups).T
    words |= np.take(marks, row).view("<u8").reshape(x.size, 5)
    out = words.view(np.uint8)
    for i in np.flatnonzero(~fast):
        out[i] = np.frombuffer(format_float(x[i]).encode().ljust(FIELD_BYTES, b"\0"), np.uint8)
    return out


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


#: Bytes of one tile of ``SweepResult.to_csv``'s line matrix.  Measured on
#: a (3,1,1) sweep of 100 x 100 (92-byte lines, so 14 points a tile): no
#: minor page fault a warm run_sweep + to_csv pass, against 97 a pass with
#: 48 or 96 KiB tiles and 509 with one untiled matrix; smaller tiles also
#: pay the kernel's fixed cost more often.
_CSV_TILE_BYTES = 128 * 1024


def _id_column(count: int) -> np.ndarray:
    """``"0,"`` to ``f"{count - 1},"`` as the NUL-padded rows of a uint8 matrix."""
    return np.array([f"{i}," for i in range(count)], dtype="S").view(np.uint8).reshape(count, -1)


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
        """The table as CSV: a header, one line per (point, direction), a summary.

        The bytes are those of ``%.17g``.  Floats with ``1e-4 <= |x| < 1e16``
        are written by ``format_floats`` without a float-to-decimal call:
        ``|x| 10^k = hi + lo`` exactly by TwoProduct (``10^k`` exact for
        ``k <= 22``), one step of ``k`` where ``log10`` missed a power of ten,
        and ``hi + rint(lo)`` rounds half-even because ``hi >= 2^53`` is an
        even integer.  Every other value goes through ``format_float``.  The
        fields go into a NUL-padded byte matrix of lines, one tile of points
        at a time: the ``"\\npoint_id,t,"`` prefix and the ``"direction_id,"``
        column are broadcast into it, and the tile's text is its bytes with
        the NULs dropped.  ``t`` and ``values`` are checked for finiteness
        once.
        """
        if not (np.isfinite(self.t).all() and np.isfinite(self.values).all()):
            raise NonFiniteError("reports must contain finite numbers only")
        points, directions = self.values.shape
        prefix = np.concatenate(
            [np.full((points, 1), ord("\n"), np.uint8), _id_column(points),
             format_floats(self.t), np.full((points, 1), ord(","), np.uint8)],
            axis=1,
        )
        direction_ids = _id_column(directions)
        ids_at = prefix.shape[1]
        value_at = ids_at + direction_ids.shape[1]
        tile = max(1, _CSV_TILE_BYTES // (directions * (value_at + FIELD_BYTES)))
        parts = ["point_id,t,direction_id,hol_sect_curv"]
        for start in range(0, points, tile):
            values = self.values[start:start + tile]
            lines = np.empty(values.shape + (value_at + FIELD_BYTES,), np.uint8)
            lines[..., :ids_at] = prefix[start:start + tile, None]
            lines[..., ids_at:value_at] = direction_ids
            lines[..., value_at:] = format_floats(values).reshape(values.shape + (FIELD_BYTES,))
            parts.append(lines.tobytes().translate(None, b"\0").decode())
        lo, hi = self.minimum, self.maximum
        parts.append(f"\n#summary,{format_float(lo)},{format_float(hi)},{format_float(relative_spread(lo, hi))}\n")
        return "".join(parts)
