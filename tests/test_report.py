"""Report serialization: 17-significant-digit floats, JSON and CSV layout."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kahler_tube.base_geometry import ModelParams
from kahler_tube.checks import RunConfig, run_sweep, run_verify
from kahler_tube.report import (
    FIELD_BYTES,
    CheckResult,
    NonFiniteError,
    SweepResult,
    SweepRow,
    VerifyReport,
    format_float,
    format_floats,
)


def _reference_emit(value, indent: int) -> str:
    """The generic emitter ``VerifyReport.to_json`` replaced, kept as its reference."""
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
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(f'{pad}  "{k}": {_reference_emit(v, indent + 1)}' for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_reference_emit(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_json(report: VerifyReport) -> str:
    return _reference_emit(report.as_dict(), 0) + "\n"


def test_format_float_17_digits_roundtrip() -> None:
    for x in (1.0 / 3.0, 0.1, 2.0**-40, 1e300, -0.0, 12.5):
        assert float(format_float(x)) == x
    assert format_float(0.25) == "0.25"
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def _fields(x: np.ndarray) -> list[str]:
    """``format_floats(x)`` row by row, NUL bytes dropped."""
    return [row.tobytes().translate(None, b"\0").decode() for row in format_floats(x)]


def _ulps(x: float, count: int = 64) -> list[float]:
    """``x`` and the ``count`` doubles on each side of it."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def _halfway_ties() -> list[float]:
    """Doubles ``n / 2**e`` (n odd) whose exact decimal has 18 significant digits.

    Its last digit is a 5, so each is a tie at 17 digits: the correctly
    rounded form goes to the even 17th digit, up or down by n.
    """
    ties = [1 + 2.0**-17, 1 + 3 * 2.0**-17]
    for e in range(2, 26):
        lo, hi = -(-(10**17) // 5**e), (10**18 - 1) // 5**e
        for n in (lo, lo + 1, (lo + hi) // 2, (lo + hi) // 2 + 1, hi - 1, hi):
            if n % 2 and n < 2**53 and len(str(n * 5**e)) == 18:
                ties.append(n / 2**e)
    return ties


#: Signed zeros, the smallest subnormal, the ends of the fast domain and
#: every power of ten from 1e-5 to 1e17 with 64 ulps on each side, powers of
#: two, halfway ties, integers with trailing zeros and exponent forms.
EDGE_FLOATS = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e22, 1e-7, 1e300, 1.7976931348623157e308,
    *_ulps(1e-4), *_ulps(1e16),
    *(v for m in range(-5, 18) for v in _ulps(float(f"1e{m}"))),
    *(2.0**j for j in range(-30, 70)),
    *_halfway_ties(),
    *(float(d * 10**e) for d in (1, 12, 1200, 123456789, 99999999999999999) for e in range(13)),
]


def test_format_floats_edge_table_equals_format_float() -> None:
    x = np.array(EDGE_FLOATS + [-v for v in EDGE_FLOATS])
    assert len(_halfway_ties()) > 50
    assert format_floats(x).shape == (x.size, FIELD_BYTES)
    assert _fields(x) == [format_float(v) for v in x.tolist()]
    assert _fields(x.reshape(2, -1)) == _fields(x)


def test_format_floats_rejects_a_non_finite_entry() -> None:
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteError, match="finite"):
            format_floats(np.array([0.5, bad, 1e30]))


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e17, 1e17),
    )
)
@example(np.array([0.5, -0.0, 5e-324, 1e16, -1234.5, 9.9999999999999991e-05, 1e22, 0.1]))
def test_format_floats_equals_format_float(x: np.ndarray) -> None:
    # fast path and format_float fallback mixed in one array
    assert _fields(x) == [format_float(v) for v in x.tolist()]


def test_json_emission_is_valid_and_ordered() -> None:
    doc = {"b": 1.5, "a": [True, None, "x"], "c": {"k": 2}}
    text = VerifyReport(config=doc).to_json()
    assert text.endswith("\n")
    parsed = json.loads(text)["config"]
    assert parsed == {"b": 1.5, "a": [True, None, "x"], "c": {"k": 2}}
    # insertion order is preserved, not sorted
    assert list(parsed) == ["b", "a", "c"]


#: Reports of the five verify configurations: Kähler at (3,1,1),
#: (3,2,0.5), (4,1,1) and (5,1,1), and the offset run with its skipped rows.
GOLDEN_CONFIGS = [
    RunConfig(ModelParams(3, 1.0, 1.0), num_points=2, num_directions=5, seed=7),
    RunConfig(
        ModelParams(3, 2.0, 0.5), num_points=2, num_directions=5, seed=7,
        tolerance_overrides={"base_bianchi": 1e-9, "j_squared": 1, "local_symmetry": 0.0},
    ),
    RunConfig(ModelParams(4, 1.0, 1.0), num_points=2, num_directions=5, seed=7),
    RunConfig(ModelParams(5, 1.0, 1.0), num_points=1, num_directions=5, seed=7),
    RunConfig(
        ModelParams(3, 1.0, 1.0), num_points=2, num_directions=5, seed=7, custom_v_offset=0.1,
        tolerance_overrides={"nijenhuis_closed_form": 2.5},
    ),
]


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=["n3", "n3-c2-a0.5-tol", "n4", "n5", "offset-tol"])
def test_report_json_bytes_equal_the_generic_emitter(cfg: RunConfig) -> None:
    report = run_verify(cfg)
    assert report.to_json() == _reference_json(report)


def test_report_json_escapes_and_odd_values_equal_the_generic_emitter() -> None:
    # Details and reasons that need escapes, an int tolerance, a float
    # subclass, an empty config and an empty report.
    tricky = 'a "quoted" \\ path\nsecond line'
    report = VerifyReport(
        config={"nested": {"empty": {}, "list": [1, 2.5, None, "q\"\n"]}, "empty_list": []},
        checks=[
            CheckResult(name="alpha", tolerance=1, max_residual=np.float64(0.1), passed=True,
                        worst_point_id=0, detail=tricky),
            CheckResult(name='be"ta', tolerance=1e-6, status="skipped", reason=tricky),
            CheckResult(name="gamma", tolerance=0.0, max_residual=-0.0, passed=False,
                        worst_point_id=12, reason="r", detail="d"),
        ],
    )
    assert report.to_json() == _reference_json(report)
    assert json.loads(report.to_json())["checks"][0]["detail"] == tricky
    for empty in (VerifyReport(config={}), VerifyReport(config={}, checks=[])):
        assert empty.to_json() == _reference_json(empty)
    with pytest.raises(TypeError):
        VerifyReport(config={}, checks=[CheckResult(name="x", tolerance=np.int64(1))]).to_json()


def test_check_result_key_order_and_optional_fields() -> None:
    ran = CheckResult(
        name="alpha", tolerance=1e-6, max_residual=1e-9, passed=True, worst_point_id=3
    )
    d = ran.as_dict()
    assert list(d) == ["name", "max_residual", "tolerance", "pass", "worst_point_id", "status"]
    skipped = CheckResult(name="beta", tolerance=1e-6, status="skipped", reason="why")
    d2 = skipped.as_dict()
    assert d2["status"] == "skipped"
    assert d2["reason"] == "why"
    assert d2["max_residual"] is None
    assert d2["pass"] is None


def test_verdict_logic() -> None:
    ok = CheckResult(name="a", tolerance=1.0, max_residual=0.5, passed=True)
    bad = CheckResult(name="b", tolerance=1.0, max_residual=2.0, passed=False)
    skip = CheckResult(name="c", tolerance=1.0, status="skipped", reason="r")
    assert VerifyReport(config={}, checks=[ok, skip]).verdict == "PASS"
    assert VerifyReport(config={}, checks=[ok, bad]).verdict == "FAIL"
    assert VerifyReport(config={}, checks=[ok, bad]).all_passed is False
    # a skipped check does not mask a failure and does not fail by itself
    assert VerifyReport(config={}, checks=[skip]).verdict == "PASS"


def test_report_json_shape() -> None:
    rep = VerifyReport(
        config={"dim": 3},
        checks=[CheckResult(name="a", tolerance=1e-3, max_residual=1e-5, passed=True)],
    )
    parsed = json.loads(rep.to_json())
    assert list(parsed) == ["config", "checks", "verdict"]
    assert parsed["verdict"] == "PASS"
    assert parsed["checks"][0]["name"] == "a"


def test_sweep_csv_layout() -> None:
    result = SweepResult(t=np.array([0.5, 1.25]), values=np.array([[0.5, 0.82], [0.75, 0.6]]))
    text = result.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "point_id,t,direction_id,hol_sect_curv"
    assert lines[1] == "0,0.5,0,0.5"
    assert lines[2:5] == [
        "0,0.5,1,0.81999999999999995", "1,1.25,0,0.75", "1,1.25,1,0.59999999999999998",
    ]
    assert lines[-1].startswith("#summary,0.5,")
    assert result.minimum == 0.5
    assert result.maximum == 0.82
    assert math.isclose(result.relative_spread, (0.82 - 0.5) / 0.82)
    assert len(lines) == 1 + 4 + 1
    # rows are built when read, point-major, one per (point, direction)
    assert result.rows == [
        SweepRow(0, 0.5, 0, 0.5), SweepRow(0, 0.5, 1, 0.82),
        SweepRow(1, 1.25, 0, 0.75), SweepRow(1, 1.25, 1, 0.6),
    ]


def test_sweep_csv_rejects_a_non_finite_entry_in_any_row() -> None:
    # a NaN value in a later row, and a non-finite t of the first, a
    # middle and the last point
    for t, values in (
        ([0.5], [[0.5, 0.5, math.nan]]),
        ([0.5, math.inf], [[0.5, 0.5], [0.5, 0.5]]),
        ([math.nan, 0.5], [[0.5, 0.5], [0.5, 0.5]]),
        ([0.5, -math.inf, 0.5], [[0.5], [0.5], [0.5]]),
    ):
        with pytest.raises(ValueError, match="finite"):
            SweepResult(t=np.array(t), values=np.array(values)).to_csv()


def _csv_row_by_row(result: SweepResult) -> str:
    """The sweep CSV formatted row by row with ``format_float``."""
    rows = result.rows
    lines = ["point_id,t,direction_id,hol_sect_curv"]
    for row in rows:
        lines.append(f"{row.point_id},{format_float(row.t)},{row.direction_id},{format_float(row.value)}")
    lo = min(row.value for row in rows)
    hi = max(row.value for row in rows)
    spread = (hi - lo) / max(abs(lo), abs(hi))
    lines.append(f"#summary,{format_float(lo)},{format_float(hi)},{format_float(spread)}")
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 5e-324, 1e22, 1e-7]


@pytest.mark.parametrize(
    "t, values",
    [
        (EDGE_VALUES, [np.roll(EDGE_VALUES, k) for k in range(4)]),
        ([1e-7], [[5e-324]]),
        ([-0.0], [EDGE_VALUES + [-1e22, 0.1]]),
    ],
    ids=["edges", "1x1", "1xD"],
)
def test_sweep_csv_edge_values_equal_a_row_by_row_formatter(t, values) -> None:
    # signed zero, the smallest subnormal, an exponent form and a value
    # below 1e-4, in t and in the curvatures, through the shared template
    result = SweepResult(t=np.array(t, dtype=float), values=np.array(values, dtype=float))
    assert result.to_csv() == _csv_row_by_row(result)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(3, 1.0, 1.0), ModelParams(3, 2.0, 0.5),
        ModelParams(4, 1.0, 1.0), ModelParams(5, 1.0, 1.0),
    ],
    ids=["n3", "n3-c2-a0.5", "n4", "n5"],
)
def test_sweep_csv_equals_a_row_by_row_formatter(params: ModelParams) -> None:
    result = run_sweep(RunConfig(params, num_points=20, num_directions=30, seed=7))
    assert result.t.shape == (20,)
    assert result.values.shape == (20, 30)
    assert result.to_csv() == _csv_row_by_row(result)
