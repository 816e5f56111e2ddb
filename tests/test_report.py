"""Report serialization: 17-significant-digit floats, JSON and CSV layout."""

import json
import math

import numpy as np
import pytest

from kahler_tube.base_geometry import ModelParams
from kahler_tube.checks import RunConfig, run_sweep, run_verify
from kahler_tube.report import (
    CheckResult,
    SweepResult,
    SweepRow,
    VerifyReport,
    format_float,
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
