"""Report serialization: 17-significant-digit floats, JSON and CSV layout."""

import json
import math

import pytest

from kahler_tube.report import (
    CheckResult,
    SweepResult,
    SweepRow,
    VerifyReport,
    format_float,
    to_json,
)


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
    text = to_json(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"b": 1.5, "a": [True, None, "x"], "c": {"k": 2}}
    # insertion order is preserved, not sorted
    assert list(parsed) == ["b", "a", "c"]


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
    rows = [
        SweepRow(point_id=0, t=0.5, direction_id=0, value=0.5),
        SweepRow(point_id=0, t=0.5, direction_id=1, value=0.82),
        SweepRow(point_id=1, t=1.25, direction_id=0, value=0.75),
    ]
    result = SweepResult(rows=rows)
    text = result.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "point_id,t,direction_id,hol_sect_curv"
    assert lines[1] == "0,0.5,0,0.5"
    assert lines[-1].startswith("#summary,0.5,")
    assert result.minimum == 0.5
    assert result.maximum == 0.82
    assert math.isclose(result.relative_spread, (0.82 - 0.5) / 0.82)
    assert len(lines) == 1 + 3 + 1


def test_sweep_csv_rejects_a_non_finite_entry_in_any_row() -> None:
    t = 0.5
    for bad in (
        SweepRow(point_id=0, t=t, direction_id=2, value=math.nan),
        SweepRow(point_id=1, t=math.inf, direction_id=0, value=0.5),
    ):
        rows = [SweepRow(point_id=0, t=t, direction_id=k, value=0.5) for k in range(2)]
        with pytest.raises(ValueError, match="finite"):
            SweepResult(rows=rows + [bad]).to_csv()
