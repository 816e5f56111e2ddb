"""Check-suite orchestration: registry completeness, skip logic, overrides."""

import numpy as np
import pytest

from kahler_tube import checks, curvature, lifted_metric
from kahler_tube.base_geometry import ModelParams
from kahler_tube.checks import (
    CHECKS,
    DEFAULT_TOLERANCES,
    ConfigError,
    RunConfig,
    evaluate_point,
    run_sweep,
    run_verify,
)
from kahler_tube.lifted_metric import LiftProfile
from kahler_tube.sampling import sample_directions, sample_points

SMALL = RunConfig(ModelParams(3), num_points=2, num_directions=8, seed=7)


@pytest.fixture(scope="module")
def small_report():
    return run_verify(SMALL)


@pytest.fixture(scope="module")
def offset_report():
    cfg = RunConfig(
        ModelParams(3), num_points=2, num_directions=8, seed=7, custom_v_offset=0.1
    )
    return run_verify(cfg)


def test_config_validation() -> None:
    with pytest.raises(ConfigError):
        RunConfig(ModelParams(3), num_points=0)
    with pytest.raises(ConfigError):
        RunConfig(ModelParams(3), num_directions=-1)
    with pytest.raises(ConfigError):
        RunConfig(ModelParams(3), tolerance_overrides={"no_such_check": 1e-3})
    with pytest.raises(ConfigError):
        RunConfig(ModelParams(3), tolerance_overrides={"einstein_identity": -1.0})
    with pytest.raises(ConfigError):
        RunConfig(ModelParams(3), tolerance_overrides={"einstein_identity": float("nan")})
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(ModelParams(3), seed=-1)
    for offset in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="custom_v_offset"):
            RunConfig(ModelParams(3), custom_v_offset=offset)
    for field in ("num_points", "num_directions", "seed"):
        with pytest.raises(ConfigError, match=field):
            RunConfig(ModelParams(3), **{field: True})


def test_inadmissible_params_rejected_before_compute() -> None:
    cfg = RunConfig(ModelParams(3, curvature=-1.0), num_points=1, num_directions=1)
    with pytest.raises(ConfigError, match="unsatisfiable"):
        run_verify(cfg)
    with pytest.raises(ConfigError, match="unsatisfiable"):
        run_sweep(cfg)


def test_every_registered_check_reported_once(small_report) -> None:
    names = [c.name for c in small_report.checks]
    assert names == list(DEFAULT_TOLERANCES)


def test_all_checks_pass_on_integrable_profile(small_report) -> None:
    assert small_report.verdict == "PASS"
    for check in small_report.checks:
        assert check.status == "ran"
        assert check.passed, check.name
        assert check.worst_point_id is not None


def test_lower_bound_check_semantics(small_report) -> None:
    nonconst = next(c for c in small_report.checks if c.name == "hol_sect_nonconstancy")
    assert nonconst.max_residual > nonconst.tolerance  # passes by exceeding
    assert nonconst.passed


def test_offset_profile_dichotomy(offset_report) -> None:
    by_name = {c.name: c for c in offset_report.checks}
    assert offset_report.verdict == "FAIL"
    # the non-integrable profile must trip the Nijenhuis vanishing check ...
    nij = by_name["nijenhuis_closed_form"]
    assert nij.status == "ran" and not nij.passed
    assert nij.max_residual > 1e-3
    # ... while the closed form still matches the fd evaluation
    match = by_name["nijenhuis_fd_match"]
    assert match.status == "ran" and match.passed


def test_offset_profile_skips_integrable_only_checks(offset_report) -> None:
    by_name = {c.name: c for c in offset_report.checks}
    for registered in CHECKS:
        check = by_name[registered.name]
        if registered.integrable_only:
            assert check.status == "skipped", registered.name
            assert check.reason == "requires the integrable lift profile"
            assert check.max_residual is None
        else:
            assert check.status == "ran", registered.name
    # report completeness also holds in skip mode
    assert [c.name for c in offset_report.checks] == list(DEFAULT_TOLERANCES)


def test_tolerance_override_applies() -> None:
    cfg = RunConfig(
        ModelParams(3),
        num_points=1,
        num_directions=4,
        seed=7,
        tolerance_overrides={"einstein_identity": 1e-30},
    )
    report = run_verify(cfg)
    einstein = next(c for c in report.checks if c.name == "einstein_identity")
    assert einstein.tolerance == 1e-30
    assert not einstein.passed
    assert report.verdict == "FAIL"
    # independence: one failing check must not stop the others from running
    assert all(c.status == "ran" for c in report.checks)


def test_curvature_match_carries_family_detail(small_report) -> None:
    cm = next(c for c in small_report.checks if c.name == "curvature_match")
    assert cm.detail is not None
    for family in ("hhh", "hhv", "vvh", "vvv", "vhh", "vhv", "structural_zero"):
        assert family in cm.detail


def test_registry_internal_consistency() -> None:
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names) == 46
    assert list(DEFAULT_TOLERANCES) == names
    assert [c.name for c in CHECKS if c.lower_bound] == ["hol_sect_nonconstancy"]
    integrable_only = [c for c in CHECKS if c.integrable_only]
    # offset runs keep a meaningful core: more than half the battery still runs
    assert len(integrable_only) < len(CHECKS) / 2 + 4


@pytest.mark.parametrize("offset", [None, 0.1])
def test_evaluator_keys_match_running_registry_rows(offset) -> None:
    params = ModelParams(3)
    profile = LiftProfile(offset)
    (pt,) = sample_points(params, 1, 7)
    values, hol = evaluate_point(params, pt, profile, sample_directions(params, 4, 7))
    running = {c.name for c in CHECKS if profile.is_kahler or not c.integrable_only}
    assert set(values) == running - {"hol_sect_nonconstancy"}
    assert (hol is not None) == profile.is_kahler


def test_planted_coordinate_metric_error_shows_in_frame_rows(monkeypatch) -> None:
    # frame_roundtrip and lifted_orthogonality read the block-formula
    # coordinate metric back through the generic frame transform, so a 1e-9
    # error planted on one off-diagonal entry of the single-point metric
    # fails both 1e-12 rows.  The stacked complex metric fields of the
    # oracles are left alone.
    inner = lifted_metric.coordinate_metric

    def planted(geo, data):
        S = inner(geo, data)
        if S.ndim == 2 and np.isrealobj(S):
            S = S.copy()
            S[0, geo.n] += 1e-9
        return S

    monkeypatch.setattr(lifted_metric, "coordinate_metric", planted)
    cfg = RunConfig(ModelParams(3), num_points=1, num_directions=4, seed=7)
    rows = {r.name: r for r in run_verify(cfg).checks}
    for name in ("frame_roundtrip", "lifted_orthogonality"):
        assert rows[name].max_residual >= 0.99e-9, name
        assert not rows[name].passed, name


def test_planted_base_curvature_error_shows_in_constant_curvature_row(monkeypatch) -> None:
    # base_constant_curvature must read the recomputed base tensor, not the
    # closed form it is compared with: a 1e-8 error planted on every entry
    # of the base oracle's Riemann tensor fails the 1e-10 row.
    inner = curvature.curvature_from_metric_field

    def planted(metric_field_fn, z):
        jet, riem = inner(metric_field_fn, z)
        return jet, (riem + 1e-8 if np.shape(z) == (3,) else riem)

    monkeypatch.setattr(curvature, "curvature_from_metric_field", planted)
    cfg = RunConfig(ModelParams(3), num_points=1, num_directions=4, seed=7, custom_v_offset=0.1)
    row = next(r for r in run_verify(cfg).checks if r.name == "base_constant_curvature")
    assert 0.99e-8 <= row.max_residual <= 1.01e-8
    assert not row.passed


def test_missing_check_value_raises_instead_of_skipping(monkeypatch) -> None:
    def drop_einstein(*args):
        values, hol = evaluate_point(*args)
        del values["einstein_identity"]
        return values, hol

    monkeypatch.setattr(checks, "evaluate_point", drop_einstein)
    cfg = RunConfig(ModelParams(3), num_points=1, num_directions=4, seed=7)
    with pytest.raises(RuntimeError, match="einstein_identity"):
        run_verify(cfg)


def test_sweep_rows_and_summary() -> None:
    cfg = RunConfig(ModelParams(3), num_points=2, num_directions=5, seed=7)
    result = run_sweep(cfg)
    assert len(result.rows) == 10
    assert result.rows[0].point_id == 0
    assert result.rows[-1].point_id == 1
    assert result.relative_spread > 1e-3
    # rows are grouped by point and ordered by direction within a point
    for k in range(5):
        assert result.rows[k].direction_id == k
        assert result.rows[5 + k].direction_id == k
    assert result.rows[0].t == pytest.approx(result.rows[4].t)


def test_sweep_rejects_offset_profile() -> None:
    cfg = RunConfig(
        ModelParams(3), num_points=1, num_directions=2, seed=7, custom_v_offset=0.1
    )
    with pytest.raises(ConfigError, match="integrable"):
        run_sweep(cfg)


def test_determinism_of_report_objects() -> None:
    rep1 = run_verify(SMALL)
    rep2 = run_verify(SMALL)
    assert rep1.to_json() == rep2.to_json()
