"""Check-suite orchestration: registry completeness, skip logic, overrides."""

import numpy as np
import pytest

from kahler_tube import checks, connection, curvature, lifted_metric
from kahler_tube.base_geometry import DomainError, ModelParams
from kahler_tube.checks import (
    CHECKS,
    DEFAULT_TOLERANCES,
    ConfigError,
    RunConfig,
    evaluate_points,
    run_sweep,
    run_verify,
)
from kahler_tube.frames import BundlePoint
from kahler_tube.lifted_metric import LiftProfile
from kahler_tube.sampling import sample_chart_points, sample_directions

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
    pts = BundlePoint(*sample_chart_points(params, 2, 7))
    values, curvatures = evaluate_points(params, pts, profile, sample_directions(params, 5, 7))
    running = {c.name for c in CHECKS if profile.is_kahler or not c.integrable_only}
    # run_verify takes the cross-point row from the curvatures of every tile
    assert set(values) == running - {"hol_sect_nonconstancy"}
    assert all(len(column) == 2 for column in values.values())
    assert (curvatures is not None) == profile.is_kahler
    if curvatures is not None:
        assert curvatures.shape == (2, 5)


def test_planted_coordinate_metric_error_shows_in_frame_rows(monkeypatch) -> None:
    # frame_roundtrip and lifted_orthogonality read the block-formula
    # coordinate metric back through the generic frame transform, so a 1e-9
    # error planted on one off-diagonal entry of the real metric at the
    # tile's points fails both 1e-12 rows.  The complex metric fields of the
    # oracles are left alone.
    inner = lifted_metric.coordinate_metric

    def planted(geo, data):
        S = inner(geo, data)
        if np.isrealobj(S):
            S = S.copy()
            S[..., 0, geo.n] += 1e-9
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
        return jet, (riem + 1e-8 if np.shape(z)[-1] == 3 else riem)  # the base chart's stack, not the lifted metric

    monkeypatch.setattr(curvature, "curvature_from_metric_field", planted)
    cfg = RunConfig(ModelParams(3), num_points=1, num_directions=4, seed=7, custom_v_offset=0.1)
    row = next(r for r in run_verify(cfg).checks if r.name == "base_constant_curvature")
    assert 0.99e-8 <= row.max_residual <= 1.01e-8
    assert not row.passed


def test_worst_over_points_first_non_finite_value_wins() -> None:
    nan, inf = float("nan"), float("inf")
    worst = checks._worst_over_points({
        "middle": [1e-9, nan, 2e-9],
        "last": [1e-9, 3e-9, nan],
        "first": [nan, 1.0, 2.0],
        "inf_then_nan": [1.0, inf, nan],
        "tie": [1e-9, 2e-9, 2e-9],
        "detail": [(1.0, "a"), (3.0, "b"), (3.0, "c")],
        "array": np.array([0.0, 4e-16, 1e-16]),
    })
    assert worst["middle"][1:] == (1, None) and np.isnan(worst["middle"][0])
    assert worst["last"][1:] == (2, None) and np.isnan(worst["last"][0])
    assert worst["first"][1:] == (0, None) and np.isnan(worst["first"][0])
    assert worst["inf_then_nan"] == (inf, 1, None)
    assert worst["tie"] == (2e-9, 1, None)  # ties keep the first point
    assert worst["detail"] == (3.0, 1, "b")
    assert worst["array"] == (4e-16, 1, None)


@pytest.mark.parametrize(("dim", "count", "planted_at"), [(3, 5, 2), (3, 5, 4), (4, 7, 5)])
def test_error_planted_at_one_point_of_a_stack_lands_on_that_point(dim, count, planted_at, monkeypatch) -> None:
    # A 1e-9 error planted on one entry of the real coordinate metric at one
    # sampled point moves frame_roundtrip there, far above every other
    # point's round-off, and only there: the report names that point.  So
    # does a relative error of 1e-2 exp(x_0 + p_0) planted in the hhh family
    # on that point's step geometry, which moves the family's value and its
    # frame derivatives along both distributions: it fails curvature_match
    # and both parallel_hhh rows at that point.  At (4,1,1) seven points
    # make four tiles of two points or one, and point 5 is the first of the
    # fourth.
    params = ModelParams(dim)
    target = sample_chart_points(params, count, 7)[0][planted_at]
    inner = lifted_metric.coordinate_metric
    inner_blocks = curvature.curvature_blocks

    def planted(geo, data):
        S = inner(geo, data)
        if np.isrealobj(S):
            hit = np.all(geo.x == target, axis=-1)
            S = S.copy()
            S[hit, 0, dim] += 1e-9
        return S

    def planted_blocks(geo, data, families=("hhh", "vvh", "vhh", "vhv")):
        T = inner_blocks(geo, data, families)
        hit = np.all(geo.x.real == target, axis=-1)  # the target's 2n step points
        scale = np.where(hit, 1.0 + 1e-2 * np.exp(geo.x[..., 0] + geo.p[..., 0]), 1.0)
        if "hhh" in families:
            T[..., families.index("hhh"), :, :, :, :] *= scale[..., None, None, None, None]
        return T

    monkeypatch.setattr(lifted_metric, "coordinate_metric", planted)
    monkeypatch.setattr(curvature, "curvature_blocks", planted_blocks)
    for offset in (None, 0.1):
        cfg = RunConfig(params, num_points=count, num_directions=4, seed=7, custom_v_offset=offset)
        rows = {r.name: r for r in run_verify(cfg).checks}
        assert rows["frame_roundtrip"].max_residual >= 0.99e-9
        planted_rows = ["frame_roundtrip"]
        if offset is None:
            planted_rows += ["curvature_match", "parallel_hhh_horizontal", "parallel_hhh_vertical"]
        for name in planted_rows:
            assert rows[name].worst_point_id == planted_at, name
            assert not rows[name].passed, name


def test_nan_planted_at_one_point_reaches_only_that_points_integrable_rows(monkeypatch) -> None:
    # A NaN planted in the hhh family on the step geometry of point 2 of a
    # stack of five makes the rows that read that family NaN at point 2 and
    # nowhere else, and so are point 2's sampled curvatures; every other
    # value of the stack, at point 2 and at the other points, is bitwise the
    # clean one.
    params = ModelParams(3)
    pts = BundlePoint(*sample_chart_points(params, 5, 7))
    directions = sample_directions(params, 5, 7)
    clean, clean_curvatures = evaluate_points(params, pts, LiftProfile(), directions)
    inner = curvature.curvature_blocks

    def planted(geo, data, families=("hhh", "vvh", "vhh", "vhv")):
        T = inner(geo, data, families)
        if "hhh" in families:
            T[2, :, families.index("hhh")] = np.nan
        return T

    monkeypatch.setattr(curvature, "curvature_blocks", planted)
    values, curvatures = evaluate_points(params, pts, LiftProfile(), directions)
    reads_hhh = {"curvature_match", "curvature_antisymmetry", "local_symmetry",
                 "parallel_hhh_horizontal", "parallel_hhh_vertical", "hol_sect_scale_invariance"}
    assert np.isnan(curvatures[2]).all()
    np.testing.assert_array_equal(np.delete(curvatures, 2, axis=0), np.delete(clean_curvatures, 2, axis=0))
    assert set(values) == set(clean)
    for name, column in values.items():
        got = np.array([entry[0] if isinstance(entry, tuple) else entry for entry in column], dtype=float)
        want = np.array([entry[0] if isinstance(entry, tuple) else entry for entry in clean[name]], dtype=float)
        if name in reads_hhh:
            assert np.isnan(got[2]), name
            got[2] = want[2]
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize(
    "block", [(slice(None, 3), slice(None, 3), slice(None, 3)), (slice(3, None), slice(None, 3), slice(3, None)),
              (slice(3, None), slice(3, None), slice(3, None))],
    ids=["hhh", "vhv", "vvv"],
)
def test_connection_match_catches_the_w_blocks_local_symmetry_does_not_read(block, monkeypatch) -> None:
    # local_symmetry reads W[:n, n:, :n] in the parallel rows and
    # W[:n, :n, n:] and W[n:, :n, :n] in the odd sectors.  The horizontal
    # diagonal blocks (base.gamma, which the parallel rows read instead, and
    # minus its transpose) and W[n:, n:, n:] (the dual of the mixed block)
    # it never reads: a relative 1e-4 error in any one of them alone must
    # fail connection_match against the Koszul oracle.
    inner = connection.coefficients_from_geometry

    def planted(geo, data):
        W = inner(geo, data)
        W[(..., *block)] *= 1.0 + 1e-4
        return W

    monkeypatch.setattr(connection, "coefficients_from_geometry", planted)
    report = run_verify(RunConfig(ModelParams(3, 2.0, 0.5), num_points=4, seed=7))
    assert not next(c for c in report.checks if c.name == "connection_match").passed


def test_missing_check_value_raises_instead_of_skipping(monkeypatch) -> None:
    def drop_einstein(params, pts, profile, directions):
        values, curvatures = evaluate_points(params, pts, profile, directions)
        del values["einstein_identity"]
        return values, curvatures

    monkeypatch.setattr(checks, "evaluate_points", drop_einstein)
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


def test_sweep_rejects_a_zero_direction_in_the_batch(monkeypatch) -> None:
    # run_sweep takes the direction norms once for all points, outside the
    # single-point kernel; a zero row must still raise, not divide by zero.
    def with_zero_row(params, count, seed):
        directions = sample_directions(params, count, seed)
        directions[3] = 0.0
        return directions

    monkeypatch.setattr(checks, "sample_directions", with_zero_row)
    cfg = RunConfig(ModelParams(3), num_points=4, num_directions=6, seed=7)
    with pytest.raises(DomainError, match="nonzero direction"):
        run_sweep(cfg)


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
