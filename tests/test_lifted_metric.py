"""Lifted metric on the tube: components, inverse, tube domain, profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahler_tube.base_geometry import DomainError, ModelParams
from kahler_tube.frames import BundlePoint, frame_transform, point_geometry
from kahler_tube.lifted_metric import (
    KAHLER,
    LiftProfile,
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
    kahler_identity_residual,
    lifted_field,
    metric_field,
    tube_check,
    w_consistency_residual,
)

PARAMS = ModelParams(3)
# Flat-origin anchor: x = 0, p = (1,0,0) gives t = 1/2.
ANCHOR = BundlePoint(x=np.zeros(3), p=np.array([1.0, 0.0, 0.0]))


def test_anchor_components() -> None:
    data = components_from_geometry(point_geometry(PARAMS, ANCHOR))
    assert data.t == pytest.approx(0.5, abs=1e-15)
    assert data.v == pytest.approx(1.0, abs=1e-14)
    assert data.w == pytest.approx(-4.0 / 3.0, abs=1e-14)
    assert np.max(np.abs(data.G - np.diag([1.5, 0.5, 0.5]))) < 1e-14
    assert np.max(np.abs(data.H - np.diag([2.0 / 3.0, 2.0, 2.0]))) < 1e-14


def test_inverse_pair_and_positivity() -> None:
    pt = BundlePoint(x=np.array([0.2, -0.4, 0.1]), p=np.array([0.5, 0.3, -0.2]))
    data = components_from_geometry(point_geometry(PARAMS, pt))
    assert np.max(np.abs(data.G @ data.H - np.eye(3))) < 1e-13
    assert np.min(np.linalg.eigvalsh(data.G)) > 0.0


def test_kahler_identities() -> None:
    pt = BundlePoint(x=np.array([-0.3, 0.1, 0.6]), p=np.array([0.2, -0.7, 0.4]))
    data = components_from_geometry(point_geometry(PARAMS, pt))
    assert kahler_identity_residual(PARAMS, data) < 1e-14
    assert w_consistency_residual(PARAMS, data) < 1e-13


def test_full_metric_blocks() -> None:
    geo = point_geometry(PARAMS, ANCHOR)
    data = components_from_geometry(geo, KAHLER)
    S_coord = coordinate_metric(geo, data)
    blocks = frame_transform(S_coord, "dd", geo.frame, to="adapted")
    expected = adapted_metric_matrix(data)
    assert np.max(np.abs(blocks - expected)) < 1e-13
    # Off-diagonal blocks of the adapted matrix vanish by construction.
    assert np.max(np.abs(expected[:3, 3:])) == 0.0


def test_tube_check_boundaries() -> None:
    # c = A = 1: the tube is 0 < |p|_g^2 < 4.
    ok = tube_check(PARAMS, BundlePoint(x=np.zeros(3), p=np.array([1.9, 0.0, 0.0])))
    assert ok.admissible
    assert ok.reason is None
    assert ok.momentum_norm_sq == pytest.approx(3.61, abs=1e-12)
    assert ok.bound == pytest.approx(4.0, abs=1e-15)
    edge = tube_check(PARAMS, BundlePoint(x=np.zeros(3), p=np.array([2.0, 0.0, 0.0])))
    assert not edge.admissible  # the boundary itself is excluded
    out = tube_check(PARAMS, BundlePoint(x=np.zeros(3), p=np.array([2.1, 0.0, 0.0])))
    assert not out.admissible
    assert "tube bound" in out.reason


def test_tube_check_reports_inadmissible_params() -> None:
    bad = ModelParams(3, curvature=-2.0)
    check = tube_check(bad, ANCHOR)
    assert not check.admissible
    assert check.reason == "2c - A^2 t > 0 unsatisfiable for t > 0"
    assert np.isnan(check.bound)


def test_metric_components_outside_tube_raise() -> None:
    outside = BundlePoint(x=np.zeros(3), p=np.array([2.5, 0.0, 0.0]))
    with pytest.raises(DomainError):
        components_from_geometry(point_geometry(PARAMS, outside))


GENERIC = BundlePoint(x=np.array([0.25, -0.15, 0.3]), p=np.array([0.5, 0.4, -0.2]))


@pytest.mark.parametrize("offset", [None, 0.1])
def test_metric_field_equals_pointwise_metric(offset) -> None:
    profile = LiftProfile(offset)
    field_value = metric_field(PARAMS, profile)(GENERIC.z)
    geo = point_geometry(PARAMS, GENERIC)
    pointwise = coordinate_metric(geo, components_from_geometry(geo, profile))
    assert np.array_equal(field_value, pointwise)


def test_lifted_field_equals_pointwise_components() -> None:
    field = lifted_field(PARAMS, KAHLER, lambda geo, data: data.H)
    pointwise = components_from_geometry(point_geometry(PARAMS, GENERIC))
    assert np.array_equal(field(GENERIC.z), pointwise.H)


def test_lifted_field_outside_tube_raises() -> None:
    field = lifted_field(PARAMS, KAHLER, lambda geo, data: data.G)
    with pytest.raises(DomainError):
        field(np.array([0.0, 0.0, 0.0, 2.5, 0.0, 0.0]))


def test_offset_profile_changes_v_only() -> None:
    prof = LiftProfile(offset=0.1)
    assert not prof.is_kahler
    geo = point_geometry(PARAMS, ANCHOR)
    data = components_from_geometry(geo, prof)
    base = components_from_geometry(geo)
    assert data.v == pytest.approx(base.v + 0.1, abs=1e-14)
    # G changes only through the p (x) p term; H remains its exact inverse.
    assert np.max(np.abs(data.G @ data.H - np.eye(3))) < 1e-13


def test_profile_guards() -> None:
    assert KAHLER.is_kahler
    assert LiftProfile().is_kahler
    with pytest.raises(DomainError):
        KAHLER.v(0.0, PARAMS)  # zero section excluded
    collapsing = LiftProfile(offset=-2.0)  # v = 1 - 2 at the anchor: A + 2v = -1 < 0
    with pytest.raises(DomainError, match=r"A \+ 2v > 0"):
        components_from_geometry(point_geometry(PARAMS, ANCHOR), collapsing)


@settings(max_examples=25, deadline=None)
@given(
    frac=st.floats(min_value=0.02, max_value=0.98, allow_nan=False),
    c=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
    A=st.floats(min_value=0.2, max_value=2.0, allow_nan=False),
)
def test_tube_interior_always_positive_definite(frac: float, c: float, A: float) -> None:
    params = ModelParams(3, curvature=c, lift_const=A)
    cap = 4.0 * c / (A * A)
    p = np.array([np.sqrt(frac * cap), 0.0, 0.0])
    pt = BundlePoint(x=np.zeros(3), p=p)
    assert tube_check(params, pt).admissible
    data = components_from_geometry(point_geometry(params, pt))
    assert np.min(np.linalg.eigvalsh(data.G)) > 0.0
    assert np.min(np.linalg.eigvalsh(data.H)) > 0.0
