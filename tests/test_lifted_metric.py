"""Lifted metric on the tube: components, inverse, tube domain, profiles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahler_tube.base_geometry import DomainError, ModelParams, metric_at
from kahler_tube.frames import BundlePoint, frame_transform, geometry_at, point_geometry
from kahler_tube.lifted_metric import (
    KAHLER,
    LiftProfile,
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
    kahler_identity_residual,
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
    blocks = frame_transform(S_coord, "dd", geo, to="adapted")
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


def test_metric_field_equals_pointwise_metric() -> None:
    geo = point_geometry(PARAMS, GENERIC)
    pointwise = coordinate_metric(geo, components_from_geometry(geo))
    assert np.array_equal(metric_field(PARAMS)(GENERIC.z), pointwise)


def test_metric_field_outside_tube_raises() -> None:
    with pytest.raises(DomainError, match="tube bound"):
        metric_field(PARAMS)(np.array([0.0, 0.0, 0.0, 2.5, 0.0, 0.0]))


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


@pytest.mark.parametrize("profile", [KAHLER, LiftProfile(offset=0.1)], ids=["kahler", "offset"])
def test_a_single_exact_point_goes_through_the_closed_forms(profile) -> None:
    # An unbatched (n,) object array of Fractions: the guards reduce with
    # np.any and the 0-d sums stay arrays, so nothing calls .any() on a bool
    # or indexes a Python scalar.  The dyadic entries make the float path the
    # same numbers.
    x = np.array([Fraction(1, 2), Fraction(1, 4), Fraction(-1, 8)], dtype=object)
    p = np.array([Fraction(3, 4), Fraction(-1, 2), Fraction(3, 8)], dtype=object)
    exact_base = metric_at(PARAMS, x)
    float_base = metric_at(PARAMS, x.astype(float))
    np.testing.assert_allclose(exact_base.g.astype(float), float_base.g, rtol=1e-15)
    exact_geo = geometry_at(PARAMS, x, p)
    float_geo = geometry_at(PARAMS, x.astype(float), p.astype(float))
    np.testing.assert_allclose(float(exact_geo.t), float(float_geo.t), rtol=1e-15)
    np.testing.assert_allclose(exact_geo.gamma_p.astype(float), float_geo.gamma_p, rtol=1e-15)
    exact = components_from_geometry(exact_geo, profile)
    expected = components_from_geometry(float_geo, profile)
    for name in ("G", "H", "v", "w"):
        np.testing.assert_allclose(
            np.asarray(getattr(exact, name), dtype=float), getattr(expected, name), rtol=1e-14, err_msg=name
        )
