"""Adapted frame on the bundle: duality, brackets, transforms, energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahler_tube.base_geometry import ModelParams
from kahler_tube.connection import connection_to_adapted
from kahler_tube.frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_derivative,
    frame_transform,
    geometry_at,
    point_geometry,
    step_geometry,
    verify_brackets,
)

PARAMS = ModelParams(3)
POINT = BundlePoint(x=np.array([0.3, -0.2, 0.5]), p=np.array([0.8, 0.1, -0.4]))


def test_bundle_point_validation() -> None:
    with pytest.raises(ValueError):
        BundlePoint(x=np.zeros(3), p=np.zeros(3))  # zero covector
    with pytest.raises(ValueError):
        BundlePoint(x=np.zeros(3), p=np.ones(2))  # shape mismatch
    z = POINT.z
    assert z.shape == (6,)
    assert np.array_equal(z[:3], POINT.x)
    assert np.array_equal(z[3:], POINT.p)


def test_energy_density_anchor() -> None:
    # Flat-origin metric: t = |p|^2 / 2 = (9 + 16) / 2.
    pt = BundlePoint(x=np.zeros(3), p=np.array([3.0, 4.0, 0.0]))
    assert point_geometry(PARAMS, pt).t == pytest.approx(12.5, abs=1e-15)


def test_frame_duality_and_blocks() -> None:
    geo = point_geometry(PARAMS, POINT)
    assert geo.dual_pairing_residual() < 1e-13
    n = PARAMS.dim
    # Horizontal columns project onto coordinate basis vectors of the base.
    assert np.max(np.abs(geo.M[:n, :n] - np.eye(n))) == 0.0
    # Vertical columns are purely momentum directions.
    assert np.max(np.abs(geo.M[:n, n:])) == 0.0
    assert np.max(np.abs(geo.M[n:, n:] - np.eye(n))) == 0.0


@pytest.mark.parametrize("stacked", (False, True), ids=("point", "stack"))
def test_frame_members_are_built_on_first_read(stacked: bool) -> None:
    x, p = POINT.x, POINT.p
    if stacked:
        x, p = np.stack([x, -0.5 * x]), np.stack([p, 2.0 * p])
    m = 2 * PARAMS.dim

    def built(geo) -> set[str]:
        return {"M", "Minv", "dM"} & vars(geo).keys()

    geo = geometry_at(PARAMS, x, p)
    assert built(geo) == set()
    frame_transform(np.ones(geo.t.shape + (m, m)), "ud", geo)
    assert built(geo) == {"M", "Minv"}
    connection_to_adapted(np.ones(geo.t.shape + (m, m, m)), geo)
    assert built(geo) == {"M", "Minv", "dM"}

    geo = geometry_at(PARAMS, x, p)
    frame_derivative(geo, step_geometry(geo).t)
    assert built(geo) == {"M"}


def test_bracket_table() -> None:
    geo = point_geometry(PARAMS, POINT)
    vert_vert, mixed, horiz_horiz = verify_brackets(geo, step_geometry(geo))
    assert vert_vert < 1e-8
    assert mixed < 1e-8
    assert horiz_horiz < 1e-8


def test_energy_frame_derivatives() -> None:
    geo = point_geometry(PARAMS, POINT)
    horiz, vert = energy_frame_derivatives(geo, step_geometry(geo))
    assert horiz < 1e-9
    assert vert < 1e-9


def test_frame_transform_inverts() -> None:
    geo = point_geometry(PARAMS, POINT)
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((6, 6, 6))
    for variance in ("uuu", "ddd", "udd", "dud"):
        coord = frame_transform(tensor, variance, geo, to="coordinate")
        back = frame_transform(coord, variance, geo, to="adapted")
        assert np.max(np.abs(back - tensor)) < 1e-12


def test_frame_transform_scalar_matrix_identity() -> None:
    geo = point_geometry(PARAMS, POINT)
    eye = np.eye(6)
    # A (1,1)-tensor equal to the identity is frame independent.
    moved = frame_transform(eye, "ud", geo, to="coordinate")
    assert np.max(np.abs(moved - eye)) < 1e-13


def test_geometry_at_matches_point_geometry() -> None:
    geo1 = point_geometry(PARAMS, POINT)
    geo2 = geometry_at(PARAMS, POINT.x, POINT.p)
    assert np.array_equal(geo1.M, geo2.M)
    assert geo1.t == geo2.t


@settings(max_examples=25, deadline=None)
@given(
    x=st.lists(st.floats(-0.9, 0.9, allow_nan=False), min_size=3, max_size=3),
    p=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3),
    variance=st.sampled_from(["uu", "dd", "ud", "du"]),
)
def test_transform_roundtrip_property(x: list, p: list, variance: str) -> None:
    pvec = np.array(p)
    if float(pvec @ pvec) < 1e-4:
        pvec = np.array([1.0, 0.0, 0.0])
    geo = point_geometry(PARAMS, BundlePoint(x=np.array(x), p=pvec))
    rng = np.random.default_rng(3)
    tensor = rng.standard_normal((6, 6))
    coord = frame_transform(tensor, variance, geo, to="coordinate")
    back = frame_transform(coord, variance, geo, to="adapted")
    assert np.max(np.abs(back - tensor)) < 1e-10
