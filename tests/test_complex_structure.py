"""Almost complex structure, fundamental form, integrability dichotomy."""

import numpy as np
import pytest

from kahler_tube import frames
from kahler_tube.base_geometry import ModelParams
from kahler_tube.complex_structure import (
    fundamental_form,
    fundamental_form_block_residual,
    hermitian_residual,
    j_matrix,
    j_squared_residual,
    nijenhuis_closed_form,
    nijenhuis_fd_full,
)
from kahler_tube.frames import BundlePoint, frame_transform, point_geometry
from kahler_tube.lifted_metric import metric_components, offset_profile

PARAMS = ModelParams(3)
POINT = BundlePoint(x=np.array([0.2, -0.3, 0.4]), p=np.array([0.6, 0.2, -0.5]))


def test_j_squared_is_minus_identity() -> None:
    assert j_squared_residual(metric_components(PARAMS, POINT)) < 1e-13
    # and in coordinates, after the frame transform
    geo = point_geometry(PARAMS, POINT)
    J_coord = frame_transform(j_matrix(PARAMS, POINT), "ud", geo.frame, to="coordinate")
    assert np.max(np.abs(J_coord @ J_coord + np.eye(6))) < 1e-13


def test_hermitian_compatibility() -> None:
    assert hermitian_residual(metric_components(PARAMS, POINT)) < 1e-13


def test_j_block_structure() -> None:
    data = metric_components(PARAMS, POINT)
    n = PARAMS.dim
    J = j_matrix(PARAMS, POINT)
    assert np.max(np.abs(J[:n, :n])) == 0.0
    assert np.max(np.abs(J[n:, n:])) == 0.0
    assert np.max(np.abs(J[n:, :n] - data.G)) < 1e-14
    assert np.max(np.abs(J[:n, n:] + data.H)) < 1e-14


def test_fundamental_form_is_canonical_block_matrix() -> None:
    form = fundamental_form(PARAMS, POINT)
    assert fundamental_form_block_residual(form.adapted) < 1e-13
    n = PARAMS.dim
    expected = np.block(
        [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
    )
    assert np.max(np.abs(form.adapted - expected)) < 1e-13


def test_fundamental_form_closed() -> None:
    form = fundamental_form(PARAMS, POINT)
    assert form.dphi_residual < 1e-9


#: The Nijenhuis cases over (dim, curvature, lift_const); n=3 uses POINT.
nijenhuis_cases = pytest.mark.parametrize(
    "dim, curvature, lift_const",
    [(3, 1.0, 1.0), (3, 2.0, 0.5), (4, 1.0, 1.0), (5, 1.0, 1.0)],
    ids=lambda v: f"{v:g}",
)


def _nijenhuis_case(dim: int, curvature: float, lift_const: float) -> tuple[ModelParams, BundlePoint]:
    x = np.array([0.2, -0.3, 0.4, 0.1, -0.2])[:dim]
    p = np.array([0.6, 0.2, -0.5, 0.3, -0.1])[:dim]
    return ModelParams(dim, curvature, lift_const), BundlePoint(x=x, p=p)


@nijenhuis_cases
def test_nijenhuis_vanishes_on_integrable_profile(dim: int, curvature: float, lift_const: float) -> None:
    params, point = _nijenhuis_case(dim, curvature, lift_const)
    closed = nijenhuis_closed_form(params, point)
    assert closed.max_abs() < 1e-13
    fd, off_distribution = nijenhuis_fd_full(params, point)
    assert fd.max_abs() < 1e-6
    assert off_distribution < 1e-6


@nijenhuis_cases
def test_nijenhuis_nonzero_off_profile(dim: int, curvature: float, lift_const: float) -> None:
    params, point = _nijenhuis_case(dim, curvature, lift_const)
    profile = offset_profile(params, 0.1)
    closed = nijenhuis_closed_form(params, point, profile)
    assert closed.max_abs() > 1e-3
    fd, off_distribution = nijenhuis_fd_full(params, point, profile)
    # The closed form tracks the fd tensor even off the integrable profile.
    assert np.max(np.abs(closed.horiz_horiz - fd.horiz_horiz)) < 1e-6
    assert np.max(np.abs(closed.horiz_vert - fd.horiz_vert)) < 1e-6
    assert np.max(np.abs(closed.vert_vert - fd.vert_vert)) < 1e-6
    assert off_distribution < 1e-6


def test_nijenhuis_fd_evaluation_budget(monkeypatch) -> None:
    # One Jacobian of the J field: the base point, the J value, one stencil.
    calls = []
    inner = frames.geometry_at

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(frames, "geometry_at", counting)
    nijenhuis_fd_full(PARAMS, POINT)
    assert 0 < len(calls) <= 3


def test_dichotomy_threshold_scaling() -> None:
    # The Nijenhuis obstruction grows with the offset and vanishes with it.
    for offset, floor in ((0.05, 5e-4), (0.2, 2e-3)):
        profile = offset_profile(PARAMS, offset)
        assert nijenhuis_closed_form(PARAMS, POINT, profile).max_abs() > floor
