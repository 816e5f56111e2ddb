"""Almost complex structure, fundamental form, integrability dichotomy."""

import numpy as np
import pytest

from kahler_tube import frames
from kahler_tube.base_geometry import ModelParams
from kahler_tube.complex_structure import (
    adapted_j_matrix,
    fundamental_form,
    fundamental_form_block_residual,
    nijenhuis_closed_form,
    nijenhuis_fd_full,
)
from kahler_tube.frames import BundlePoint, frame_transform, point_geometry
from kahler_tube.lifted_metric import (
    KAHLER,
    LiftProfile,
    adapted_metric_matrix,
    components_from_geometry,
)

PARAMS = ModelParams(3)
POINT = BundlePoint(x=np.array([0.2, -0.3, 0.4]), p=np.array([0.6, 0.2, -0.5]))


def _built(params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER):
    """The point geometry and lifted blocks that the layers take."""
    geo = point_geometry(params, pt)
    return geo, components_from_geometry(geo, profile)


def test_j_squared_is_minus_identity() -> None:
    geo, data = _built(PARAMS, POINT)
    J_ad = adapted_j_matrix(data)
    assert np.max(np.abs(J_ad @ J_ad + np.eye(6))) < 1e-13
    # and in coordinates, after the frame transform
    J_coord = frame_transform(J_ad, "ud", geo.frame, to="coordinate")
    assert np.max(np.abs(J_coord @ J_coord + np.eye(6))) < 1e-13


def test_hermitian_compatibility() -> None:
    _, data = _built(PARAMS, POINT)
    S, J = adapted_metric_matrix(data), adapted_j_matrix(data)
    assert np.max(np.abs(J.T @ S @ J - S)) < 1e-13


def test_j_block_structure() -> None:
    _, data = _built(PARAMS, POINT)
    n = PARAMS.dim
    J = adapted_j_matrix(data)
    assert np.max(np.abs(J[:n, :n])) == 0.0
    assert np.max(np.abs(J[n:, n:])) == 0.0
    assert np.max(np.abs(J[n:, :n] - data.G)) < 1e-14
    assert np.max(np.abs(J[:n, n:] + data.H)) < 1e-14


def test_fundamental_form_is_canonical_block_matrix() -> None:
    _, data = _built(PARAMS, POINT)
    phi_ad = adapted_metric_matrix(data) @ adapted_j_matrix(data)
    assert fundamental_form_block_residual(phi_ad) < 1e-13
    n = PARAMS.dim
    expected = np.block(
        [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
    )
    assert np.max(np.abs(phi_ad - expected)) < 1e-13


def test_fundamental_form_closed() -> None:
    assert fundamental_form(point_geometry(PARAMS, POINT), KAHLER) < 1e-9


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
    geo, data = _built(params, point)
    closed = nijenhuis_closed_form(geo, data)
    assert np.max(np.abs(closed)) < 1e-13
    fd, off_distribution = nijenhuis_fd_full(geo, KAHLER)
    assert closed.shape == fd.shape == (3, dim, dim, dim)  # N[family, k, i, j]
    assert np.max(np.abs(fd)) < 1e-6
    assert off_distribution < 1e-6


@nijenhuis_cases
def test_nijenhuis_nonzero_off_profile(dim: int, curvature: float, lift_const: float) -> None:
    params, point = _nijenhuis_case(dim, curvature, lift_const)
    profile = LiftProfile(offset=0.1)
    geo, data = _built(params, point, profile)
    closed = nijenhuis_closed_form(geo, data)
    assert np.max(np.abs(closed)) > 1e-3
    fd, off_distribution = nijenhuis_fd_full(geo, profile)
    # The closed form tracks the fd tensor in every family even off the
    # integrable profile.
    assert np.max(np.abs(closed - fd)) < 1e-6
    assert off_distribution < 1e-6


def test_nijenhuis_fd_evaluation_budget(monkeypatch) -> None:
    # One Jacobian of the J field: the J value and one stencil, in one call.
    geo = point_geometry(PARAMS, POINT)
    calls = []
    inner = frames.geometry_at

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(frames, "geometry_at", counting)
    nijenhuis_fd_full(geo, KAHLER)
    assert 0 < len(calls) <= 3


def test_dichotomy_threshold_scaling() -> None:
    # The Nijenhuis obstruction grows with the offset and vanishes with it.
    for offset, floor in ((0.05, 5e-4), (0.2, 2e-3)):
        profile = LiftProfile(offset=offset)
        assert np.max(np.abs(nijenhuis_closed_form(*_built(PARAMS, POINT, profile)))) > floor
