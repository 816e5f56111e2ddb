"""Batch-generic geometry: a stack of points gives the stack of per-point values.

The fd primitives hand each field its whole stencil as one ``(k, 2n)``
stack, so every closed form they differentiate must treat leading axes as a
batch.  The memory guards keep the fd-of-fd fields batched one level deep.
"""

import tracemalloc

import numpy as np
import pytest

from kahler_tube.base_geometry import DomainError, ModelParams, metric_at
from kahler_tube.complex_structure import adapted_j_matrix
from kahler_tube.curvature import (
    _blocks,
    covariant_derivative_residual,
    curvature_oracle_coordinates,
)
from kahler_tube.frames import BundlePoint, frame_transform, geometry_at
from kahler_tube.lifted_metric import (
    KAHLER,
    components_from_geometry,
    lifted_field,
    metric_field,
    offset_profile,
)
from kahler_tube.sampling import sample_points

CONFIGS = [ModelParams(3, 1.0, 1.0), ModelParams(4, 1.0, 1.0)]
CASES = [(params, offset) for params in CONFIGS for offset in (None, 0.1)]
CASE_IDS = [f"n{params.dim}-{'kahler' if offset is None else 'offset'}" for params, offset in CASES]


def _profile(params: ModelParams, offset):
    return KAHLER if offset is None else offset_profile(params, offset)


def _stack(params: ModelParams) -> np.ndarray:
    """A (5, 2n) stack of tube points."""
    return np.stack([pt.z for pt in sample_points(params, 5, seed=11)])


def _assert_stacked(batched, singles) -> None:
    """``batched`` equals the stack of ``singles`` to 1e-14 of its largest entry."""
    expected = np.stack([np.asarray(s, dtype=float) for s in singles])
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == expected.shape
    scale = max(float(np.max(np.abs(expected))), 1.0e-300)
    assert float(np.max(np.abs(batched - expected))) <= 1e-14 * scale


@pytest.mark.parametrize("params", CONFIGS, ids=["n3", "n4"])
def test_metric_at_batch_equals_points(params: ModelParams) -> None:
    xs = _stack(params)[:, : params.dim]
    batch = metric_at(params, xs)
    singles = [metric_at(params, x) for x in xs]
    for name in ("u", "g", "g_inv", "gamma", "dgamma", "riem"):
        _assert_stacked(getattr(batch, name), [getattr(s, name) for s in singles])


@pytest.mark.parametrize("params", CONFIGS, ids=["n3", "n4"])
def test_geometry_at_batch_equals_points(params: ModelParams) -> None:
    n = params.dim
    zs = _stack(params)
    batch = geometry_at(params, zs[:, :n], zs[:, n:])
    singles = [geometry_at(params, z[:n], z[n:]) for z in zs]
    for name in ("t", "p_raised", "gamma_p", "riem_p", "z"):
        _assert_stacked(getattr(batch, name), [getattr(s, name) for s in singles])
    for name in ("M", "Minv", "dM"):
        _assert_stacked(getattr(batch.frame, name), [getattr(s.frame, name) for s in singles])


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_lifted_blocks_batch_equal_points(params: ModelParams, offset) -> None:
    n = params.dim
    profile = _profile(params, offset)
    zs = _stack(params)
    batch = components_from_geometry(params, geometry_at(params, zs[:, :n], zs[:, n:]), profile)
    singles = [components_from_geometry(params, geometry_at(params, z[:n], z[n:]), profile) for z in zs]
    for name in ("G", "H", "t", "v", "w"):
        _assert_stacked(getattr(batch, name), [getattr(s, name) for s in singles])


def _j_field(params, profile):
    return lifted_field(
        params, profile,
        lambda geo, data: frame_transform(adapted_j_matrix(data), "ud", geo.frame, to="coordinate"),
    )


def _stacked_blocks_field(params, profile):
    def stacked(geo, data):
        blocks = _blocks(params, geo, data, profile)
        return np.stack([blocks.hhh, blocks.vvh, blocks.vhh, blocks.vhv], axis=-5)

    return lifted_field(params, profile, stacked)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_fields_map_a_stack_to_the_stack_of_values(params: ModelParams, offset) -> None:
    profile = _profile(params, offset)
    zs = _stack(params)
    builders = [metric_field, _j_field] + ([_stacked_blocks_field] if offset is None else [])
    for build in builders:
        field = build(params, profile)
        _assert_stacked(field(zs), [field(z) for z in zs])
        # Any number of leading batch axes.
        _assert_stacked(field(zs.reshape(1, 5, -1))[0], [field(z) for z in zs])


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_one_point_outside_the_tube_fails_the_whole_stack(params: ModelParams, offset) -> None:
    zs = _stack(params)
    n = params.dim
    zs[3, n:] *= 3.0  # |p|^2 grows ninefold: past 4c/A^2 from any sampled t
    field = metric_field(params, _profile(params, offset))
    if offset is None:
        with pytest.raises(DomainError, match="tube bound"):
            field(zs)
    zs[3, n:] = 0.0  # on the zero section: outside for every profile
    with pytest.raises(DomainError):
        field(zs)


PARAMS_5 = ModelParams(5)
POINT_5 = BundlePoint(x=np.array([0.1, -0.2, 0.05, 0.3, 0.0]), p=np.array([0.3, 0.2, -0.1, 0.25, 0.1]))


def _peak_mb(fn) -> float:
    fn()  # warm caches outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_curvature_oracle_memory_stays_one_level_deep() -> None:
    # Measured at n = 5: about 0.5 MB evaluating point by point, about 1.1 MB
    # with the Koszul stencils batched, about 15 MB with the outer stencil's
    # Koszul stencils batched as well.
    assert _peak_mb(lambda: curvature_oracle_coordinates(PARAMS_5, POINT_5)) < 5.0


def test_local_symmetry_memory_one_axis_per_call() -> None:
    # Measured at n = 5: about 2.6 MB one axis per fd call, about 10 MB with
    # every axis's (2n)^4 curvature tensors in one call.
    assert _peak_mb(lambda: covariant_derivative_residual(PARAMS_5, POINT_5)) < 5.0
