"""Batch- and dtype-generic geometry: a stack of points gives the stack of values.

The fd primitives hand each field its whole stencil as one ``(k, 2n)``
stack, so every closed form they differentiate must treat leading axes as a
batch; ``fd.complex_step`` hands it complex points, so the closed forms must
also be analytic with guards on the real part.  The memory guards keep the
nested oracle fields within budget, and every layer that differentiates a
closed-form field does so in one complex field call.
"""

import tracemalloc

import numpy as np
import pytest

from kahler_tube.base_geometry import DomainError, ModelParams, metric_at
from kahler_tube import base_geometry, frames
from kahler_tube.complex_structure import adapted_j_matrix, fundamental_form, nijenhuis_fd_full
from kahler_tube.connection import mtensor_parallel_residuals
from kahler_tube.curvature import (
    _blocks,
    assemble_adapted_curvature,
    covariant_derivative_residual,
    curvature_oracle_coordinates,
    parallel_block_residuals,
)
from kahler_tube.fd import COMPLEX_STEP, DEFAULT_FD, complex_step, field_jacobian
from kahler_tube.frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_transform,
    geometry_at,
    geometry_field,
    verify_brackets,
)
from kahler_tube.lifted_metric import (
    KAHLER,
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
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


def _assert_stacked(batched, singles, rel: float = 1e-14) -> None:
    """``batched`` equals the stack of ``singles`` to ``rel`` of its largest entry."""
    expected = np.stack([np.asarray(s, dtype=float) for s in singles])
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == expected.shape
    scale = max(float(np.max(np.abs(expected))), 1.0e-300)
    assert float(np.max(np.abs(batched - expected))) <= rel * scale


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


def _complex_stack(zs: np.ndarray) -> np.ndarray:
    """The complex-step stack ``(5, 2n, 2n)`` around each point of ``zs``."""
    return zs[:, None, :] + (1j * COMPLEX_STEP) * np.eye(zs.shape[-1])


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_stack_real_part_equals_real_evaluation(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    zc = _complex_stack(zs)
    fields = [
        (metric_field(params, _profile(params, offset)), zs, zc),
        (base_geometry.metric_field(params), zs[:, :n], zc[..., :n]),
    ]
    for field, real, cplx in fields:
        out = field(cplx)
        assert np.iscomplexobj(out)
        _assert_stacked(out.real, np.broadcast_to(field(real)[:, None], out.shape))


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_step_jacobian_agrees_with_central_differences(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    profile = _profile(params, offset)
    fields = [
        (metric_field(params, profile), zs),
        (base_geometry.metric_field(params), zs[:, :n]),
        # Fields that allocate their output must take the input's dtype.
        (lifted_field(params, profile, lambda geo, data: adapted_j_matrix(data)), zs),
        (geometry_field(params, lambda geo: geo.frame.dM), zs),
    ]
    if offset is None:
        fields.append((
            lifted_field(
                params, profile,
                lambda geo, data: assemble_adapted_curvature(_blocks(params, geo, data, profile)),
            ),
            zs,
        ))
    for field, points in fields:
        _, jac = complex_step(field, points)
        central = [field_jacobian(field, z, DEFAULT_FD).value for z in points]
        _assert_stacked(jac.value, central, 1e-7)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_block_coordinate_metric_equals_frame_transform(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    geo = geometry_at(params, zs[:, :n], zs[:, n:])
    data = components_from_geometry(params, geo, _profile(params, offset))
    via_frame = frame_transform(adapted_metric_matrix(data), "dd", geo.frame, to="coordinate")
    _assert_stacked(coordinate_metric(geo, data), via_frame)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_point_whose_real_part_leaves_the_tube_raises(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    field = metric_field(params, _profile(params, offset))
    if offset is None:
        zs[3, n:] *= 3.0  # past 4c/A^2 from any sampled t
        with pytest.raises(DomainError, match="tube bound"):
            field(_complex_stack(zs))
    zs[3, n:] = 0.0  # real part on the zero section; the imaginary step stays
    with pytest.raises(DomainError):
        field(_complex_stack(zs))


def test_guards_compare_the_real_part() -> None:
    # numpy orders complex numbers lexicographically, so a guard on the
    # complex value would pass a real part on the boundary whenever the
    # imaginary step makes the value "larger" than the bound.
    params = CONFIGS[0]
    on_boundary = 1j * COMPLEX_STEP  # t = 0 + i h
    for profile in (KAHLER, offset_profile(params, 0.1)):
        with pytest.raises(DomainError, match="energy density"):
            profile.v(np.array([on_boundary]), params)
    # u = 1 - |x|^2 at c = -4 is 0 + 2 i h at x = (1 - i h, 0, 0).
    x = np.array([1.0 - 1j * COMPLEX_STEP, 0.0, 0.0])
    with pytest.raises(DomainError, match="conformal factor"):
        base_geometry.conformal_factor(ModelParams(3, -4.0), x)


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
    # Measured at n = 5 (tracemalloc peak): about 4.3 MB with complex-step
    # Christoffels over the whole outer stencil in one metric-field call and
    # the coordinate metric filled block by block, without building the
    # adapted frame; about 7.4 MB when that metric goes through
    # frame_transform.  Real-fd Koszul stencils took about 1.1 MB looped over
    # the outer stencil point by point and about 15 MB nested in one batch.
    assert _peak_mb(lambda: curvature_oracle_coordinates(PARAMS_5, POINT_5)) < 5.0


def test_local_symmetry_memory_adapted_frame_complex_step() -> None:
    # Measured at n = 5 (tracemalloc peak): about 3.5 MB for the layer, whose
    # complex step of the adapted-frame curvature field peaks at about 3.2 MB.
    # A complex step of the coordinate-frame field peaks at about 5.1 MB,
    # because frame_transform then works on a complex (10, 10^4) stack.
    assert _peak_mb(lambda: covariant_derivative_residual(PARAMS_5, POINT_5)) < 5.0


#: Every layer that differentiates a closed-form field.
DERIVATIVE_LAYERS = [
    verify_brackets,
    energy_frame_derivatives,
    fundamental_form,
    nijenhuis_fd_full,
    mtensor_parallel_residuals,
    parallel_block_residuals,
    covariant_derivative_residual,
]


@pytest.mark.parametrize("layer", DERIVATIVE_LAYERS, ids=lambda layer: layer.__name__)
def test_each_derivative_layer_makes_one_complex_field_call(layer, monkeypatch) -> None:
    # One complex step of 2n points, plus the layer's own real geometry at
    # the base point (at most twice, through the closed-form connection).
    params = CONFIGS[0]
    n = params.dim
    pt = sample_points(params, 1, seed=11)[0]
    calls = []
    inner = frames.geometry_at

    def counting(params, x, p):
        calls.append((np.shape(x), np.iscomplexobj(x)))
        return inner(params, x, p)

    monkeypatch.setattr(frames, "geometry_at", counting)
    layer(params, pt)
    assert [call for call in calls if call[1]] == [((2 * n, n), True)]
    base = [call for call in calls if not call[1]]
    assert 0 < len(base) <= 2 and set(base) == {((n,), False)}
