"""Batch- and dtype-generic geometry: a stack of points gives the stack of values.

The fd primitives hand each field its whole stencil as one ``(k, 2n)``
stack, so every closed form they differentiate must treat leading axes as a
batch; ``fd.complex_step`` hands it complex points, so the closed forms must
also be analytic with guards on the real part.  The memory guards keep the
nested oracle fields within budget, and every layer that differentiates a
closed-form field does so in one complex field call.
"""

import functools
import sys
import tracemalloc

import numpy as np
import pytest

from kahler_tube.base_geometry import DomainError, ModelParams, metric_at
from kahler_tube import base_geometry, connection, curvature, frames, lifted_metric
from kahler_tube.checks import RunConfig, run_sweep, run_verify
from kahler_tube.complex_structure import adapted_j_matrix, fundamental_form, nijenhuis_fd_full
from kahler_tube.connection import (
    coefficients_from_geometry,
    mtensor_parallel_residuals,
)
from kahler_tube.curvature import (
    assemble_adapted_curvature,
    curvature_blocks,
    curvature_oracle_coordinates,
    parallel_block_residuals,
)
from kahler_tube.fd import COMPLEX_STEP, complex_step, field_jacobian
from kahler_tube.frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_transform,
    geometry_at,
    geometry_field,
    point_geometry,
    verify_brackets,
)
from kahler_tube.lifted_metric import (
    KAHLER,
    LiftProfile,
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
    lifted_field,
    metric_field,
)
from kahler_tube.sampling import sample_directions, sample_points

CONFIGS = [ModelParams(3, 1.0, 1.0), ModelParams(4, 1.0, 1.0)]
CASES = [(params, offset) for params in CONFIGS for offset in (None, 0.1)]
CASE_IDS = [f"n{params.dim}-{'kahler' if offset is None else 'offset'}" for params, offset in CASES]



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
    profile = LiftProfile(offset)
    zs = _stack(params)
    batch = components_from_geometry(geometry_at(params, zs[:, :n], zs[:, n:]), profile)
    singles = [components_from_geometry(geometry_at(params, z[:n], z[n:]), profile) for z in zs]
    for name in ("G", "H", "t", "v", "w"):
        _assert_stacked(getattr(batch, name), [getattr(s, name) for s in singles])


def _j_field(params, profile):
    return lifted_field(
        params, profile,
        lambda geo, data: frame_transform(adapted_j_matrix(data), "ud", geo.frame, to="coordinate"),
    )


def _stacked_blocks_field(params, profile):
    return lifted_field(params, profile, curvature_blocks)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_fields_map_a_stack_to_the_stack_of_values(params: ModelParams, offset) -> None:
    profile = LiftProfile(offset)
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
    field = metric_field(params, LiftProfile(offset))
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
        (metric_field(params, LiftProfile(offset)), zs, zc),
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
    profile = LiftProfile(offset)
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
                lambda geo, data: assemble_adapted_curvature(curvature_blocks(geo, data)),
            ),
            zs,
        ))
    for field, points in fields:
        _, jac = complex_step(field, points)
        central = [field_jacobian(field, z).value for z in points]
        _assert_stacked(jac.value, central, 1e-7)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_block_coordinate_metric_equals_frame_transform(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    geo = geometry_at(params, zs[:, :n], zs[:, n:])
    data = components_from_geometry(geo, LiftProfile(offset))
    via_frame = frame_transform(adapted_metric_matrix(data), "dd", geo.frame, to="coordinate")
    _assert_stacked(coordinate_metric(geo, data), via_frame)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_point_whose_real_part_leaves_the_tube_raises(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    field = metric_field(params, LiftProfile(offset))
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
    for profile in (KAHLER, LiftProfile(offset=0.1)):
        with pytest.raises(DomainError, match="energy density"):
            profile.v(np.array([on_boundary]), params)
    # u = 1 - |x|^2 at c = -4 is 0 + 2 i h at x = (1 - i h, 0, 0).
    x = np.array([1.0 - 1j * COMPLEX_STEP, 0.0, 0.0])
    with pytest.raises(DomainError, match="conformal factor"):
        base_geometry.conformal_factor(ModelParams(3, -4.0), x)


PARAMS_5 = ModelParams(5)
POINT_5 = BundlePoint(x=np.array([0.1, -0.2, 0.05, 0.3, 0.0]), p=np.array([0.3, 0.2, -0.1, 0.25, 0.1]))
GEO_5 = point_geometry(PARAMS_5, POINT_5)


def _peak_mb(fn) -> float:
    fn()  # warm caches outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_curvature_oracle_memory_stays_one_level_deep() -> None:
    # Measured at n = 5 (tracemalloc peak): about 3.09 MB with complex-step
    # Christoffels over the whole outer stencil in one metric-field call, the
    # coordinate metric filled block by block from the closed-form gamma_p
    # and the Koszul symbols raised by one matmul; 4.28 MB when every stacked
    # geometry also built the (600, 5, 5, 5) Christoffel stack for gamma_p;
    # about 7.4 MB when the metric went through frame_transform.  Real-fd
    # Koszul stencils took about 1.1 MB looped over the outer stencil point
    # by point and about 15 MB nested in one batch.
    assert _peak_mb(lambda: curvature_oracle_coordinates(GEO_5)) < 3.6


def test_parallel_blocks_memory_one_complex_step_of_the_blocks() -> None:
    # Measured at n = 5 (tracemalloc peak): about 2.8 MB for the layer, which
    # differentiates the stacked closed-form families once and assembles K
    # and its frame derivatives for local_symmetry from them.  A second
    # complex step of the assembled adapted-frame curvature alone peaked at
    # about 3.2 MB; one of the coordinate-frame curvature at about 5.1 MB,
    # because frame_transform then works on a complex (10, 10^4) stack.
    W = coefficients_from_geometry(GEO_5, components_from_geometry(GEO_5))
    assert _peak_mb(lambda: parallel_block_residuals(GEO_5, W)) < 5.0


def test_sweep_memory_stays_one_point_deep() -> None:
    # Measured at (3,1,1), 100 points x 100 directions (tracemalloc peak):
    # about 1.5 MB with the closed forms stacked over the points (the four
    # curvature families as one (100, 4, 3, 3, 3, 3) array), the
    # quadratic form over one batch of directions per point and the
    # stacked (100, 6, 6, 6, 6) curvature (1.0 MB) the largest array held;
    # the columnar result holds 0.08 MB.  Row objects (10,000 rows, 1.1 MB)
    # built while that curvature was held peaked at 2.4 MB; the
    # point-by-point loop with doubled direction batches at 1.6 MB.
    # Stacking the points into the quadratic form as well would hold
    # (points, directions, m^2) products: 2.9 MB of float64 for one such
    # array at this size.
    cfg = RunConfig(ModelParams(3, 1.0, 1.0), num_points=100, num_directions=100, seed=7)
    assert _peak_mb(lambda: run_sweep(cfg)) < 3.0


def test_sweep_result_is_columnar(monkeypatch) -> None:
    # run_sweep hands the sampled chart arrays straight to the stacked
    # geometry and keeps the curvatures as one (points, directions) array:
    # no BundlePoint is built, and at (3,1,1), 100 x 100 the result retains
    # about 0.08 MB (tracemalloc), where 10,000 row tuples held 1.1 MB.
    built: list[BundlePoint] = []
    post_init = BundlePoint.__post_init__

    def recording(self) -> None:
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BundlePoint, "__post_init__", recording)
    cfg = RunConfig(ModelParams(3, 1.0, 1.0), num_points=100, num_directions=100, seed=7)
    run_sweep(cfg)  # warm caches outside the measurement
    assert built == []
    tracemalloc.start()
    try:
        result = run_sweep(cfg)
        retained_mb = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert result.values.shape == (100, 100)
    assert retained_mb < 0.25


def test_sweep_builds_each_point_geometry_once(monkeypatch) -> None:
    # run_sweep evaluates every closed form on the stack of all sampled
    # points: one geometry_at call of shape (points, n) builds each point's
    # geometry once.
    calls: dict[str, list] = {}
    _count(monkeypatch, calls, frames, "geometry_at", lambda args: np.shape(args[1]))
    run_sweep(RunConfig(ModelParams(3), num_points=4, num_directions=5, seed=7))
    assert calls == {"geometry_at": [(4, 3)]}


def _sweep_reference(cfg: RunConfig) -> list[tuple[int, float, int, float]]:
    """Sweep rows built point by point from the single-point closed forms."""
    params = cfg.params
    directions = sample_directions(params, cfg.num_directions, cfg.seed)
    rows = []
    for idx, pt in enumerate(sample_points(params, cfg.num_points, cfg.seed)):
        geo = point_geometry(params, pt)
        data = components_from_geometry(geo)
        R_ad = assemble_adapted_curvature(curvature_blocks(geo, data))
        values = curvature.holomorphic_sectional_curvature(
            R_ad, adapted_metric_matrix(data), adapted_j_matrix(data), directions
        )
        rows.extend((idx, float(geo.t), j, float(v)) for j, v in enumerate(values))
    return rows


@pytest.mark.parametrize(
    "params, rel",
    [
        (ModelParams(3, 1.0, 1.0), 0.0),
        (ModelParams(3, 2.0, 0.5), 0.0),
        (ModelParams(4, 1.0, 1.0), 0.0),
        # Bitwise too where measured; the bound leaves room for reductions
        # whose summation order may follow the stack size at n = 5.
        (ModelParams(5, 1.0, 1.0), 1e-15),
    ],
    ids=["n3", "n3-c2-a0.5", "n4", "n5"],
)
def test_stacked_sweep_equals_point_by_point_reference(params: ModelParams, rel: float) -> None:
    cfg = RunConfig(params, num_points=20, num_directions=30, seed=7)
    rows = run_sweep(cfg).rows
    expected = _sweep_reference(cfg)
    assert [(row[0], row[2]) for row in rows] == [(row[0], row[2]) for row in expected]
    for column in (1, 3):  # t and value
        got = np.array([row[column] for row in rows])
        want = np.array([row[column] for row in expected])
        if rel == 0.0:
            assert np.array_equal(got, want)
        else:
            assert float(np.max(np.abs(got - want) / np.abs(want))) <= rel


def _count(monkeypatch, calls: dict[str, list], module, name, shape) -> None:
    """Record ``shape(args)`` of each call of ``module.name`` under every binding.

    Calls for which ``shape`` returns None are not recorded.
    """
    inner = getattr(module, name)

    def counting(*args):
        recorded = shape(args)
        if recorded is not None:
            calls.setdefault(name, []).append(recorded)
        return inner(*args)

    for bound in [m for key, m in sys.modules.items() if key.startswith("kahler_tube")]:
        if getattr(bound, name, None) is inner:
            monkeypatch.setattr(bound, name, counting)


def _run_two_points(offset) -> None:
    run_verify(RunConfig(ModelParams(3), num_points=2, num_directions=5, seed=7, custom_v_offset=offset))


@pytest.mark.parametrize("offset", [None, 0.1], ids=["kahler", "offset"])
def test_verify_builds_each_point_geometry_once(offset, monkeypatch) -> None:
    # evaluate_point builds the real geometry (and so the real base metric),
    # the lifted blocks, the closed connection and the closed curvature once
    # per point and hands them to every layer; the layers' complex field
    # calls are not counted.
    calls: dict[str, list] = {}

    def real_geometry(geo):
        return None if np.iscomplexobj(geo.t) else np.shape(geo.t)

    count = functools.partial(_count, monkeypatch, calls)
    count(base_geometry, "metric_at", lambda args: None if np.iscomplexobj(args[1]) else np.shape(args[1]))
    count(frames, "geometry_at", lambda args: None if np.iscomplexobj(args[1]) else args[1].shape)
    count(lifted_metric, "components_from_geometry", lambda args: real_geometry(args[0]))
    count(connection, "coefficients_from_geometry", lambda args: real_geometry(args[0]))
    count(curvature, "curvature_blocks", lambda args: real_geometry(args[0]))
    _run_two_points(offset)
    # one stacked call for the sampled points, then one per point geometry
    assert calls["metric_at"] == [(2, 3), (3,), (3,)]
    assert calls["geometry_at"] == [(3,)] * 2
    assert calls["components_from_geometry"] == [()] * 2
    if offset is None:
        assert calls["coefficients_from_geometry"] == [()] * 2
        assert calls["curvature_blocks"] == [()] * 2
    else:
        assert "coefficients_from_geometry" not in calls and "curvature_blocks" not in calls


@pytest.mark.parametrize("offset", [None, 0.1], ids=["kahler", "offset"])
def test_verify_runs_each_oracle_once_per_point(offset, monkeypatch) -> None:
    # The curvature oracles hand their Koszul jet at the point (metric,
    # partials, Christoffels) to the connection and base checks: one
    # single-point Koszul call per metric (base chart, then lifted metric;
    # the batched outer stencils are not counted), and its complex step is
    # the only single-point complex call of the lifted metric field, which
    # metric compatibility reads too.  local_symmetry and the eight parallel
    # rows share one complex step of the closed curvature blocks, 2n complex
    # points.
    calls: dict[str, list] = {}
    _count(monkeypatch, calls, connection, "koszul_jet",
           lambda args: np.shape(args[1]) if np.ndim(args[1]) == 1 else None)
    _count(monkeypatch, calls, lifted_metric, "coordinate_metric",
           lambda args: np.shape(args[0].t) if np.iscomplexobj(args[0].t) and np.ndim(args[0].t) == 1 else None)
    _count(monkeypatch, calls, curvature, "curvature_blocks",
           lambda args: np.shape(args[0].t) if np.iscomplexobj(args[0].t) else None)
    _run_two_points(offset)
    if offset is None:
        assert calls["koszul_jet"] == [(3,), (6,)] * 2
        assert calls["coordinate_metric"] == [(6,)] * 2
        assert calls["curvature_blocks"] == [(6,)] * 2
    else:
        assert calls["koszul_jet"] == [(3,)] * 2
        assert "coordinate_metric" not in calls and "curvature_blocks" not in calls


#: Every layer that differentiates a closed-form field, with the arguments
#: after ``geo`` that its caller builds from the geometry and lifted blocks.
DERIVATIVE_LAYERS = [
    (verify_brackets, lambda geo, data: ()),
    (energy_frame_derivatives, lambda geo, data: ()),
    (fundamental_form, lambda geo, data: (KAHLER,)),
    (nijenhuis_fd_full, lambda geo, data: (KAHLER,)),
    (mtensor_parallel_residuals, lambda geo, data: ()),
    (parallel_block_residuals, lambda geo, data: (coefficients_from_geometry(geo, data),)),
]


@pytest.mark.parametrize(
    ("layer", "arguments"), DERIVATIVE_LAYERS, ids=[layer.__name__ for layer, _ in DERIVATIVE_LAYERS]
)
def test_each_derivative_layer_makes_one_complex_field_call(layer, arguments, monkeypatch) -> None:
    # The layer takes the caller's geometry: one complex step of 2n points
    # and no real geometry of its own.
    params = CONFIGS[0]
    n = params.dim
    geo = point_geometry(params, sample_points(params, 1, seed=11)[0])
    args = arguments(geo, components_from_geometry(geo))
    calls = []
    inner = frames.geometry_at

    def counting(params, x, p):
        calls.append((np.shape(x), np.iscomplexobj(x)))
        return inner(params, x, p)

    monkeypatch.setattr(frames, "geometry_at", counting)
    layer(geo, *args)
    assert [call for call in calls if call[1]] == [((2 * n, n), True)]
    assert [call for call in calls if not call[1]] == []


def _stacked_core_calls(monkeypatch, run) -> list:
    """Shapes of the stacked ``base_geometry._core`` calls that ``run()`` makes."""
    calls: dict[str, list] = {}
    _count(monkeypatch, calls, base_geometry, "_core",
           lambda args: np.shape(args[0]) if np.ndim(args[0]) > 1 else None)
    run()
    return calls.get("_core", [])


def test_curvature_oracle_builds_no_christoffel_stack(monkeypatch) -> None:
    # The stencil's metric fields read only gamma_p, whose closed form needs
    # no (..., n, n, n) Christoffel stack; reading gamma on a stack builds one.
    assert _stacked_core_calls(monkeypatch, lambda: curvature_oracle_coordinates(GEO_5)) == []
    assert _stacked_core_calls(monkeypatch, lambda: metric_at(PARAMS_5, np.zeros((2, 5))).gamma) == [(2, 5)]


@pytest.mark.parametrize(
    ("layer", "arguments"), DERIVATIVE_LAYERS, ids=[layer.__name__ for layer, _ in DERIVATIVE_LAYERS]
)
def test_derivative_layers_build_no_christoffel_stack(layer, arguments, monkeypatch) -> None:
    params = CONFIGS[0]
    geo = point_geometry(params, sample_points(params, 1, seed=11)[0])
    args = arguments(geo, components_from_geometry(geo))
    assert _stacked_core_calls(monkeypatch, lambda: layer(geo, *args)) == []


@pytest.mark.parametrize("imag", [0.0, 0.05], ids=["real", "complex"])
@pytest.mark.parametrize("params", CONFIGS, ids=["n3", "n4"])
def test_gamma_p_closed_form_equals_contracted_christoffels(params: ModelParams, imag: float) -> None:
    n = params.dim
    zs = _stack(params)
    if imag:
        zs = zs + imag * 1j * np.random.default_rng(n).standard_normal(zs.shape)
    geo = geometry_at(params, zs[:, :n], zs[:, n:])
    expected = np.einsum("...k,...kih->...ih", geo.p, geo.base.gamma)
    assert geo.gamma_p.dtype == expected.dtype
    assert np.max(np.abs(geo.gamma_p - expected)) <= 1e-14 * np.max(np.abs(expected))
