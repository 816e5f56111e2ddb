"""Batch- and dtype-generic geometry: a stack of points gives the stack of values.

``fd.field_jacobian`` hands each field its stencil as ``(k, 2n)`` stacks
(the whole stencil, or its tiles of whole axes), so every closed form must
treat leading axes as a batch; the complex step evaluates it on the complex
points ``fd.complex_points`` (or their geometry, ``frames.step_geometry``),
so the closed forms must also be analytic with guards on the real part.
The memory guards keep the nested oracle fields within budget.  A verify
point builds one complex geometry of 2n points, the step geometry, and
every layer that differentiates a closed form reads it instead of building
its own.
"""

import functools
import sys
import tracemalloc

import numpy as np
import pytest

from kahler_tube.base_geometry import DomainError, ModelParams, metric_at
from kahler_tube import base_geometry, connection, curvature, frames, lifted_metric
from kahler_tube.checks import RunConfig, evaluate_points, run_sweep, run_verify, tile_point_bytes
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
from kahler_tube.fd import COMPLEX_STEP, complex_jacobian, complex_points, field_jacobian, tiles
from kahler_tube.frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_transform,
    geometry_at,
    point_geometry,
    step_geometry,
    verify_brackets,
)
from kahler_tube.lifted_metric import (
    KAHLER,
    LiftProfile,
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
)
from kahler_tube.sampling import sample_chart_points, sample_directions, sample_points

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
        _assert_stacked(getattr(batch, name), [getattr(s, name) for s in singles])


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_lifted_blocks_batch_equal_points(params: ModelParams, offset) -> None:
    n = params.dim
    profile = LiftProfile(offset)
    zs = _stack(params)
    batch = components_from_geometry(geometry_at(params, zs[:, :n], zs[:, n:]), profile)
    singles = [components_from_geometry(geometry_at(params, z[:n], z[n:]), profile) for z in zs]
    for name in ("G", "H", "t", "v", "w"):
        _assert_stacked(getattr(batch, name), [getattr(s, name) for s in singles])


def _closed_form(params, profile, value):
    """``value(geometry, lifted blocks)`` at chart points z: one point or a stack, real or complex."""
    n = params.dim

    def at(z):
        geo = geometry_at(params, z[..., :n], z[..., n:])
        return value(geo, components_from_geometry(geo, profile))

    return at


def _coordinate_j(geo, data):
    return frame_transform(adapted_j_matrix(data), "ud", geo, to="coordinate")


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_fields_map_a_stack_to_the_stack_of_values(params: ModelParams, offset) -> None:
    profile = LiftProfile(offset)
    zs = _stack(params)
    values = [coordinate_metric, _coordinate_j] + ([curvature_blocks] if offset is None else [])
    for value in values:
        field = _closed_form(params, profile, value)
        _assert_stacked(field(zs), [field(z) for z in zs])
        # Any number of leading batch axes.
        _assert_stacked(field(zs.reshape(1, 5, -1))[0], [field(z) for z in zs])


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_one_point_outside_the_tube_fails_the_whole_stack(params: ModelParams, offset) -> None:
    zs = _stack(params)
    n = params.dim
    zs[3, n:] *= 3.0  # |p|^2 grows ninefold: past 4c/A^2 from any sampled t
    field = _closed_form(params, LiftProfile(offset), coordinate_metric)
    if offset is None:
        with pytest.raises(DomainError, match="tube bound"):
            field(zs)
    zs[3, n:] = 0.0  # on the zero section: outside for every profile
    with pytest.raises(DomainError):
        field(zs)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_stack_real_part_equals_real_evaluation(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    zc = complex_points(zs)
    fields = [
        (_closed_form(params, LiftProfile(offset), coordinate_metric), zs, zc),
        (base_geometry.metric_field(params), zs[:, :n], zc[..., :n]),
    ]
    for field, real, cplx in fields:
        out = field(cplx)
        assert np.iscomplexobj(out)
        _assert_stacked(out.real, np.broadcast_to(field(real)[:, None], out.shape))


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_step_jacobian_agrees_with_central_differences(params: ModelParams, offset) -> None:
    # The closed forms are evaluated on the step geometry of the stack, as
    # the battery does, the base metric field on the complex points.
    n = params.dim
    zs = _stack(params)
    profile = LiftProfile(offset)
    step_geo = step_geometry(geometry_at(params, zs[:, :n], zs[:, n:]))
    step_data = components_from_geometry(step_geo, profile)
    values = [
        coordinate_metric,
        # Closed forms that allocate their output must take the input's dtype.
        lambda geo, data: adapted_j_matrix(data),
        lambda geo, data: geo.dM,
    ]
    if offset is None:
        values.append(lambda geo, data: assemble_adapted_curvature(curvature_blocks(geo, data)))
    base_field = base_geometry.metric_field(params)
    fields = [(base_field(complex_points(zs[:, :n])), base_field, zs[:, :n])]
    fields += [(value(step_geo, step_data), _closed_form(params, profile, value), zs) for value in values]
    for on_steps, field, points in fields:
        _, jac = complex_jacobian(on_steps, 1)
        central = [field_jacobian(field, z).value for z in points]
        _assert_stacked(jac.value, central, 1e-7)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_block_coordinate_metric_equals_frame_transform(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    geo = geometry_at(params, zs[:, :n], zs[:, n:])
    data = components_from_geometry(geo, LiftProfile(offset))
    via_frame = frame_transform(adapted_metric_matrix(data), "dd", geo, to="coordinate")
    _assert_stacked(coordinate_metric(geo, data), via_frame)


@pytest.mark.parametrize(("params", "offset"), CASES, ids=CASE_IDS)
def test_complex_point_whose_real_part_leaves_the_tube_raises(params: ModelParams, offset) -> None:
    n = params.dim
    zs = _stack(params)
    field = _closed_form(params, LiftProfile(offset), coordinate_metric)
    if offset is None:
        zs[3, n:] *= 3.0  # past 4c/A^2 from any sampled t
        with pytest.raises(DomainError, match="tube bound"):
            field(complex_points(zs))
    zs[3, n:] = 0.0  # real part on the zero section; the imaginary step stays
    with pytest.raises(DomainError):
        field(complex_points(zs))


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
    # Measured at n = 5 (tracemalloc peak, step geometry built in the
    # measured run): about 0.86 MB with the outer stencil's complex-step
    # Christoffels evaluated in five tiles of two axes (fd.tiles); 3.12 MB
    # with the whole 60-point stencil in one metric-field call; 4.28 MB when
    # every stacked geometry also built the (600, 5, 5, 5) Christoffel stack
    # for gamma_p; about 7.4 MB when the metric went through frame_transform.
    # Real-fd Koszul stencils took about 1.1 MB looped over the outer stencil
    # point by point and about 15 MB nested in one batch.  The bound leaves
    # 0.24 MB (about a quarter) above the measured peak.
    assert _peak_mb(lambda: curvature_oracle_coordinates(GEO_5, *_step(GEO_5))) < 1.1


def test_parallel_blocks_memory_one_complex_step_of_the_blocks() -> None:
    # Measured at n = 5 (tracemalloc peak): about 0.68 MB with the step
    # geometry built in the measured run and the layer building the
    # closed-form families on it one family at a time, each family's complex
    # step values, Jacobian and frame derivative dropped before the next; the
    # bound, 1.3 MB before, is 0.85 MB.  Building all four families at once,
    # with one frame derivative of the stack, took about 1.05 MB.  The layer
    # on a step geometry built outside the measured run takes about
    # 0.66 MB, held in nabla K's odd sectors, in tiles of (point, horizontal
    # direction) items, as when the families came in from outside: no dK,
    # the eight rows on the families.  Assembling dK and taking the whole
    # nabla K two frame directions at a time took 0.73 MB alone; with the
    # whole (2n)^5 dK and nabla K at once, 2.81 MB.  A second complex step
    # of the assembled adapted-frame curvature alone peaked at about 3.2 MB;
    # one of the coordinate-frame curvature at about 5.1 MB, because
    # frame_transform then works on a complex (10, 10^4) stack.  The bare
    # bound leaves a quarter above the measured peak.
    W = coefficients_from_geometry(GEO_5, components_from_geometry(GEO_5))
    assert _peak_mb(lambda: parallel_block_residuals(GEO_5, W, *_step(GEO_5))) < 0.85
    inputs = _step(GEO_5)
    assert _peak_mb(lambda: parallel_block_residuals(GEO_5, W, *inputs)) < 0.82


@pytest.mark.parametrize(("dim", "count"), [(3, 12), (4, 4), (5, 1)], ids=["n3x12", "n4x4", "n5"])
def test_one_stacked_tile_stays_within_its_stated_bytes(dim: int, count: int) -> None:
    # run_verify tiles its points by checks.tile_point_bytes: 12 points at
    # n = 3 make two tiles of six, 4 points at n = 4 two tiles of two (three
    # points fit a tile), an n = 5 point is a tile of its own.  Under the
    # offset profile only the layers that run under every profile hold
    # stacks, so the tile's tracemalloc peak must stay within its points
    # times the stated bytes (measured: about 0.27 of 0.41 MB at n = 3, 0.25
    # of 0.33 MB at n = 4, 0.29 of 0.32 MB at n = 5).  The Kähler profile
    # stacks the integrable layers too; those that tile their own stacks (the
    # oracle's stencil, nabla K's odd sectors) add a fixed working set, which
    # the oracle's own bound above caps at 1.1 MB (measured: about 0.95 of
    # 1.5 MB at n = 3, 0.93 of 1.4 MB at n = 4, 1.0 of 1.4 MB at n = 5).
    params = ModelParams(dim)
    tile = tiles(count, tile_point_bytes(dim))[0]
    assert tile.stop == {3: 6, 4: 2, 5: 1}[dim]
    pts = BundlePoint(*(coords[tile] for coords in sample_chart_points(params, count, 7)))
    directions = sample_directions(params, 100, 7)
    stated_mb = tile.stop * tile_point_bytes(dim) / 1e6
    assert _peak_mb(lambda: evaluate_points(params, pts, LiftProfile(0.1), directions)) <= stated_mb
    assert _peak_mb(lambda: evaluate_points(params, pts, KAHLER, directions)) <= stated_mb + 1.1


def test_sweep_memory_stays_one_point_deep() -> None:
    # Measured at (3,1,1), 100 points x 100 directions (tracemalloc peak):
    # about 1.07 MB (2.8 MB at (4,1,1)) with the holomorphic form built
    # straight from the stacked curvature families, one (100, 4, 3, 3, 3, 3)
    # array of 0.26 MB: its four terms are contracted between two buffers of
    # that size, the form is (100, 2, 144) and the curvatures come from one
    # (100, 2, 144) @ (144, 100) product; the columnar result holds 0.08 MB.
    # The route it replaced folded the assembled (100, 6, 6, 6, 6) curvature
    # (1.0 MB) point by point and peaked at about 1.64 MB (4.67 MB at
    # (4,1,1)); with the same two buffers left alive to the end of the form
    # the family route peaked at 1.44 MB.  Folding the assembled form for
    # all points at once peaked at about 5.4 MB.
    cfg = RunConfig(ModelParams(3, 1.0, 1.0), num_points=100, num_directions=100, seed=7)
    assert _peak_mb(lambda: run_sweep(cfg)) < 1.5


def test_sweep_csv_memory_stays_one_tile_deep() -> None:
    # Measured at (3,1,1), 100 points x 100 directions, seed 7 (tracemalloc
    # peak of run_sweep(cfg).to_csv()): about 1.07 MB, set by run_sweep;
    # to_csv alone peaks at about 0.93 MB, the tile strings and their join.
    # Writing the lines through one %.17g template per point peaked at
    # 1.44 MB (1.37 MB for to_csv alone at seed 1).  The first call in a
    # process also builds format_floats' lookup tables (a 0.26 MB peak, 0.18 MB
    # kept) and peaks at about 1.19 MB; the warm-up call keeps the figure
    # steady.
    cfg = RunConfig(ModelParams(3, 1.0, 1.0), num_points=100, num_directions=100, seed=7)
    run_sweep(cfg).to_csv()
    assert _peak_mb(lambda: run_sweep(cfg).to_csv()) < 1.25


def test_verify_memory_stays_one_tile_deep() -> None:
    # Measured at (5,1,1), 100 directions (tracemalloc peak): 1.02 MB for
    # one point, 1.05 MB for 4 and 1.11 MB for 16, every point a tile of its
    # own (1.24, 1.26 and 1.32 MB when the four curvature families were
    # built on the step stack at once).  Each tile samples its own
    # holomorphic curvatures after its K is dropped, and run_verify keeps
    # only the (points, directions) curvatures across tiles.  Carrying every tile's curvature families out
    # and sampling once at the end peaked at 1.38 MB for 4 points and
    # 2.17 MB for 16, growing with the point count.
    def peak(count: int) -> float:
        return _peak_mb(lambda: run_verify(RunConfig(ModelParams(5), num_points=count, seed=7)))

    assert peak(16) - peak(1) < 0.25


def test_verify_point_memory_one_curvature_family_deep() -> None:
    # The step stack holds one curvature family at a time: its complex
    # values on the 2n step points, their Jacobian and frame derivative.
    # Measured (tracemalloc peak, one point, seed 7): a (5,1,1) run_verify
    # point takes 1.02 MB, held in holomorphic_sample, and a Kähler (8,1,1)
    # evaluate_points point 4.95 MB, held in the family build.  With all four
    # families on the step stack at once they took 1.24 and 9.73 MB.
    assert _peak_mb(lambda: run_verify(RunConfig(ModelParams(5), num_points=1, seed=7))) < 1.1
    params = ModelParams(8)
    point = BundlePoint(*sample_chart_points(params, 1, 7))
    directions = sample_directions(params, 100, 7)
    assert _peak_mb(lambda: evaluate_points(params, point, KAHLER, directions)) < 6.0


def test_sweep_never_assembles_the_adapted_curvature(monkeypatch) -> None:
    # The sweep reads the four families and the metric blocks only: no
    # (points, 2n, 2n, 2n, 2n) tensor is built.
    calls: dict[str, list] = {}
    _count(monkeypatch, calls, curvature, "assemble_adapted_curvature", lambda args: np.shape(args[0]))
    run_sweep(RunConfig(ModelParams(3), num_points=4, num_directions=5, seed=7))
    assert calls == {}


@pytest.mark.parametrize("family", range(4), ids=["hhh", "vvh", "vhh", "vhv"])
def test_planted_family_error_moves_the_sweep(family: int, monkeypatch) -> None:
    # A 1e-6 relative error planted in any one of the four families must
    # show in the sweep values, far above round-off: every family enters the
    # holomorphic form.
    cfg = RunConfig(ModelParams(3), num_points=20, num_directions=30, seed=7)
    clean = run_sweep(cfg).values
    inner = curvature.curvature_blocks

    def planted(geo, data):
        T = inner(geo, data)
        T[..., family, :, :, :, :] *= 1.0 + 1e-6
        return T

    monkeypatch.setattr(curvature, "curvature_blocks", planted)
    moved = float(np.max(np.abs(run_sweep(cfg).values - clean))) / float(np.max(np.abs(clean)))
    assert 1e-9 < moved < 1e-5


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
    """Sweep rows built point by point from the single-point closed forms.

    Each point calls the family route of the sweep on its own families; the
    route's agreement with the assembled-tensor fold is a separate
    round-off test (tests/test_contractions.py, tests/test_curvature.py).
    """
    params = cfg.params
    directions = sample_directions(params, cfg.num_directions, cfg.seed)
    rows = []
    for idx, pt in enumerate(sample_points(params, cfg.num_points, cfg.seed)):
        geo = point_geometry(params, pt)
        data = components_from_geometry(geo)
        values = curvature.holomorphic_sectional_curvature(curvature_blocks(geo, data), data.G, data.H, directions)
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
    # evaluate_points builds the real geometry (and so the real base metric)
    # and the lifted blocks once, on the stack of the tile's points, and
    # hands them to every layer; the integrable-only layers build the closed
    # connection once, on the same stack.  The layers' complex field calls
    # are not counted.  The closed curvature is read off the step geometry
    # (the next test), so curvature_blocks never runs on the real geometry.
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
    # the sampler's stacked call, then the tile's geometry
    assert calls["metric_at"] == [(2, 3), (2, 3)]
    assert calls["geometry_at"] == [(2, 3)]
    assert calls["components_from_geometry"] == [(2,)]
    if offset is None:
        assert calls["coefficients_from_geometry"] == [(2,)]
    else:
        assert "coefficients_from_geometry" not in calls
    assert "curvature_blocks" not in calls


@pytest.mark.parametrize("offset", [None, 0.1], ids=["kahler", "offset"])
def test_verify_runs_each_oracle_once_per_point(offset, monkeypatch) -> None:
    # A verify tile builds one complex geometry of 2n points per point, the
    # step geometry, as one (points, 2n) stack with its lifted blocks for
    # the run's profile; every complex-step layer reads its derivative from
    # them, once per tile.  koszul_jet reads the Koszul jet of the base chart
    # off the base metric on the tile's complex points and, for the Kähler
    # profile, that of the lifted metric off the coordinate metric on the
    # step stack (the batched outer stencils, which lead with their stencil
    # points, are not counted, nor are their coordinate metrics).  curvature_blocks runs on the step stack
    # only, once per family, each family named alone: their frame derivatives
    # give the families at the points, which the curvature rows,
    # local_symmetry, the eight parallel rows and the holomorphic rows share;
    # every call is counted.
    calls: dict[str, list] = {}

    def leading(value, size):
        return np.shape(value) if np.shape(value)[:1] == (size,) else None

    _count(monkeypatch, calls, frames, "geometry_at",
           lambda args: leading(args[1], 2) if np.iscomplexobj(args[1]) else None)
    _count(monkeypatch, calls, lifted_metric, "components_from_geometry",
           lambda args: leading(args[0].t, 2) if np.iscomplexobj(args[0].t) else None)
    _count(monkeypatch, calls, connection, "koszul_jet", lambda args: leading(args[0], 2))
    _count(monkeypatch, calls, lifted_metric, "coordinate_metric",
           lambda args: leading(args[0].t, 2) if np.iscomplexobj(args[0].t) else None)
    _count(monkeypatch, calls, curvature, "curvature_blocks", lambda args: (np.shape(args[0].t),) + tuple(args[2:]))
    _run_two_points(offset)
    assert calls["geometry_at"] == [(2, 6, 3)]
    assert calls["components_from_geometry"] == [(2, 6)]
    if offset is None:
        assert calls["koszul_jet"] == [(2, 3, 3, 3), (2, 6, 6, 6)]
        assert calls["coordinate_metric"] == [(2, 6)]
        assert calls["curvature_blocks"] == [((2, 6), (family,)) for family in ("hhh", "vvh", "vhh", "vhv")]
    else:
        assert calls["koszul_jet"] == [(2, 3, 3, 3)]
        assert "coordinate_metric" not in calls and "curvature_blocks" not in calls


def _step(geo):
    """The step geometry of ``geo`` and its Kähler blocks."""
    step_geo = step_geometry(geo)
    return step_geo, components_from_geometry(step_geo)


#: Every layer that reads a complex step, with its arguments, built from the
#: geometry, the lifted blocks and the step geometry with its blocks.
#: parallel_block_residuals reads it through the frame derivative of each
#: curvature family, which it builds on the step geometry.
DERIVATIVE_LAYERS = [
    (verify_brackets, lambda geo, data, step_geo, step_data: (geo, step_geo)),
    (energy_frame_derivatives, lambda geo, data, step_geo, step_data: (geo, step_geo)),
    (fundamental_form, lambda geo, data, step_geo, step_data: (step_geo, step_data)),
    (nijenhuis_fd_full, lambda geo, data, step_geo, step_data: (geo, step_geo, step_data)),
    (mtensor_parallel_residuals, lambda geo, data, step_geo, step_data: (geo, step_data)),
    (
        parallel_block_residuals,
        lambda geo, data, step_geo, step_data: (
            geo, coefficients_from_geometry(geo, data), step_geo, step_data
        ),
    ),
]


@pytest.mark.parametrize(
    ("layer", "arguments"), DERIVATIVE_LAYERS, ids=[layer.__name__ for layer, _ in DERIVATIVE_LAYERS]
)
def test_each_derivative_layer_makes_one_complex_field_call(layer, arguments, monkeypatch) -> None:
    # The layer takes the caller's geometry and step geometry: the step's 2n
    # complex points are the only geometry built, and the layer builds none.
    params = CONFIGS[0]
    n = params.dim
    geo = point_geometry(params, sample_points(params, 1, seed=11)[0])
    data = components_from_geometry(geo)
    calls = []
    inner = frames.geometry_at

    def counting(params, x, p):
        calls.append((np.shape(x), np.iscomplexobj(x)))
        return inner(params, x, p)

    monkeypatch.setattr(frames, "geometry_at", counting)
    layer(*arguments(geo, data, *_step(geo)))
    assert calls == [((2 * n, n), True)]


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
    assert _stacked_core_calls(monkeypatch, lambda: curvature_oracle_coordinates(GEO_5, *_step(GEO_5))) == []
    assert _stacked_core_calls(monkeypatch, lambda: metric_at(PARAMS_5, np.zeros((2, 5))).gamma) == [(2, 5)]


@pytest.mark.parametrize(
    ("layer", "arguments"), DERIVATIVE_LAYERS, ids=[layer.__name__ for layer, _ in DERIVATIVE_LAYERS]
)
def test_derivative_layers_build_no_christoffel_stack(layer, arguments, monkeypatch) -> None:
    # The step geometry is a stack of 2n points, so it is built in the run.
    params = CONFIGS[0]
    geo = point_geometry(params, sample_points(params, 1, seed=11)[0])
    data = components_from_geometry(geo)
    assert _stacked_core_calls(monkeypatch, lambda: layer(*arguments(geo, data, *_step(geo)))) == []


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
