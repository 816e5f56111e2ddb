"""Curvature of the lifted metric: blocks, Einstein identity, parallelism."""

import numpy as np
import pytest

from kahler_tube import curvature, fd, frames
from kahler_tube.base_geometry import DomainError, ModelParams, first_bianchi_residual
from kahler_tube.complex_structure import adapted_j_matrix
from kahler_tube.connection import (
    coefficients_from_geometry,
    covariant_derivative,
    koszul_jet,
    koszul_oracle,
)
from kahler_tube.curvature import (
    assemble_adapted_curvature,
    covariant_derivative_residual,
    curvature_blocks,
    curvature_from_metric_field,
    curvature_oracle_coordinates,
    direction_antisymmetry_residual,
    einstein_residuals,
    holomorphic_sample,
    holomorphic_sectional_curvature,
    j_invariance_residual,
    pair_skew_residual,
    parallel_block_residuals,
    ricci_tensor,
    sector_residuals,
)
from kahler_tube.fd import complex_points, field_jacobian
from kahler_tube.frames import BundlePoint, frame_derivative, frame_transform, point_geometry, step_geometry
from kahler_tube.lifted_metric import (
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
    metric_field,
)
from kahler_tube.report import relative_spread
from kahler_tube.sampling import sample_chart_points, sample_directions, sample_points

import holomorphic_reference as reference_route
from test_batch import _count

PARAMS = ModelParams(3)
# Flat-origin anchor: x = 0, p = (1,0,0), t = 1/2, v = 1, w = -4/3.
ANCHOR = BundlePoint(x=np.zeros(3), p=np.array([1.0, 0.0, 0.0]))
GENERIC = BundlePoint(x=np.array([0.25, -0.15, 0.3]), p=np.array([0.5, 0.4, -0.2]))


def _built(pt, params=PARAMS):
    """The point geometry and lifted blocks that the layers take."""
    geo = point_geometry(params, pt)
    return geo, components_from_geometry(geo)


def _step(geo):
    """The step geometry and its Kähler blocks that the complex-step layers take."""
    step_geo = step_geometry(geo)
    return step_geo, components_from_geometry(step_geo)


def _oracle(geo):
    """The curvature oracle's Koszul jet and coordinate curvature at ``geo``."""
    return curvature_oracle_coordinates(geo, *_step(geo))


def _families(geo):
    """The closed families at ``geo`` and their frame derivatives, from its step geometry."""
    return frame_derivative(geo, curvature_blocks(*_step(geo)))


def _parallel(pt, params=PARAMS):
    """The rows of ``parallel_block_residuals`` at ``pt``, with the inputs ``evaluate_points`` hands it."""
    geo, W = _coefficients(pt, params)
    return parallel_block_residuals(geo, W, *_step(geo))[2]


def _holomorphic_setup(pt, params=PARAMS):
    """The closed families and the metric blocks that the holomorphic route takes."""
    geo, data = _built(pt, params)
    return curvature_blocks(geo, data), data.G, data.H


def _adapted_setup(pt, params=PARAMS):
    geo, data = _built(pt, params)
    R_ad = assemble_adapted_curvature(curvature_blocks(geo, data))
    S_ad = adapted_metric_matrix(data)
    J_ad = adapted_j_matrix(data)
    return geo, R_ad, S_ad, J_ad


def _coefficients(pt, params=PARAMS):
    """The point geometry and its closed-form adapted connection W."""
    geo, data = _built(pt, params)
    return geo, coefficients_from_geometry(geo, data)


def test_blocks_match_oracle_per_family() -> None:
    geo, R_closed, _, _ = _adapted_setup(GENERIC)
    _, R_coord = _oracle(geo)
    R_oracle = frame_transform(R_coord, "uddd", geo, to="adapted")
    res = sector_residuals(R_closed, R_oracle, geo.n)
    assert set(res) == {"hhh", "hhv", "vvh", "vvv", "vhh", "vhv", "structural_zero"}
    for family, value in res.items():
        assert value < 1e-5, family


def test_oracle_transforms_consistently() -> None:
    geo = point_geometry(PARAMS, GENERIC)
    _, R_coord = _oracle(geo)
    R_ad = frame_transform(R_coord, "uddd", geo, to="adapted")
    assert np.max(np.abs(frame_transform(R_ad, "uddd", geo, to="coordinate") - R_coord)) < 1e-9


def test_closed_form_coordinate_curvature_matches_oracle() -> None:
    geo, R_ad, _, _ = _adapted_setup(GENERIC)
    R_closed = frame_transform(R_ad, "uddd", geo, to="coordinate")
    _, R_oracle = _oracle(geo)
    assert np.max(np.abs(R_closed - R_oracle)) < 1e-5


def test_curvature_oracle_takes_two_metric_field_calls(monkeypatch) -> None:
    # The Christoffels at the point come from the step geometry, the one
    # geometry of 2n complex points; every Koszul evaluation of the outer
    # stencil is one more call.  metric_field calls its own binding of
    # geometry_at, so every binding is counted, as the benchmark's tracer
    # counts them.
    geo = point_geometry(PARAMS, GENERIC)
    calls = {}
    _count(monkeypatch, calls, frames, "geometry_at", lambda args: np.shape(args[1]))
    _oracle(geo)
    n = PARAMS.dim
    assert calls["geometry_at"] == [(2 * n, n), (2 * n * 3 * 2, 2 * n, n)]


def _sampled_geometry(dim: int):
    params = ModelParams(dim)
    return point_geometry(params, sample_points(params, 1, seed=11)[0])


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_curvature_oracle_tiles_its_stencil_by_working_set(dim: int, monkeypatch) -> None:
    # The outer stencil's Koszul evaluations are one metric-field call at
    # n = 3 and tiles of whole axes (six points each) from n = 4 on.
    geo = _sampled_geometry(dim)
    found = {}
    _count(monkeypatch, found, frames, "geometry_at", lambda args: np.shape(args[1]))
    _oracle(geo)
    calls = found["geometry_at"]
    m = 2 * dim
    assert calls[0] == (m, dim)  # the step geometry
    stencil = calls[1:]
    assert all(shape[0] % 6 == 0 and shape[1:] == (m, dim) for shape in stencil)
    assert sum(shape[0] for shape in stencil) == 6 * m
    if dim == 3:
        assert stencil == [(6 * m, m, dim)]
    else:
        assert 1 < len(stencil) <= m


def _oracle_stencil(geo, monkeypatch):
    """The field, point and ``point_bytes`` of the curvature oracle's ``field_jacobian`` call."""
    seen = []
    inner = curvature.field_jacobian

    def recording(field, x, point_bytes=0):
        seen.append((field, x, point_bytes))
        return inner(field, x, point_bytes)

    monkeypatch.setattr(curvature, "field_jacobian", recording)
    _oracle(geo)
    (call,) = seen
    return call


@pytest.mark.parametrize("dim", [5, 8])
def test_tiled_koszul_stencil_equals_one_call_bitwise(dim: int, monkeypatch) -> None:
    # Each axis's derivative and error read only its own six points, so the
    # tiles change no float; at n = 8 every axis is a tile of its own.
    field, z, point_bytes = _oracle_stencil(_sampled_geometry(dim), monkeypatch)
    calls = []

    def counted(points):
        calls.append(len(points))
        return field(points)

    whole = field_jacobian(counted, z)
    tiled = field_jacobian(counted, z, point_bytes)
    m = 2 * dim
    assert calls[0] == 6 * m and 1 < len(calls[1:]) <= m
    if dim == 8:
        assert calls[1:] == [6] * m
    np.testing.assert_array_equal(tiled.value, whole.value)
    assert tiled.error == whole.error


def _stack_geometry(dim: int):
    """The geometry of three sampled points at (dim, 1, 1), as one stack."""
    params = ModelParams(dim)
    return point_geometry(params, BundlePoint(*sample_chart_points(params, 3, 7)))


def _dense_nabla_k(W, T, dT):
    """The whole (2n)^5 nabla K per point from the assembly of ``T`` and ``dT``: local_symmetry's reference."""
    return covariant_derivative(W, assemble_adapted_curvature(T), assemble_adapted_curvature(dT), "uddd")


def _odd_sectors(m: int) -> np.ndarray:
    """(m, m, m, m) mask of the adapted sectors with an odd number of vertical slots."""
    v = (np.arange(m) >= m // 2).astype(int)
    return (v[:, None, None, None] + v[:, None, None] + v[:, None] + v) % 2 == 1


def _planted_blocks(family: int, eps: float, kind: str):
    """``curvature_blocks`` with a relative error ``eps`` planted in one family wherever it is built."""
    name = ("hhh", "vvh", "vhh", "vhv")[family]

    def planted(geo, data, families=("hhh", "vvh", "vhh", "vhv")):
        T = curvature_blocks(geo, data, families)
        if name in families:
            block = T[..., families.index(name), :, :, :, :]
            block *= 1.0 + eps * (np.random.default_rng(family).standard_normal(block.shape) if kind == "random" else 1.0)
        return T

    return planted


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_local_symmetry_equals_the_dense_nabla_k(dim: int, monkeypatch) -> None:
    # The dense nabla K of the assembly is kept on the test side only.  Its
    # even sectors are the eight parallel rows and its odd ones
    # covariant_derivative_residual, each to round-off, so local_symmetry is
    # its maximum.  Both routes sum O(1) terms that cancel to the planted
    # error (or to round-off): against a long-double dense reference each
    # stays within one eps of the operands' scale max(|dT|, |W| |T|) at
    # n = 2 to 5, so they agree to 8 eps of it, whatever the planted size.
    geo = _stack_geometry(dim)
    W = coefficients_from_geometry(geo, components_from_geometry(geo))
    step = _step(geo)
    odd = _odd_sectors(2 * dim)
    cases = [curvature_blocks] + [
        _planted_blocks(family, eps, kind)
        for family in range(4) for kind in ("uniform", "random") for eps in (1e-6, 1e-2)
    ]
    for k, blocks in enumerate(cases):
        monkeypatch.setattr(curvature, "curvature_blocks", blocks)  # where the layer builds the families
        T, dT = frame_derivative(geo, blocks(*step))
        built, _, rows = parallel_block_residuals(geo, W, *step)
        np.testing.assert_array_equal(built, T)
        local = rows.pop("local_symmetry")
        dense = np.abs(_dense_nabla_k(W, T, dT))
        even_max, odd_max = (dense[..., sectors].max(axis=(-2, -1)) for sectors in (~odd, odd))
        np.testing.assert_allclose(np.maximum.reduce(list(rows.values())), even_max, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            covariant_derivative_residual(W, assemble_adapted_curvature(T)), odd_max, rtol=1e-12, atol=1e-15
        )
        scale = max(np.abs(dT).max(), np.abs(W).max() * np.abs(T).max())
        assert np.max(np.abs(local - np.maximum(even_max, odd_max))) <= 8 * np.finfo(float).eps * scale, k
        if k == 0:
            clean_T = T
    assert dim == 2 or all(np.abs(clean_T[:, f]).max() > 1e-3 for f in range(4))  # no vanishing family past n = 2


def test_odd_sectors_over_tiles_equal_one_call(monkeypatch) -> None:
    # At n = 5 each point is a tile of its own, its five horizontal
    # directions three tiles (fd.tiles); with a working set that holds the
    # whole stack the residual is one call, and every float is the same.
    geo = _stack_geometry(5)
    W = coefficients_from_geometry(geo, components_from_geometry(geo))
    K = assemble_adapted_curvature(_families(geo)[0])
    counts = []

    def counted(count, item_bytes):
        split = fd.tiles(count, item_bytes)
        counts.append(len(split))
        return split

    monkeypatch.setattr(curvature, "tiles", counted)
    tiled = covariant_derivative_residual(W, K)
    assert counts == [3, 3, 3, 3]
    monkeypatch.setattr(fd, "WORKING_SET", 1 << 40)
    counts.clear()
    np.testing.assert_array_equal(covariant_derivative_residual(W, K), tiled)
    assert counts == [1, 1]


def test_nan_in_one_directions_w_stays_at_its_point() -> None:
    # A NaN in the connection along one direction at point 1 reaches
    # local_symmetry there and nowhere else: along the last horizontal
    # direction through the odd sectors (the last direction tile at n = 5),
    # along the first vertical one through the parallel rows.
    geo = _stack_geometry(5)
    n = geo.n
    W = coefficients_from_geometry(geo, components_from_geometry(geo))
    step = _step(geo)
    clean = parallel_block_residuals(geo, W, *step)[2]["local_symmetry"]
    for direction in (n - 1, n):
        planted = W.copy()
        planted[1, :, direction] = np.nan
        local = parallel_block_residuals(geo, planted, *step)[2]["local_symmetry"]
        assert np.isnan(local[1]), direction
        np.testing.assert_array_equal(np.delete(local, 1), np.delete(clean, 1))


def test_oracle_jet_from_the_step_geometry_equals_the_koszul_jet() -> None:
    geo = point_geometry(PARAMS, GENERIC)
    jet, _ = _oracle(geo)
    for got, want in zip(jet, koszul_jet(metric_field(PARAMS)(complex_points(geo.z)), 0)):
        np.testing.assert_array_equal(got, want)


def test_curvature_oracle_pair_skew_near_the_tube_end() -> None:
    # (3,2,0.5) at t/t_max = 0.95, where stacked real-fd Christoffels gave a
    # pair skew of 1.4e-6, above the 1e-6 tolerance of curvature_pair_skew.
    params = ModelParams(3, 2.0, 0.5)
    x = np.linspace(0.1, 0.3, 3)
    direction = np.linspace(0.5, -0.4, 3)
    t_max = 2.0 * params.curvature / params.lift_const**2
    t_dir = point_geometry(params, BundlePoint(x=x, p=direction)).t
    pt = BundlePoint(x=x, p=direction * np.sqrt(0.95 * t_max / t_dir))
    assert point_geometry(params, pt).t == pytest.approx(0.95 * t_max, rel=1e-12)
    geo, data = _built(pt, params)
    _, R = _oracle(geo)
    assert pair_skew_residual(R, coordinate_metric(geo, data)) <= 1e-6


def test_assembly_of_a_stack_equals_assembly_per_item() -> None:
    # Leading axes carry through: the battery assembles a stack of points,
    # and local_symmetry's dense reference above the frame derivatives of
    # the families, a (directions, 4, n, n, n, n) stack, in one call.
    geo, data = _built(GENERIC)
    T = curvature_blocks(geo, data)
    stack = np.stack([T, 2.0 * T, np.random.default_rng(4).standard_normal(T.shape)])
    assert stack.shape == (3, 4, 3, 3, 3, 3)
    assembled = assemble_adapted_curvature(stack)
    assert assembled.shape == (3, 6, 6, 6, 6)
    for k in range(len(stack)):
        np.testing.assert_array_equal(assembled[k], assemble_adapted_curvature(stack[k]))


def test_structural_antisymmetry_exact() -> None:
    _, R_ad, _, _ = _adapted_setup(GENERIC)
    assert direction_antisymmetry_residual(R_ad) < 1e-14


def test_oracle_identities() -> None:
    geo, data = _built(GENERIC)
    _, R_coord = _oracle(geo)
    S_coord = coordinate_metric(geo, data)
    assert first_bianchi_residual(R_coord) < 1e-7
    assert pair_skew_residual(R_coord, S_coord) < 1e-7


def test_j_invariance_of_curvature() -> None:
    geo, R_ad, S_ad, J_ad = _adapted_setup(GENERIC)
    assert j_invariance_residual(R_ad, S_ad, J_ad) < 1e-11


def test_ricci_anchor_values() -> None:
    # At the anchor the adapted Ricci tensor is diagonal:
    # horizontal (2.25, 0.75, 0.75), vertical (1, 3, 3).
    _, R_ad, _, _ = _adapted_setup(ANCHOR)
    ric = ricci_tensor(R_ad)
    expected = np.diag([2.25, 0.75, 0.75, 1.0, 3.0, 3.0])
    assert np.max(np.abs(ric - expected)) < 1e-12


def test_einstein_identity_closed_form() -> None:
    # Ric = (A n / 2) S with n the base dimension: check against the
    # closed-form curvature (machine precision) and the metric blocks.
    geo, R_ad, S_ad, _ = _adapted_setup(GENERIC)
    ric = ricci_tensor(R_ad)
    factor = 0.5 * PARAMS.lift_const * PARAMS.dim
    assert np.max(np.abs(ric - factor * S_ad)) < 1e-12


def test_einstein_identity_oracle() -> None:
    geo, data = _built(GENERIC)
    identity, mixed_block = einstein_residuals(
        geo, coordinate_metric(geo, data), _oracle(geo)[1]
    )
    assert identity < 1e-5
    assert mixed_block < 1e-5


def test_covariant_derivative_vanishes() -> None:
    assert _parallel(GENERIC)["local_symmetry"] < 1e-7


def _stacked_oracle_curvature(field):
    """The oracle curvature as a field: each point of a stack in turn."""

    def curv_field(z: np.ndarray) -> np.ndarray:
        return np.stack([curvature_from_metric_field(field, zz)[1] for zz in z])

    return curv_field


def test_covariant_derivative_oracle_route_agrees() -> None:
    # An independent nabla K from oracle pieces only: the curvature oracle,
    # one central difference of it (complex step, then two difference
    # layers) and Koszul-oracle Christoffels, contracted in coordinates.  It
    # confirms the closed route's vanishing at its own, much coarser, noise
    # floor.
    field = metric_field(PARAMS)
    for pt in (ANCHOR, GENERIC):
        _, K = curvature_from_metric_field(field, pt.z)
        dK = field_jacobian(_stacked_oracle_curvature(field), pt.z).value
        oracle = covariant_derivative(koszul_oracle(field, pt.z), K, dK, "uddd")
        assert _parallel(pt)["local_symmetry"] < 1e-7
        assert float(np.max(np.abs(oracle))) < 1e-2


def test_parallel_block_identities() -> None:
    res = _parallel(GENERIC)
    expected_keys = {
        f"parallel_{family}_{direction}"
        for family in ("hhh", "vvh", "vhh", "vhv")
        for direction in ("horizontal", "vertical")
    } | {"local_symmetry"}
    assert set(res) == expected_keys
    for name, value in res.items():
        assert value < 1e-7, name


def test_batched_parallel_rows_equal_per_family_calls() -> None:
    # The eight rows are one covariant derivative a family, the horizontal
    # and vertical connections batched; each row equals the maximum of its
    # own call with one connection, as the rows were computed before.
    geo, W = _coefficients(GENERIC)
    n = geo.n
    T, dT = _families(geo)
    rows = parallel_block_residuals(geo, W, *_step(geo))[2]
    families = {"hhh": "uddd", "vvh": "uuud", "vhh": "uddd", "vhv": "uuud"}
    for kind, conn, dirs in (("horizontal", geo.base.gamma, dT[:n]), ("vertical", W[:n, n:, :n], dT[n:])):
        for k, (name, variance) in enumerate(families.items()):
            nabla = covariant_derivative(conn, T[k], dirs[:, k], variance)
            assert rows[f"parallel_{name}_{kind}"] == float(np.max(np.abs(nabla))), (name, kind)


def test_holomorphic_anchor_values() -> None:
    # Frozen values at the anchor: coordinate-aligned directions give 1/2;
    # the mixed direction e1 + e5 gives 0.82.
    families = _holomorphic_setup(ANCHOR)

    def H(vec):
        return holomorphic_sectional_curvature(*families, np.asarray([vec], float))[0]

    e = np.eye(6)
    assert H(e[0]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[1]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[3]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[4] + e[5]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[1] + e[5]) == pytest.approx(0.82, abs=1e-13)


def test_holomorphic_sample_spread_and_scaling() -> None:
    rng = np.random.default_rng(5)
    directions = rng.standard_normal((64, 6))
    values, scale_invariance = holomorphic_sample(*_holomorphic_setup(ANCHOR), directions)
    assert values.shape == (64,)
    assert scale_invariance < 1e-12
    assert relative_spread(float(np.min(values)), float(np.max(values))) > 1e-3


def test_zero_direction_rejected() -> None:
    with pytest.raises(DomainError):
        holomorphic_sectional_curvature(*_holomorphic_setup(ANCHOR), np.zeros((1, 6)))


def test_zero_direction_in_a_batch_rejected() -> None:
    families = _holomorphic_setup(ANCHOR)
    directions = np.random.default_rng(2).standard_normal((8, 6))
    directions[5] = 0.0
    with pytest.raises(DomainError, match="nonzero direction"):
        holomorphic_sectional_curvature(*families, directions)
    with pytest.raises(DomainError, match="nonzero direction"):
        holomorphic_sample(*families, directions)


def _scalar_holomorphic_curvature(R_ad, S_ad, J_ad, X):
    """<K(X, JX) JX, X> / <X, X>^2 for one direction, written out directly."""
    JX = J_ad @ X
    return np.einsum("abcd,b,c,d->a", R_ad, JX, X, JX) @ S_ad @ X / (X @ S_ad @ X) ** 2


HOLOMORPHIC_CASES = [(PARAMS, ANCHOR)] + [
    (params, pt)
    for params in (ModelParams(3, 1.0, 1.0), ModelParams(5, 1.0, 1.0))
    for pt in sample_points(params, 2, seed=7)
]


@pytest.mark.parametrize(
    "params, pt", HOLOMORPHIC_CASES, ids=["anchor", "n3-0", "n3-1", "n5-0", "n5-1"]
)
def test_batched_holomorphic_curvature_matches_scalar_reference(params, pt) -> None:
    _, R_ad, S_ad, J_ad = _adapted_setup(pt, params)
    families = _holomorphic_setup(pt, params)
    m = 2 * params.dim
    directions = np.random.default_rng(3).standard_normal((40, m))
    expected = np.array([_scalar_holomorphic_curvature(R_ad, S_ad, J_ad, X) for X in directions])
    batched = holomorphic_sectional_curvature(*families, directions)
    assert batched.shape == (40,)
    assert np.max(np.abs(batched - expected) / np.abs(expected)) <= 1e-13
    single = holomorphic_sectional_curvature(*families, directions[7:8])
    np.testing.assert_allclose(single, batched[7:8], rtol=1e-14)


@pytest.mark.parametrize("params", [ModelParams(n) for n in (3, 4, 5)], ids=["n3", "n4", "n5"])
def test_family_route_matches_the_assembled_fold_on_the_closed_form(params) -> None:
    # The closed curvature at sampled points: the family route against the
    # fold of the assembled (2n)^4 tensor it replaced.
    directions = sample_directions(params, 100, seed=7)
    for pt in sample_points(params, 10, seed=7):
        _, R_ad, S_ad, J_ad = _adapted_setup(pt, params)
        expected = reference_route.holomorphic_sectional_curvature(R_ad, S_ad, J_ad, directions)
        got = holomorphic_sectional_curvature(*_holomorphic_setup(pt, params), directions)
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-14
