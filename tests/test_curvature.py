"""Curvature of the lifted metric: blocks, Einstein identity, parallelism."""

import numpy as np
import pytest

from kahler_tube import frames
from kahler_tube.base_geometry import DomainError, ModelParams, first_bianchi_residual
from kahler_tube.complex_structure import adapted_j_matrix
from kahler_tube.connection import (
    coefficients_from_geometry,
    covariant_derivative,
    koszul_oracle,
)
from kahler_tube.curvature import (
    assemble_adapted_curvature,
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
from kahler_tube.fd import field_jacobian
from kahler_tube.frames import BundlePoint, frame_transform, point_geometry
from kahler_tube.lifted_metric import (
    adapted_metric_matrix,
    components_from_geometry,
    coordinate_metric,
    metric_field,
)
from kahler_tube.report import relative_spread
from kahler_tube.sampling import sample_points

PARAMS = ModelParams(3)
# Flat-origin anchor: x = 0, p = (1,0,0), t = 1/2, v = 1, w = -4/3.
ANCHOR = BundlePoint(x=np.zeros(3), p=np.array([1.0, 0.0, 0.0]))
GENERIC = BundlePoint(x=np.array([0.25, -0.15, 0.3]), p=np.array([0.5, 0.4, -0.2]))


def _built(pt, params=PARAMS):
    """The point geometry and lifted blocks that the layers take."""
    geo = point_geometry(params, pt)
    return geo, components_from_geometry(geo)


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
    _, R_coord = curvature_oracle_coordinates(geo)
    R_oracle = frame_transform(R_coord, "uddd", geo.frame, to="adapted")
    res = sector_residuals(R_closed, R_oracle, geo.n)
    assert set(res) == {"hhh", "hhv", "vvh", "vvv", "vhh", "vhv", "structural_zero"}
    for family, value in res.items():
        assert value < 1e-5, family


def test_oracle_transforms_consistently() -> None:
    geo = point_geometry(PARAMS, GENERIC)
    _, R_coord = curvature_oracle_coordinates(geo)
    R_ad = frame_transform(R_coord, "uddd", geo.frame, to="adapted")
    assert np.max(np.abs(frame_transform(R_ad, "uddd", geo.frame, to="coordinate") - R_coord)) < 1e-9


def test_closed_form_coordinate_curvature_matches_oracle() -> None:
    geo, R_ad, _, _ = _adapted_setup(GENERIC)
    R_closed = frame_transform(R_ad, "uddd", geo.frame, to="coordinate")
    _, R_oracle = curvature_oracle_coordinates(geo)
    assert np.max(np.abs(R_closed - R_oracle)) < 1e-5


def test_curvature_oracle_takes_two_metric_field_calls(monkeypatch) -> None:
    # Christoffels at the point, then every Koszul evaluation of the outer
    # stencil in one call.
    geo = point_geometry(PARAMS, GENERIC)
    calls = []
    inner = frames.geometry_at

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(frames, "geometry_at", counting)
    curvature_oracle_coordinates(geo)
    assert 0 < len(calls) <= 2


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
    _, R = curvature_oracle_coordinates(geo)
    assert pair_skew_residual(R, coordinate_metric(geo, data)) <= 1e-6


def test_assembly_of_a_stack_equals_assembly_per_item() -> None:
    # covariant_derivative_residual assembles the frame derivatives of the
    # families, a (directions, 4, n, n, n, n) stack, in one call.
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
    _, R_coord = curvature_oracle_coordinates(geo)
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
        geo, coordinate_metric(geo, data), curvature_oracle_coordinates(geo)[1]
    )
    assert identity < 1e-5
    assert mixed_block < 1e-5


def test_covariant_derivative_vanishes() -> None:
    assert parallel_block_residuals(*_coefficients(GENERIC))["local_symmetry"] < 1e-7


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
        assert parallel_block_residuals(*_coefficients(pt))["local_symmetry"] < 1e-7
        assert float(np.max(np.abs(oracle))) < 1e-2


def test_parallel_block_identities() -> None:
    res = parallel_block_residuals(*_coefficients(GENERIC))
    expected_keys = {
        f"parallel_{family}_{direction}"
        for family in ("hhh", "vvh", "vhh", "vhv")
        for direction in ("horizontal", "vertical")
    } | {"local_symmetry"}
    assert set(res) == expected_keys
    for name, value in res.items():
        assert value < 1e-7, name


def test_holomorphic_anchor_values() -> None:
    # Frozen values at the anchor: coordinate-aligned directions give 1/2;
    # the mixed direction e1 + e5 gives 0.82.
    _, R_ad, S_ad, J_ad = _adapted_setup(ANCHOR)

    def H(vec):
        return holomorphic_sectional_curvature(R_ad, S_ad, J_ad, np.asarray(vec, float))

    e = np.eye(6)
    assert H(e[0]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[1]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[3]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[4] + e[5]) == pytest.approx(0.5, abs=1e-13)
    assert H(e[1] + e[5]) == pytest.approx(0.82, abs=1e-13)


def test_holomorphic_sample_spread_and_scaling() -> None:
    rng = np.random.default_rng(5)
    directions = rng.standard_normal((64, 6))
    _, R_ad, S_ad, J_ad = _adapted_setup(ANCHOR)
    values, scale_invariance = holomorphic_sample(R_ad, S_ad, J_ad, directions)
    assert values.shape == (64,)
    assert scale_invariance < 1e-12
    assert relative_spread(float(np.min(values)), float(np.max(values))) > 1e-3


def test_zero_direction_rejected() -> None:
    _, R_ad, S_ad, J_ad = _adapted_setup(ANCHOR)
    with pytest.raises(DomainError):
        holomorphic_sectional_curvature(R_ad, S_ad, J_ad, np.zeros(6))


def test_zero_direction_in_a_batch_rejected() -> None:
    _, R_ad, S_ad, J_ad = _adapted_setup(ANCHOR)
    directions = np.random.default_rng(2).standard_normal((8, 6))
    directions[5] = 0.0
    with pytest.raises(DomainError, match="nonzero direction"):
        holomorphic_sectional_curvature(R_ad, S_ad, J_ad, directions)
    with pytest.raises(DomainError, match="nonzero direction"):
        holomorphic_sample(R_ad, S_ad, J_ad, directions)


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
    m = 2 * params.dim
    directions = np.random.default_rng(3).standard_normal((40, m))
    expected = np.array([_scalar_holomorphic_curvature(R_ad, S_ad, J_ad, X) for X in directions])
    batched = holomorphic_sectional_curvature(R_ad, S_ad, J_ad, directions)
    assert batched.shape == (40,)
    assert np.max(np.abs(batched - expected) / np.abs(expected)) <= 1e-13
    stacked = holomorphic_sectional_curvature(R_ad, S_ad, J_ad, directions.reshape(4, 10, m))
    np.testing.assert_allclose(stacked, batched.reshape(4, 10), rtol=1e-14)
