"""Finite-difference kernel: accuracy, axis order, error estimates, field calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahler_tube.base_geometry import DomainError
from kahler_tube.fd import COMPLEX_STEP, WORKING_SET, complex_jacobian, complex_points, field_jacobian, tiles


def test_directional_derivative_exponential() -> None:
    x = np.array([0.3, -0.2])
    d = np.array([1.0, 2.0])
    result = field_jacobian(lambda z: np.exp(z[..., 0] + 0.5 * z[..., 1]), x)
    expected = 2.0 * np.exp(0.2)
    assert abs(float(result.value @ d) - expected) < 1e-10
    assert result.error < 1e-8


def test_jacobian_derivative_axis_first() -> None:
    # field(z) = [z0^2, z0*z1, z1^3] has Jacobian rows d/dz_k stacked first.
    def field(z: np.ndarray) -> np.ndarray:
        return np.stack([z[..., 0] ** 2, z[..., 0] * z[..., 1], z[..., 1] ** 3], axis=-1)

    z = np.array([1.5, -0.5])
    jac = field_jacobian(field, z)
    assert jac.value.shape == (2, 3)
    expected = np.array([[3.0, -0.5, 0.0], [0.0, 1.5, 0.75]])
    assert np.max(np.abs(jac.value - expected)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=7,
        max_size=7,
    ),
    x0=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_quartic_polynomials_near_exact(coeffs: list, x0: float) -> None:
    # Two Richardson levels cancel the h^2 and h^4 truncation terms, so the
    # rule is exact up to round-off on quartics and beyond: these are sextics.
    poly = np.polynomial.Polynomial(coeffs)
    deriv = poly.deriv()
    res = field_jacobian(lambda z: poly(z[..., 0]), np.array([x0]))
    assert abs(float(res.value[0]) - deriv(x0)) < 1e-8


def _counting(field):
    """``field`` wrapped to record the shape of every argument it is called on."""
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return field(z)

    return counted, calls


def _smooth(z: np.ndarray) -> np.ndarray:
    return np.stack([np.sin(z[..., 0]) * z[..., 1], np.exp(0.3 * z[..., 2]) - z[..., 0]], axis=-1)


def _of_rank(z: np.ndarray, rank: int) -> np.ndarray:
    """A smooth analytic field of ``z`` with ``rank`` value axes."""
    vector = np.sin(z) * z[..., ::-1]
    if rank == 0:
        return np.sum(vector, axis=-1)
    if rank == 1:
        return vector
    return np.einsum("...i,...j->...ij", vector, np.exp(0.3 * z))


@pytest.mark.parametrize(("rank", "m"), [(0, 4), (1, 4), (2, 6)])
def test_each_primitive_evaluates_its_stencil_in_one_call(rank: int, m: int) -> None:
    # Two signs for each of the steps h, h/2 and h/4 per axis; one complex
    # point per axis; whatever the number of value axes.
    z = np.linspace(-0.4, 0.8, m)
    field, calls = _counting(lambda p: _of_rank(p, rank))
    fd = field_jacobian(field, z)
    _, cs = complex_jacobian(field(complex_points(z)))
    assert calls == [(6 * m, m), (m, m)]
    assert fd.value.shape == cs.value.shape == (m,) + (m,) * rank
    assert np.allclose(fd.value, cs.value, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize(
    ("count", "item_bytes", "expected"),
    [
        (6, 0, 1),  # no stated size: one tile
        (6, WORKING_SET // 6, 1),  # the stack fits exactly
        (10, WORKING_SET // 3, 4),  # three items a tile
        (7, WORKING_SET // 2 + 1, 7),  # one item a tile
        (16, 10 * WORKING_SET, 16),  # items past the budget: never more tiles than items
    ],
)
def test_tiles_cover_the_items_within_the_working_set(count: int, item_bytes: int, expected: int) -> None:
    parts = tiles(count, item_bytes)
    assert len(parts) == expected
    assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]] and parts[-1].stop == count
    sizes = [p.stop - p.start for p in parts]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert all(size == 1 or size * item_bytes <= WORKING_SET for size in sizes)


def test_tiled_stencil_equals_one_call_bitwise() -> None:
    # point_bytes only splits the stencil into tiles of whole axes: the same
    # points, the same Richardson combination, the same worst-axis error.
    z = np.linspace(-0.4, 0.8, 6)
    field, calls = _counting(lambda p: _of_rank(p, 2))
    whole = field_jacobian(field, z)
    tiled = field_jacobian(field, z, point_bytes=WORKING_SET // 12)  # two axes a tile
    assert calls == [(36, 6), (12, 6), (12, 6), (12, 6)]
    np.testing.assert_array_equal(tiled.value, whole.value)
    assert tiled.error == whole.error


def test_tiled_stencil_keeps_a_nan_error() -> None:
    # Only the last axis's minus side leaves the field's domain: its tile's
    # NaN error must reach the result, as it does from one call.
    z = np.linspace(-0.4, 0.8, 6)

    def field(p: np.ndarray) -> np.ndarray:
        return np.sqrt(p[..., 5] - 0.8)

    with np.errstate(invalid="ignore"):
        for point_bytes in (0, WORKING_SET // 12):
            assert np.isnan(field_jacobian(field, z, point_bytes).error)


@pytest.mark.parametrize("point_bytes", [0, WORKING_SET // 12, WORKING_SET], ids=["one-call", "two-items", "one-item"])
def test_stacked_stencil_equals_point_calls_bitwise(point_bytes: int) -> None:
    # Each point of a stack has its own step h and each (point, axis) item
    # its own six stencil points, so the stack, tiled or not, gives each
    # point the value and error of its own call; the tiles cut across the
    # points (two items a tile: 12 items of 4 points in 6 tiles).
    zs = np.array([[0.3, -0.4, 0.8], [1.1, 0.2, -0.5], [-0.7, 0.9, 0.05], [0.0, 0.6, 1.4]])
    field, calls = _counting(lambda p: _of_rank(p, 2))
    stacked = field_jacobian(field, zs.reshape(2, 2, 3), point_bytes)
    assert stacked.value.shape == (2, 2, 3, 3, 3) and np.shape(stacked.error) == (2, 2)
    expected_calls = {0: [(72, 3)], WORKING_SET // 12: [(12, 3)] * 6, WORKING_SET: [(6, 3)] * 12}[point_bytes]
    assert calls == expected_calls
    for k, z in enumerate(zs):
        one = field_jacobian(field, z)
        np.testing.assert_array_equal(stacked.value.reshape(4, 3, 3, 3)[k], one.value)
        assert stacked.error.reshape(4)[k] == one.error
        assert np.ndim(one.error) == 0


def test_a_nan_reaches_only_its_own_points_error() -> None:
    # The second point's last axis leaves the field's domain on its minus
    # side: that point's error (and derivative) is NaN, the others' are not.
    zs = np.array([[0.3, -0.4, 0.9], [0.3, -0.4, 0.8], [1.1, 0.2, 0.95]])

    def field(p: np.ndarray) -> np.ndarray:
        return np.sqrt(p[..., 2] - 0.8)

    with np.errstate(invalid="ignore"):
        for point_bytes in (0, WORKING_SET // 6):
            result = field_jacobian(field, zs, point_bytes)
            assert [bool(v) for v in np.isnan(result.error)] == [False, True, False]
            assert not np.isnan(result.value[[0, 2]]).any()
            np.testing.assert_array_equal(result.value[0], field_jacobian(field, zs[0]).value)


def test_complex_step_exact_on_exponential() -> None:
    a = np.array([0.7, -1.3, 2.1])
    z = np.array([0.3, -0.4, 0.8])

    def field(w: np.ndarray) -> np.ndarray:
        e = np.exp(w @ a)
        return np.stack([e, w[..., 0] * e], axis=-1)

    value, jac = complex_jacobian(field(complex_points(z)))
    e = np.exp(z @ a)
    expected = np.stack([a * e, a * z[0] * e + np.array([e, 0.0, 0.0])], axis=-1)  # [k, out]
    assert jac.value.shape == (3, 2)
    assert np.max(np.abs(value - np.array([e, z[0] * e]))) <= 1e-14 * e
    assert np.max(np.abs(jac.value - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert 0.0 < jac.error <= 1e-14 * (1.0 + np.max(np.abs(expected)))


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=5,
        max_size=5,
    ),
    x0=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_complex_step_exact_on_quartics(coeffs: list, x0: float) -> None:
    # No difference is taken, so the derivative is exact up to the round-off
    # of evaluating the polynomial, relative to the size of its terms.
    poly = np.polynomial.Polynomial(coeffs)
    _, jac = complex_jacobian(poly(complex_points(np.array([x0]))[..., 0]))
    scale = sum(abs(k * c * x0 ** (k - 1)) for k, c in enumerate(coeffs) if k)
    assert abs(float(jac.value[0]) - poly.deriv()(x0)) <= 1e-14 * max(scale, 1.0)


def test_complex_points_are_m_complex_points_per_base_point() -> None:
    z = np.array([0.3, -0.4, 0.8])
    zs = np.stack([z, 2.0 * z, -z, z + 1.0]).reshape(2, 2, 3)
    assert complex_points(z).shape == (3, 3)
    assert complex_points(zs).shape == (2, 2, 3, 3)
    np.testing.assert_array_equal(complex_points(zs).real, np.broadcast_to(zs[..., None, :], (2, 2, 3, 3)))
    np.testing.assert_array_equal(complex_points(zs).imag[1, 0], COMPLEX_STEP * np.eye(3))


def test_complex_step_stack_equals_points_bitwise() -> None:
    zs = np.array([[0.3, -0.4, 0.8], [1.1, 0.2, -0.5], [-0.7, 0.9, 0.05], [0.0, 0.6, 1.4]])
    value, jac = complex_jacobian(_smooth(complex_points(zs)), 1)
    assert value.shape == (4, 2) and jac.value.shape == (4, 3, 2) and jac.error.shape == (4,)
    for k, z in enumerate(zs):
        v1, j1 = complex_jacobian(_smooth(complex_points(z)))
        assert np.array_equal(value[k], v1)
        assert np.array_equal(jac.value[k], j1.value)


def test_complex_step_propagates_domain_error() -> None:
    def guarded(z: np.ndarray) -> np.ndarray:
        if (z.real[..., 0] <= 0.0).any():
            raise DomainError("first coordinate must be positive")
        return np.log(z[..., 0])

    _, jac = complex_jacobian(guarded(complex_points(np.array([0.5, 0.0]))))
    assert jac.value[0] == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError, match="first coordinate"):
        guarded(complex_points(np.array([[0.5, 0.0], [-0.5, 0.0]])))
