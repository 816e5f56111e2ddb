"""Finite-difference kernel: accuracy, axis order, error estimates, field calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahler_tube.base_geometry import DomainError
from kahler_tube.fd import DEFAULT_FD, FdConfig, complex_step, field_jacobian, pointwise


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        FdConfig(base_step=2e-2)
    with pytest.raises(ValueError):
        FdConfig(base_step=1e-9)
    with pytest.raises(ValueError):
        FdConfig(richardson_levels=3)


def test_directional_derivative_exponential() -> None:
    x = np.array([0.3, -0.2])
    d = np.array([1.0, 2.0])
    result = field_jacobian(lambda z: np.exp(z[..., 0] + 0.5 * z[..., 1]), x)
    expected = 2.0 * np.exp(0.2)
    assert abs(float(result.value @ d) - expected) < 1e-10
    assert result.error < 1e-8


def test_richardson_levels_tighten_error() -> None:
    x = np.array([0.7])
    errs = []
    for lvl in (0, 1, 2):
        cfg = FdConfig(base_step=1e-3, richardson_levels=lvl)
        res = field_jacobian(lambda z: np.sin(3.0 * z[..., 0]), x, cfg)
        errs.append(abs(float(res.value[0]) - 3.0 * np.cos(2.1)))
    assert errs[1] < errs[0]
    assert errs[2] < 1e-10


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
        min_size=5,
        max_size=5,
    ),
    x0=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_quartic_polynomials_near_exact(coeffs: list, x0: float) -> None:
    # One Richardson level cancels the h^2 truncation term, so the rule is
    # exact on quartics up to round-off.
    poly = np.polynomial.Polynomial(coeffs)
    deriv = poly.deriv()
    res = field_jacobian(lambda z: poly(z[..., 0]), np.array([x0]), DEFAULT_FD)
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


@pytest.mark.parametrize(("levels", "points"), [(0, 4), (1, 4), (2, 6)])
def test_each_primitive_evaluates_its_stencil_in_one_call(levels: int, points: int) -> None:
    # Two signs per step and axis: steps h and 2h (level 0), h and h/2
    # (level 1), h, h/2 and h/4 (level 2); one complex point per axis.
    cfg = FdConfig(richardson_levels=levels)
    z = np.array([0.3, -0.4, 0.8])
    field, calls = _counting(_smooth)
    field_jacobian(field, z, cfg)
    complex_step(field, z)
    assert calls == [(3 * points, 3), (3, 3)]


def test_pointwise_field_maps_stacks_point_by_point() -> None:
    seen = []

    def one_point(z: np.ndarray) -> np.ndarray:
        seen.append(z.shape)
        return np.outer(z, z)

    field = pointwise(one_point)
    stack = np.arange(24.0).reshape(2, 4, 3)
    out = field(stack)
    assert out.shape == (2, 4, 3, 3)
    assert np.array_equal(out[1, 2], np.outer(stack[1, 2], stack[1, 2]))
    assert field(stack[0, 0]).shape == (3, 3)
    assert set(seen) == {(3,)}


def test_complex_step_exact_on_exponential() -> None:
    a = np.array([0.7, -1.3, 2.1])
    z = np.array([0.3, -0.4, 0.8])

    def field(w: np.ndarray) -> np.ndarray:
        e = np.exp(w @ a)
        return np.stack([e, w[..., 0] * e], axis=-1)

    value, jac = complex_step(field, z)
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
    _, jac = complex_step(lambda z: poly(z[..., 0]), np.array([x0]))
    scale = sum(abs(k * c * x0 ** (k - 1)) for k, c in enumerate(coeffs) if k)
    assert abs(float(jac.value[0]) - poly.deriv()(x0)) <= 1e-14 * max(scale, 1.0)


def test_complex_step_makes_one_call_of_m_complex_points_per_base_point() -> None:
    field, calls = _counting(_smooth)
    z = np.array([0.3, -0.4, 0.8])
    complex_step(field, z)
    complex_step(field, np.stack([z, 2.0 * z, -z, z + 1.0]).reshape(2, 2, 3))
    assert calls == [(3, 3), (2, 2, 3, 3)]


def test_complex_step_stack_equals_points_bitwise() -> None:
    zs = np.array([[0.3, -0.4, 0.8], [1.1, 0.2, -0.5], [-0.7, 0.9, 0.05], [0.0, 0.6, 1.4]])
    value, jac = complex_step(_smooth, zs)
    assert value.shape == (4, 2) and jac.value.shape == (4, 3, 2)
    for k, z in enumerate(zs):
        v1, j1 = complex_step(_smooth, z)
        assert np.array_equal(value[k], v1)
        assert np.array_equal(jac.value[k], j1.value)


def test_complex_step_propagates_domain_error() -> None:
    def guarded(z: np.ndarray) -> np.ndarray:
        if (z.real[..., 0] <= 0.0).any():
            raise DomainError("first coordinate must be positive")
        return np.log(z[..., 0])

    assert complex_step(guarded, np.array([0.5, 0.0]))[1].value[0] == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError, match="first coordinate"):
        complex_step(guarded, np.array([[0.5, 0.0], [-0.5, 0.0]]))
