"""Base chart: conformal metric, Christoffel symbols, constant curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahler_tube import connection, curvature
from kahler_tube.base_geometry import (
    DomainError,
    ModelParams,
    first_bianchi_residual,
    metric_at,
    metric_field,
    verify_constant_curvature,
)


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        ModelParams(1)
    assert ModelParams(3, curvature=-1.0).admissibility_violation() == (
        "2c - A^2 t > 0 unsatisfiable for t > 0"
    )
    assert ModelParams(3, lift_const=0.0).admissibility_violation() is not None
    assert ModelParams(3).admissibility_violation() is None
    with pytest.raises(DomainError):
        ModelParams(3, curvature=0.0).require_admissible()


def test_metric_origin_is_identity() -> None:
    data = metric_at(ModelParams(3), np.zeros(3))
    assert np.array_equal(data.g, np.eye(3))
    assert np.max(np.abs(data.gamma)) == 0.0


def test_metric_conformal_factor_anchor() -> None:
    # At x = (2,0,0) with c = 1 the conformal factor is (1 + 4/4)^2 = 4,
    # so every diagonal metric entry is 1/4.
    data = metric_at(ModelParams(3, curvature=1.0), np.array([2.0, 0.0, 0.0]))
    assert np.max(np.abs(data.g - 0.25 * np.eye(3))) < 1e-15


def test_inverse_and_symmetry() -> None:
    params = ModelParams(4, curvature=2.0)
    x = np.array([0.3, -0.1, 0.7, 0.2])
    data = metric_at(params, x)
    assert np.max(np.abs(data.g @ data.g_inv - np.eye(4))) < 1e-14
    assert np.max(np.abs(data.gamma - data.gamma.transpose(0, 2, 1))) == 0.0


def test_christoffel_against_koszul_oracle() -> None:
    params = ModelParams(3, curvature=1.5)
    x = np.array([0.4, -0.2, 0.1])
    data = metric_at(params, x)
    oracle = connection.koszul_oracle(metric_field(params), x)
    assert np.max(np.abs(data.gamma - oracle)) < 1e-9


def test_christoffel_derivative_against_fd() -> None:
    from kahler_tube.fd import field_jacobian

    params = ModelParams(3, curvature=0.7)
    x = np.array([-0.3, 0.5, 0.2])
    data = metric_at(params, x)
    jac = field_jacobian(lambda xx: metric_at(params, xx).gamma, x)
    # closed-form dgamma stores the derivative axis last; the jacobian
    # stacks it first.
    assert np.max(np.abs(data.dgamma - np.moveaxis(jac.value, 0, -1))) < 1e-8


def test_curvature_closed_form_and_convention() -> None:
    params = ModelParams(3, curvature=2.0)
    x = np.array([0.2, 0.1, -0.4])
    data = metric_at(params, x)
    assert first_bianchi_residual(data.riem) < 1e-13
    _, oracle = curvature.curvature_from_metric_field(metric_field(params), x)
    assert np.max(np.abs(data.riem - oracle)) < 1e-6
    assert verify_constant_curvature(data, oracle) < 1e-10


def test_flat_limit_small_curvature() -> None:
    # The conformal factor tends to 1 as c -> 0, so curvature shrinks with c.
    params = ModelParams(3, curvature=1e-6)
    data = metric_at(params, np.array([0.5, 0.5, 0.5]))
    assert np.max(np.abs(data.riem)) < 1e-5


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
    c=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
)
def test_metric_positive_definite_on_chart(x: list, c: float) -> None:
    params = ModelParams(3, curvature=c)
    data = metric_at(params, np.array(x))
    assert np.min(np.linalg.eigvalsh(data.g)) > 0.0
    _, oracle = curvature.curvature_from_metric_field(metric_field(params), np.array(x))
    assert verify_constant_curvature(data, oracle) < 1e-10
