"""Levi-Civita connection of the lifted metric: closed form vs Koszul oracle."""

import numpy as np
import pytest

from kahler_tube.base_geometry import DomainError, ModelParams
from kahler_tube.connection import (
    coefficients_from_geometry,
    connection_to_adapted,
    connection_to_coordinates,
    koszul_jet,
    koszul_oracle,
    metric_compatibility_residual,
    mtensor_parallel_residuals,
    torsion_residual,
    verify_connection,
)
from kahler_tube.fd import complex_points
from kahler_tube.frames import BundlePoint, point_geometry, step_geometry
from kahler_tube.lifted_metric import components_from_geometry, metric_field
from kahler_tube.sampling import sample_points

PARAMS = ModelParams(3)
# Flat-origin anchor: x = 0, p = (1,0,0), t = 1/2, v = 1.
ANCHOR = BundlePoint(x=np.zeros(3), p=np.array([1.0, 0.0, 0.0]))
GENERIC = BundlePoint(x=np.array([0.3, -0.1, 0.2]), p=np.array([0.4, 0.5, -0.3]))


def _closed(pt: BundlePoint):
    """The point geometry at ``pt`` and its closed-form adapted connection W."""
    geo = point_geometry(PARAMS, pt)
    return geo, coefficients_from_geometry(geo, components_from_geometry(geo))


def _jet(geo):
    """The Koszul oracle's jet at ``geo``: the metric field on the point's complex points."""
    return koszul_jet(metric_field(PARAMS)(complex_points(geo.z)), 0)


def _compared(pt: BundlePoint):
    """verify_connection at ``pt`` with the Koszul oracle's jet."""
    geo, W = _closed(pt)
    return verify_connection(geo, W, _jet(geo))


def test_anchor_coefficient_values() -> None:
    _, W = _closed(ANCHOR)
    n = PARAMS.dim
    # vertical-vertical coefficient (pure momentum derivatives): vv_vert[0, 0, 0]
    assert W[n + 0, n + 0, n + 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
    # mixed coefficient is its negative transpose in the first index pair: mixed[0, 0, 0]
    assert W[0, n + 0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-13)
    # horizontal-horizontal vertical part: hh_vert[1, 0, 1] and hh_vert[1, 1, 0]
    assert W[n + 1, 0, 1] == pytest.approx(0.25, abs=1e-13)
    assert W[n + 1, 1, 0] == pytest.approx(-0.75, abs=1e-13)


@pytest.mark.parametrize(
    "pt", [ANCHOR, GENERIC, *sample_points(PARAMS, 2, seed=7)], ids=["anchor", "generic", "s0", "s1"]
)
def test_connection_block_layout(pt) -> None:
    # The identities between the blocks of W stated in the module docstring.
    geo, W = _closed(pt)
    n = PARAMS.dim
    vv_vert = np.einsum("hij->ijh", W[n:, n:, n:])
    mixed = W[:n, n:, :n]
    gamma = geo.base.gamma
    np.testing.assert_array_equal(vv_vert, np.swapaxes(vv_vert, 0, 1))
    np.testing.assert_array_equal(mixed, -np.einsum("ihj->hij", vv_vert))
    np.testing.assert_array_equal(W[:n, :n, n:], np.einsum("hji->hij", mixed))
    np.testing.assert_array_equal(W[n:, :n, n:], -np.einsum("jih->hij", gamma))
    np.testing.assert_array_equal(W[:n, :n, :n], gamma)
    assert not np.any(W[:n, n:, n:])


def test_closed_form_matches_koszul_oracle() -> None:
    (closed_vs_oracle, _), nabla_g, torsion = _compared(GENERIC)
    assert closed_vs_oracle < 1e-7
    assert nabla_g < 1e-7
    assert torsion < 1e-13


def test_metric_compatibility_of_closed_form_coefficients() -> None:
    # The closed-form coordinate Christoffels must annihilate the covariant
    # derivative of the analytic lifted metric field.
    geo, W = _closed(GENERIC)
    assert metric_compatibility_residual(geo, W, _jet(geo)) < 1e-7


def test_koszul_oracle_matches_closed_form_in_coordinates() -> None:
    W_oracle = koszul_oracle(metric_field(PARAMS), ANCHOR.z)
    geo, W = _closed(ANCHOR)
    direct = connection_to_coordinates(W, geo)
    assert np.max(np.abs(W_oracle - direct)) < 1e-8


def test_coordinate_transport_roundtrip() -> None:
    geo, W_ad = _closed(GENERIC)
    W_coord = connection_to_coordinates(W_ad, geo)
    assert np.max(np.abs(connection_to_adapted(W_coord, geo) - W_ad)) < 1e-11


def test_torsion_free() -> None:
    geo, W = _closed(GENERIC)
    assert torsion_residual(W, geo) < 1e-12


def test_mtensor_parallel() -> None:
    geo = point_geometry(PARAMS, GENERIC)
    res_g, res_h = mtensor_parallel_residuals(geo, components_from_geometry(step_geometry(geo)))
    assert res_g < 1e-8
    assert res_h < 1e-8


def test_worst_label_mentions_block_and_values() -> None:
    (_, worst_label), _, _ = _compared(GENERIC)
    assert "coefficient [" in worst_label
    assert "closed-form" in worst_label
    assert "oracle" in worst_label
