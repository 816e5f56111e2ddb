"""The family-at-a-time route of the closed curvature equals the stacked route, bit for bit.

``parallel_block_residuals`` builds the four curvature families on the step
stack one at a time (``curvature_blocks`` with one family named), takes each
one's ``frame_derivative`` and its two parallel rows, and keeps only the
real families ``T``.  The stacked route it replaced built all four at once,
one ``frame_derivative`` of ``curvature_blocks`` on the step stack, and took
the eight rows in two batched ``covariant_derivative`` calls, one per
variance.  No family's arithmetic and no matmul item differ between the two,
so ``T``, each family's frame derivatives, the eight rows and
``local_symmetry`` agree bit for bit, on a stack of points and at one point.
"""

import numpy as np
import pytest

from kahler_tube.base_geometry import ModelParams
from kahler_tube.connection import coefficients_from_geometry, covariant_derivative
from kahler_tube.curvature import (
    assemble_adapted_curvature,
    covariant_derivative_residual,
    curvature_blocks,
    parallel_block_residuals,
)
from kahler_tube.fd import max_abs
from kahler_tube.frames import BundlePoint, frame_derivative, point_geometry, step_geometry
from kahler_tube.lifted_metric import components_from_geometry
from kahler_tube.sampling import sample_chart_points

FAMILIES = {"hhh": "uddd", "vvh": "uuud", "vhh": "uddd", "vhv": "uuud"}


def _stacked_route(geo, W, step_geo, step_data):
    """``T``, ``dT`` and the rows as the stacked route took them: all four families at once."""
    n = geo.n
    T, dT = frame_derivative(geo, curvature_blocks(step_geo, step_data))
    conn = np.stack([geo.base.gamma, W[..., :n, n:, :n]], axis=-4)[..., None, :, :, :]
    dT_kind = np.swapaxes(dT.reshape(dT.shape[:-6] + (2, n) + dT.shape[-5:]), -6, -5)
    names = list(FAMILIES)
    rows = {}
    for first in (0, 1):
        nabla = covariant_derivative(
            conn, T[..., None, first::2, :, :, :, :], dT_kind[..., first::2, :, :, :, :, :], FAMILIES[names[first]]
        )
        worst = max_abs(nabla, nabla.ndim - 5)  # [..., kind, family]
        for k, kind in enumerate(("horizontal", "vertical")):
            for f, name in enumerate(names[first::2]):
                rows[f"parallel_{name}_{kind}"] = worst[..., k, f]
    K = assemble_adapted_curvature(T)
    rows["local_symmetry"] = np.maximum.reduce([covariant_derivative_residual(W, K), *rows.values()])
    return T, dT, rows


def _routes(params, x, p):
    geo = point_geometry(params, BundlePoint(x, p))
    W = coefficients_from_geometry(geo, components_from_geometry(geo))
    step_geo = step_geometry(geo)
    step_data = components_from_geometry(step_geo)
    return geo, step_geo, step_data, parallel_block_residuals(geo, W, step_geo, step_data), _stacked_route(
        geo, W, step_geo, step_data
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one-point"])
def test_family_at_a_time_equals_the_stacked_route_bitwise(dim: int, stacked: bool) -> None:
    params = ModelParams(dim)
    x, p = sample_chart_points(params, 3, 7)
    if not stacked:
        x, p = x[1], p[1]
    geo, step_geo, step_data, (T, K, rows), (T_ref, dT_ref, rows_ref) = _routes(params, x, p)
    np.testing.assert_array_equal(T, T_ref)
    np.testing.assert_array_equal(K, assemble_adapted_curvature(T_ref))
    for f, name in enumerate(FAMILIES):
        value, dF = frame_derivative(geo, curvature_blocks(step_geo, step_data, (name,)))
        np.testing.assert_array_equal(value[..., 0, :, :, :, :], T_ref[..., f, :, :, :, :], err_msg=name)
        np.testing.assert_array_equal(dF[..., 0, :, :, :, :], dT_ref[..., f, :, :, :, :], err_msg=name)
    assert list(rows)[0] == "local_symmetry" and set(rows) == set(rows_ref) and len(rows) == 9
    for name, value in rows.items():
        assert np.shape(value) == np.shape(x)[:-1], name
        np.testing.assert_array_equal(value, rows_ref[name], err_msg=name)


@pytest.mark.parametrize("dim", [3, 4])
def test_one_family_equals_its_slice_of_all_four(dim: int) -> None:
    # Any selection of families, in any order, gives each family's values
    # of the call that builds all four, on real points and complex steps.
    params = ModelParams(dim)
    geo = point_geometry(params, BundlePoint(*sample_chart_points(params, 2, 3)))
    step_geo = step_geometry(geo)
    for g, data in ((geo, components_from_geometry(geo)), (step_geo, components_from_geometry(step_geo))):
        every = curvature_blocks(g, data)
        assert every.shape[-5] == 4
        for names in (("vhv",), ("vhh", "hhh"), tuple(FAMILIES)):
            some = curvature_blocks(g, data, names)
            for j, name in enumerate(names):
                np.testing.assert_array_equal(some[..., j, :, :, :, :], every[..., list(FAMILIES).index(name), :, :, :, :])
