"""Point independence of the stacked battery: a stack of points is its points.

``run_verify`` evaluates its points in tiles, and every layer of the battery,
integrable-only ones included, is called once per tile, on stacks.  Each layer
reduces to one value per point over that point's own components, so a point's
values must not depend on the stack it sits in: entry k of a stacked column
equals the column of a stack of point k alone, and the one-point call of the
layer at point k, bit for bit.  The report's worst point of a round-off row is
picked by last-bit differences, so anything short of bitwise would show.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kahler_tube import base_geometry, complex_structure, connection, curvature, lifted_metric
from kahler_tube.base_geometry import ModelParams
from kahler_tube.checks import CHECKS, evaluate_points
from kahler_tube.frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_derivative,
    frame_transform,
    point_geometry,
    step_geometry,
    verify_brackets,
)
from kahler_tube.lifted_metric import LiftProfile, components_from_geometry
from kahler_tube.sampling import sample_chart_points, sample_directions

#: Every row evaluate_points returns, all of them stacked: each but the
#: cross-point hol_sect_nonconstancy, which run_verify takes from the
#: curvatures of every tile.
STACKED_ROWS = [check.name for check in CHECKS if check.name != "hol_sect_nonconstancy"]

#: The stacked rows that run under every lift profile.
PROFILE_ROWS = [check.name for check in CHECKS if not check.integrable_only]


def _column_values(column) -> np.ndarray:
    return np.array([entry[0] if isinstance(entry, tuple) else entry for entry in column], dtype=float)


def _column_details(column) -> list:
    return [entry[1] if isinstance(entry, tuple) else None for entry in column]


@pytest.mark.parametrize("offset", [None, 0.1], ids=["kahler", "offset"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(count=st.sampled_from([1, 2, 4, 7]), seed=st.integers(min_value=0, max_value=2**16))
@example(count=7, seed=1)
@example(count=4, seed=7)
def test_stacked_rows_equal_one_point_stacks_bitwise(dim: int, offset, count: int, seed: int) -> None:
    params = ModelParams(dim)
    profile = LiftProfile(offset)
    x, p = sample_chart_points(params, count, seed)
    directions = sample_directions(params, 6, seed)
    values, curvatures = evaluate_points(params, BundlePoint(x, p), profile, directions)
    assert sorted(values) == sorted(STACKED_ROWS if offset is None else PROFILE_ROWS)
    assert (len(STACKED_ROWS), len(PROFILE_ROWS)) == (45, 22)
    for k in range(count):
        alone, alone_curvatures = evaluate_points(params, BundlePoint(x[k:k + 1], p[k:k + 1]), profile, directions)
        assert set(alone) == set(values)
        for name, column in values.items():
            assert len(column) == count
            np.testing.assert_array_equal(_column_values(column)[k:k + 1], _column_values(alone[name]), err_msg=name)
            assert _column_details(column)[k:k + 1] == _column_details(alone[name]), name
        if curvatures is not None:
            np.testing.assert_array_equal(curvatures[k:k + 1], alone_curvatures)


def _layer_rows(geo, data, step_geo, step_data, kahler: bool) -> list:
    """Each stacked layer's per-point values, from the stacks or from one point's arrays.

    For the Kähler profile the integrable-only layers follow, called as
    evaluate_points calls them.
    """
    jet, riem = curvature.curvature_from_metric_field(base_geometry.metric_field(geo.params), geo.x)
    closed = complex_structure.nijenhuis_closed_form(geo, data)
    fd_n, off = complex_structure.nijenhuis_fd_full(geo, step_geo, step_data)
    rows = [
        jet.christoffel,
        riem,
        base_geometry.verify_constant_curvature(geo.base, riem),
        base_geometry.first_bianchi_residual(geo.base.riem),
        *verify_brackets(geo, step_geo),
        *energy_frame_derivatives(geo, step_geo),
        geo.dual_pairing_residual(),
        complex_structure.fundamental_form(step_geo, step_data),
        closed,
        fd_n,
        off,
    ]
    if not kahler:
        return rows
    W = connection.coefficients_from_geometry(geo, data)
    jet, R_oracle = curvature.curvature_oracle_coordinates(geo, step_geo, step_data)
    (match, labels), nabla_g, torsion = connection.verify_connection(geo, W, jet)
    T, dT = frame_derivative(geo, curvature.curvature_blocks(step_geo, step_data))
    _, K, parallel = curvature.parallel_block_residuals(geo, W, step_geo, step_data)
    R_oracle_ad = frame_transform(R_oracle, "uddd", geo, to="adapted")
    S_coord = lifted_metric.coordinate_metric(geo, data)
    S_ad = lifted_metric.adapted_metric_matrix(data)
    return rows + [
        W, *jet, R_oracle, match, labels, nabla_g, torsion,
        *connection.mtensor_parallel_residuals(geo, step_data),
        T, dT, R_oracle_ad,
        *curvature.sector_residuals(K, R_oracle_ad, geo.n).values(),
        curvature.direction_antisymmetry_residual(K),
        base_geometry.first_bianchi_residual(R_oracle),
        curvature.pair_skew_residual(R_oracle, S_coord),
        curvature.j_invariance_residual(R_oracle_ad, S_ad, complex_structure.adapted_j_matrix(data)),
        *curvature.einstein_residuals(geo, S_coord, R_oracle),
        *parallel.values(),  # local_symmetry and the eight rows
    ]


@pytest.mark.parametrize("offset", [None, 0.1], ids=["kahler", "offset"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_each_stacked_layer_equals_its_one_point_calls_bitwise(dim: int, offset) -> None:
    # A layer takes a point or a stack: at one point, unbatched, it returns
    # that point's row of the stacked call, with the point's arrays built at
    # the point alone.
    params = ModelParams(dim)
    profile = LiftProfile(offset)
    x, p = sample_chart_points(params, 3, 5)
    geo = point_geometry(params, BundlePoint(x, p))
    step_geo = step_geometry(geo)
    kahler = profile.is_kahler
    stacked = _layer_rows(
        geo, components_from_geometry(geo, profile), step_geo, components_from_geometry(step_geo, profile), kahler
    )
    for k in range(3):
        own_geo = point_geometry(params, BundlePoint(x[k], p[k]))
        own_step = step_geometry(own_geo)
        built = _layer_rows(
            own_geo, components_from_geometry(own_geo, profile), own_step, components_from_geometry(own_step, profile),
            kahler,
        )
        assert len(built) == len(stacked) == (14 if offset is not None else 50)
        for row, (whole, one) in enumerate(zip(stacked, built)):
            np.testing.assert_array_equal(np.asarray(whole)[k], one, err_msg=f"layer value {row}")
