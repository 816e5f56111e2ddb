"""Deterministic sampling of tube points and tangent directions."""

import numpy as np

from kahler_tube.base_geometry import ModelParams, metric_at
from kahler_tube.lifted_metric import tube_check
from kahler_tube.sampling import (
    _MOMENTUM_STREAM,
    ENERGY_WINDOW,
    _generator,
    sample_base_coordinates,
    sample_chart_points,
    sample_directions,
    sample_points,
)

PARAMS = ModelParams(3, curvature=2.0, lift_const=0.5)


def test_points_land_inside_tube() -> None:
    points = sample_points(PARAMS, 50, seed=7)
    cap = 4.0 * PARAMS.curvature / PARAMS.lift_const**2
    for pt in points:
        check = tube_check(PARAMS, pt)
        assert check.admissible
        frac = check.momentum_norm_sq / cap
        assert ENERGY_WINDOW[0] - 1e-12 <= frac <= ENERGY_WINDOW[1] + 1e-12


def test_base_coordinates_inside_unit_ball() -> None:
    xs = sample_base_coordinates(PARAMS, 100, seed=3)
    assert xs.shape == (100, 3)
    assert np.max(np.linalg.norm(xs, axis=1)) <= 1.0


def test_determinism_and_seed_sensitivity() -> None:
    a = sample_points(PARAMS, 5, seed=11)
    b = sample_points(PARAMS, 5, seed=11)
    c = sample_points(PARAMS, 5, seed=12)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.p, pb.p)
    assert any(not np.array_equal(pa.x, pc.x) for pa, pc in zip(a, c))


def test_streams_are_independent() -> None:
    # Requesting more directions must not perturb the sampled points, and
    # vice versa: the two streams split from the seed independently.
    pts = sample_points(PARAMS, 4, seed=7)
    dirs_small = sample_directions(PARAMS, 3, seed=7)
    dirs_large = sample_directions(PARAMS, 10, seed=7)
    pts_again = sample_points(PARAMS, 4, seed=7)
    assert np.array_equal(dirs_small, dirs_large[:3])
    for pa, pb in zip(pts, pts_again):
        assert np.array_equal(pa.p, pb.p)


def test_prefix_stability_in_point_count() -> None:
    few = sample_points(PARAMS, 3, seed=9)
    many = sample_points(PARAMS, 8, seed=9)
    for pa, pb in zip(few, many[:3]):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.p, pb.p)


def test_direction_shape() -> None:
    dirs = sample_directions(PARAMS, 12, seed=1)
    assert dirs.shape == (12, 6)
    assert np.all(np.isfinite(dirs))
    assert np.all(np.any(dirs, axis=1))


def test_stacked_inverse_metrics_give_the_point_by_point_samples() -> None:
    # sample_points wraps the stacked arrays of sample_chart_points, which
    # takes the inverse base metrics from one stacked metric_at; the
    # per-point construction below must give the same bits.
    for params in (PARAMS, ModelParams(3), ModelParams(4), ModelParams(5)):
        points = sample_points(params, 20, seed=7)
        chart_xs, chart_ps = sample_chart_points(params, 20, seed=7)
        assert all(
            pt.x.tobytes() == x.tobytes() and pt.p.tobytes() == p.tobytes()
            for pt, x, p in zip(points, chart_xs, chart_ps, strict=True)
        )
        xs = sample_base_coordinates(params, 20, seed=7)
        rng = _generator(7, _MOMENTUM_STREAM)
        lo, hi = ENERGY_WINDOW
        t_max = 2.0 * params.curvature / params.lift_const**2
        for x, pt in zip(xs, points):
            g_inv = metric_at(params, x).g_inv
            t_target = rng.uniform(lo, hi) * t_max
            xi = rng.normal(size=params.dim)
            p = xi * np.sqrt(2.0 * t_target / float(xi @ g_inv @ xi))
            assert np.array_equal(pt.x, x)
            assert np.array_equal(pt.p, p)
