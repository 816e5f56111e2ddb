"""Deterministic sampling of tube points and tangent directions."""

import numpy as np
import pytest

from kahler_tube import sampling
from kahler_tube.base_geometry import ModelParams, metric_at
from kahler_tube.frames import BundlePoint, point_geometry
from kahler_tube.lifted_metric import tube_check
from kahler_tube.sampling import (
    _BASE_DIRECTION_STREAM,
    _BASE_RADIUS_STREAM,
    _ENERGY_STREAM,
    _MOMENTUM_DIRECTION_STREAM,
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


def test_chart_arrays_are_prefixes_of_larger_counts() -> None:
    # Each quantity is one array draw, so the first k rows of x and of p do
    # not depend on how many points were asked for.
    for params in (PARAMS, ModelParams(2), ModelParams(5)):
        xs, ps = sample_chart_points(params, 40, seed=9)
        for k in (0, 1, 7, 39):
            few_xs, few_ps = sample_chart_points(params, k, seed=9)
            assert few_xs.tobytes() == xs[:k].tobytes()
            assert few_ps.tobytes() == ps[:k].tobytes()


def test_directions_are_one_normal_draw_on_spawn_key_2() -> None:
    for params, count, seed in ((PARAMS, 12, 1), (ModelParams(5), 100, 7), (ModelParams(2), 3, 2031)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2,))))
        expected = rng.normal(size=(count, 2 * params.dim))
        assert sample_directions(params, count, seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", range(2, 7))
def test_points_realize_their_drawn_energy_inside_the_ball(dim: int) -> None:
    lo, hi = ENERGY_WINDOW
    for params in (ModelParams(dim), ModelParams(dim, curvature=2.0, lift_const=0.5)):
        t_max = 2.0 * params.curvature / params.lift_const**2
        for seed in range(20):
            xs, ps = sample_chart_points(params, 30, seed)
            fractions = lo + (hi - lo) * _generator(seed, _ENERGY_STREAM).random(30)
            t = point_geometry(params, BundlePoint(xs, ps)).t
            assert np.max(np.linalg.norm(xs, axis=1)) <= 1.0
            assert np.max(np.abs(t / (fractions * t_max) - 1.0)) <= 1e-14
            assert np.all((lo - 1e-14 <= t / t_max) & (t / t_max <= hi + 1e-14))


def test_draw_calls_do_not_grow_with_count(monkeypatch: pytest.MonkeyPatch) -> None:
    # One draw per sampled quantity, whatever the count: a per-point loop
    # in the sampler would make draws in proportion to it.
    draws: list[tuple[int, str]] = []

    class CountingGenerator:
        def __init__(self, seed: int, stream: int) -> None:
            self._rng, self._stream = _generator(seed, stream), stream

        def __getattr__(self, name: str):
            draw = getattr(self._rng, name)

            def counted(*args, **kwargs):
                draws.append((self._stream, name))
                return draw(*args, **kwargs)

            return counted

    monkeypatch.setattr(sampling, "_generator", CountingGenerator)
    per_count = {}
    for count in (1, 10, 1000):
        draws.clear()
        sample_chart_points(PARAMS, count, seed=7)
        per_count[count] = sorted(draws)
    assert per_count[1] == per_count[10] == per_count[1000] == sorted(
        [
            (_BASE_DIRECTION_STREAM, "normal"),
            (_BASE_RADIUS_STREAM, "random"),
            (_ENERGY_STREAM, "random"),
            (_MOMENTUM_DIRECTION_STREAM, "normal"),
        ]
    )


def test_stacked_inverse_metrics_give_the_point_by_point_samples() -> None:
    # sample_points wraps the stacked arrays of sample_chart_points, which
    # draws each quantity as one array and takes the inverse base metrics
    # from one stacked metric_at; building each point from its own row of
    # every draw, with one-point operations, must give the same bits.
    lo, hi = ENERGY_WINDOW
    for params in (PARAMS, ModelParams(2), ModelParams(3), ModelParams(4), ModelParams(5)):
        n, count = params.dim, 20
        points = sample_points(params, count, seed=7)
        chart_xs, chart_ps = sample_chart_points(params, count, seed=7)
        assert all(
            pt.x.tobytes() == x.tobytes() and pt.p.tobytes() == p.tobytes()
            for pt, x, p in zip(points, chart_xs, chart_ps, strict=True)
        )
        base_directions = _generator(7, _BASE_DIRECTION_STREAM).normal(size=(count, n))
        uniforms = _generator(7, _BASE_RADIUS_STREAM).random(count)
        fractions = _generator(7, _ENERGY_STREAM).random(count)
        momenta = _generator(7, _MOMENTUM_DIRECTION_STREAM).normal(size=(count, n))
        t_max = 2.0 * params.curvature / params.lift_const**2
        for d, u, f, xi, pt in zip(base_directions, uniforms, fractions, momenta, points, strict=True):
            # np.power, not the scalar **, so the radius takes the array
            # route's rounding.
            x = d * (np.power(u, 1.0 / n) / np.sqrt(np.einsum("i,i->", d, d)))
            t_target = (lo + (hi - lo) * f) * t_max
            g_inv_xi = np.einsum("ij,j->i", metric_at(params, x).g_inv, xi)
            p = xi * np.sqrt(2.0 * t_target / np.einsum("i,i->", xi, g_inv_xi))
            assert pt.x.tobytes() == x.tobytes()
            assert pt.p.tobytes() == p.tobytes()
