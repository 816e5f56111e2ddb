"""Deterministic sampling of tube points and tangent directions."""

import math
import random

import numpy as np
import pytest

from kahler_tube import sampling
from kahler_tube.base_geometry import ModelParams, metric_at
from kahler_tube.frames import BundlePoint, point_geometry
from kahler_tube.lifted_metric import tube_check
from kahler_tube.sampling import (
    _BASE_DIRECTION_STREAM,
    _BASE_RADIUS_STREAM,
    _DIRECTION_STREAM,
    _ENERGY_STREAM,
    _MOMENTUM_DIRECTION_STREAM,
    ENERGY_WINDOW,
    _normal,
    _uniform,
    sample_base_coordinates,
    sample_chart_points,
    sample_directions,
    sample_points,
)

PARAMS = ModelParams(3, curvature=2.0, lift_const=0.5)

#: The first three little-endian 64-bit words of ``random.Random(key).randbytes``.
#: CPython documents only ``random()`` as reproducible across versions, so a
#: change in ``randbytes`` shows here before it changes every report.
GOLDEN_WORDS = {
    "1:0": (0xD3078BEEB9D97D46, 0x44E11F096B75DD97, 0x967FD9CC5EDF4ECE),
    "7:2": (0xC0A3054F405CFD6A, 0xE25AAB56D56BC784, 0x96EDB2082B6BCB3A),
    "2031:4": (0xA8062A90093BD3D1, 0x6A34672F70D8D677, 0x47881538561D9274),
}


def _box_muller(u: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` Box–Muller normals of the uniform pairs ``u[2j], u[2j+1]``.

    Array ufuncs, as in the sampler: a scalar call may take another kernel
    and round differently.
    """
    r, angle = np.sqrt(-2.0 * np.log1p(-u[0::2])), 2.0 * np.pi * u[1::2]
    return np.column_stack((np.cos(angle) * r, np.sin(angle) * r)).ravel()[:size]


def test_uniforms_are_the_top_53_bits_of_the_keyed_randbytes() -> None:
    for key, golden in GOLDEN_WORDS.items():
        seed, stream = map(int, key.split(":"))
        words = np.frombuffer(random.Random(key).randbytes(8 * 50), "<u8")
        assert tuple(int(w) for w in words[:3]) == golden
        u = _uniform(seed, stream, 50)
        assert u.dtype == np.float64 and u.shape == (50,)
        assert [x * 2**53 for x in u] == [int(w) >> 11 for w in words]  # exact, every one
        assert np.all((0.0 <= u) & (u < 1.0))
    assert _uniform(3, 0, 0).shape == (0,)


def test_normals_are_box_muller_on_consecutive_uniform_pairs() -> None:
    for shape in ((7, 3), (4, 6), (1, 1), (0, 5)):
        size = math.prod(shape)
        u = _uniform(9, 1, 2 * ((size + 1) // 2))
        assert _normal(9, 1, shape).tobytes() == _box_muller(u, size).tobytes()
    # The transform itself, against the standard library's scalar functions.
    u = _uniform(9, 1, 40)
    expected = [
        z
        for u1, u2 in zip(u[0::2], u[1::2])
        for z in (math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2),
                  math.sqrt(-2.0 * math.log1p(-u1)) * math.sin(2.0 * math.pi * u2))
    ]
    np.testing.assert_allclose(_normal(9, 1, (40,)), expected, rtol=1e-14, atol=1e-15)


def test_normals_have_standard_moments() -> None:
    z = _normal(5, 2, (200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs(np.mean(z**4) - 3.0) < 0.05
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.005


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
    # vice versa; and no two of the five streams share their draws, nor do
    # neighbouring seeds, whose keys differ only in one digit.
    pts = sample_points(PARAMS, 4, seed=7)
    dirs_small = sample_directions(PARAMS, 3, seed=7)
    dirs_large = sample_directions(PARAMS, 10, seed=7)
    pts_again = sample_points(PARAMS, 4, seed=7)
    assert np.array_equal(dirs_small, dirs_large[:3])
    for pa, pb in zip(pts, pts_again):
        assert np.array_equal(pa.p, pb.p)
    streams = (_BASE_DIRECTION_STREAM, _MOMENTUM_DIRECTION_STREAM, _DIRECTION_STREAM, _BASE_RADIUS_STREAM, _ENERGY_STREAM)
    assert sorted(streams) == list(range(5))
    draws = [_uniform(seed, stream, 64) for seed in (1, 7, 11, 17, 71) for stream in streams]
    assert len({u.tobytes() for u in draws}) == len(draws)
    assert max(abs(np.corrcoef(a, b)[0, 1]) for a, b in zip(draws, draws[1:])) < 0.5


def test_prefix_stability_in_point_count() -> None:
    few = sample_points(PARAMS, 3, seed=9)
    many = sample_points(PARAMS, 8, seed=9)
    for pa, pb in zip(few, many[:3]):
        assert np.array_equal(pa.x, pb.x)
        assert np.array_equal(pa.p, pb.p)


def test_normal_prefixes_hold_where_a_pair_straddles_two_rows() -> None:
    # At n = 3 an odd row count ends on the first half of a pair, whose
    # second half starts the next row of a larger draw (the chart points'
    # prefixes at n = 3 are test_chart_arrays_are_prefixes_of_larger_counts).
    wide = _normal(4, 0, (9, 3))
    for k in (1, 3, 5, 8):
        assert _normal(4, 0, (k, 3)).tobytes() == wide[:k].tobytes()
    for count in (1, 3, 7, 21):
        few = sample_directions(PARAMS, count, seed=4)
        assert few.tobytes() == sample_directions(PARAMS, 22, seed=4)[:count].tobytes()


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


def test_directions_are_box_muller_on_stream_2() -> None:
    for params, count, seed in ((PARAMS, 12, 1), (ModelParams(5), 100, 7), (ModelParams(2), 3, 2031)):
        m = 2 * params.dim
        words = np.frombuffer(random.Random(f"{seed}:2").randbytes(8 * count * m), "<u8")
        expected = _box_muller((words >> 11) * 2.0**-53, count * m).reshape(count, m)
        assert sample_directions(params, count, seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", range(2, 7))
def test_points_realize_their_drawn_energy_inside_the_ball(dim: int) -> None:
    lo, hi = ENERGY_WINDOW
    for params in (ModelParams(dim), ModelParams(dim, curvature=2.0, lift_const=0.5)):
        t_max = 2.0 * params.curvature / params.lift_const**2
        for seed in range(20):
            xs, ps = sample_chart_points(params, 30, seed)
            fractions = lo + (hi - lo) * _uniform(seed, _ENERGY_STREAM, 30)
            t = point_geometry(params, BundlePoint(xs, ps)).t
            assert np.max(np.linalg.norm(xs, axis=1)) <= 1.0
            assert np.max(np.abs(t / (fractions * t_max) - 1.0)) <= 1e-14
            assert np.all((lo - 1e-14 <= t / t_max) & (t / t_max <= hi + 1e-14))


def test_draw_calls_do_not_grow_with_count(monkeypatch: pytest.MonkeyPatch) -> None:
    # One draw per sampled quantity, whatever the count: a per-point loop
    # in the sampler would make draws in proportion to it.  Normals draw
    # their uniforms through _uniform too.
    draws: list[int] = []
    uniform = sampling._uniform

    def counted(seed: int, stream: int, count: int) -> np.ndarray:
        draws.append(stream)
        return uniform(seed, stream, count)

    monkeypatch.setattr(sampling, "_uniform", counted)
    per_count = {}
    for count in (1, 10, 1000):
        draws.clear()
        sample_chart_points(PARAMS, count, seed=7)
        per_count[count] = sorted(draws)
    assert per_count[1] == per_count[10] == per_count[1000] == sorted(
        [_BASE_DIRECTION_STREAM, _BASE_RADIUS_STREAM, _ENERGY_STREAM, _MOMENTUM_DIRECTION_STREAM]
    )
    draws.clear()
    sample_directions(PARAMS, 1000, seed=7)
    assert draws == [_DIRECTION_STREAM]


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
        base_directions = _normal(7, _BASE_DIRECTION_STREAM, (count, n))
        uniforms = _uniform(7, _BASE_RADIUS_STREAM, count)
        fractions = _uniform(7, _ENERGY_STREAM, count)
        momenta = _normal(7, _MOMENTUM_DIRECTION_STREAM, (count, n))
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
