"""Deterministic sampling of chart points, tube momenta, and directions.

Each concern draws from its own child of the master seed (a distinct
``spawn_key``), so extending one stream — say, asking for more directions —
never perturbs the points other checks see.

``sample_chart_points`` returns the tube points as two stacked ``(count, n)``
arrays, which the sweep passes straight to the stacked geometry and the
verify battery validates as one stacked ``BundlePoint``;
``sample_points`` wraps the same arrays as one validated ``BundlePoint``
per point.
"""

from __future__ import annotations

import numpy as np

from .base_geometry import ModelParams, metric_at
from .frames import BundlePoint

_POINT_STREAM = 0
_MOMENTUM_STREAM = 1
_DIRECTION_STREAM = 2

#: Fraction of the tube's energy range that sampling stays inside, away
#: from the t -> 0 pole of the lift profile and the boundary degeneracy.
ENERGY_WINDOW = (0.05, 0.95)


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def sample_base_coordinates(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """``count`` chart points uniform in the unit coordinate ball."""
    rng = _generator(seed, _POINT_STREAM)
    n = params.dim
    out = np.empty((count, n))
    for k in range(count):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        out[k] = direction * rng.uniform() ** (1.0 / n)
    return out


def sample_chart_points(params: ModelParams, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Tube points as stacked chart arrays ``(xs, ps)``, each ``(count, n)``.

    The energy density t is drawn uniformly from the middle of the tube
    range (``ENERGY_WINDOW`` times 2c/A²) and the momentum direction
    uniformly on the inverse-metric sphere, then scaled to realize t.  The
    inverse metrics come from one stacked ``metric_at``; the momentum draws
    stay point by point, so the stream order does not depend on ``count``.
    """

    xs = sample_base_coordinates(params, count, seed)
    rng = _generator(seed, _MOMENTUM_STREAM)
    lo, hi = ENERGY_WINDOW
    t_max = 2.0 * params.curvature / params.lift_const**2
    ps = np.empty_like(xs)
    for k, g_inv in enumerate(metric_at(params, xs).g_inv):
        t_target = rng.uniform(lo, hi) * t_max
        xi = rng.normal(size=params.dim)
        ps[k] = xi * np.sqrt(2.0 * t_target / float(xi @ g_inv @ xi))
    return xs, ps


def sample_points(params: ModelParams, count: int, seed: int) -> list[BundlePoint]:
    """The points of ``sample_chart_points``, each validated as a ``BundlePoint``."""
    return [BundlePoint(x, p) for x, p in zip(*sample_chart_points(params, count, seed))]


def sample_directions(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """``count`` adapted-frame tangent directions (rows), standard normal."""
    rng = _generator(seed, _DIRECTION_STREAM)
    return rng.normal(size=(count, 2 * params.dim))
