"""Deterministic sampling of chart points, tube momenta, and directions.

Each drawn quantity (base directions, base radii, energy fractions,
momentum directions, tangent directions) is one array draw from its own
child of the master seed (a distinct ``spawn_key``).  So ``count`` rows are
the first rows of any larger count, and extending one stream — say, asking
for more directions — never perturbs the points other checks see.

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

#: The spawn key of each drawn quantity's child stream.
_BASE_DIRECTION_STREAM = 0
_MOMENTUM_DIRECTION_STREAM = 1
_DIRECTION_STREAM = 2
_BASE_RADIUS_STREAM = 3
_ENERGY_STREAM = 4

#: Fraction of the tube's energy range that sampling stays inside, away
#: from the t -> 0 pole of the lift profile and the boundary degeneracy.
ENERGY_WINDOW = (0.05, 0.95)


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def sample_base_coordinates(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """``count`` chart points uniform in the unit coordinate ball.

    Each is a normal direction, normalized and scaled to the radius
    ``U^(1/n)`` with ``U`` uniform on ``[0, 1)``.
    """
    n = params.dim
    directions = _generator(seed, _BASE_DIRECTION_STREAM).normal(size=(count, n))
    radii = _generator(seed, _BASE_RADIUS_STREAM).random(count) ** (1.0 / n)
    norms = np.sqrt(np.einsum("ki,ki->k", directions, directions))
    return directions * (radii / norms)[:, None]


def sample_chart_points(params: ModelParams, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Tube points as stacked chart arrays ``(xs, ps)``, each ``(count, n)``.

    The energy density t is a ``[0, 1)`` uniform mapped onto
    ``ENERGY_WINDOW`` of the tube range 2c/A², and the momentum direction
    ``ξ`` is normal, scaled by ``sqrt(2t / ξ·g⁻¹ξ)`` to realize t.  The
    inverse metrics come from one stacked ``metric_at``.
    """
    xs = sample_base_coordinates(params, count, seed)
    lo, hi = ENERGY_WINDOW
    fractions = lo + (hi - lo) * _generator(seed, _ENERGY_STREAM).random(count)
    t_target = fractions * (2.0 * params.curvature / params.lift_const**2)
    xi = _generator(seed, _MOMENTUM_DIRECTION_STREAM).normal(size=(count, params.dim))
    g_inv_xi = np.einsum("kij,kj->ki", metric_at(params, xs).g_inv, xi)
    scale = np.sqrt(2.0 * t_target / np.einsum("ki,ki->k", xi, g_inv_xi))
    return xs, xi * scale[:, None]


def sample_points(params: ModelParams, count: int, seed: int) -> list[BundlePoint]:
    """The points of ``sample_chart_points``, each validated as a ``BundlePoint``."""
    return [BundlePoint(x, p) for x, p in zip(*sample_chart_points(params, count, seed))]


def sample_directions(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """``count`` adapted-frame tangent directions (rows), standard normal."""
    rng = _generator(seed, _DIRECTION_STREAM)
    return rng.normal(size=(count, 2 * params.dim))
