"""Deterministic sampling of chart points, tube momenta, and directions.

Each drawn quantity (base directions, base radii, energy fractions,
momentum directions, tangent directions) is one array draw from its own
stream: the standard library's Mersenne Twister seeded with the string
``f"{seed}:{stream}"``.  A uniform is the top 53 bits of one little-endian
64-bit word of that stream's ``randbytes``, so it is exact on ``[0, 1)``;
normals come from the Box–Muller transform of uniform pairs ``(2j, 2j+1)``,
entry ``i`` of a normal array reading only pair ``i // 2``.  So ``count``
rows are the first rows of any larger count, and extending one stream — say,
asking for more directions — never perturbs the points other checks see.
The uniforms are the same bits everywhere; ``log1p``, ``cos`` and ``sin``
are numpy SIMD ufuncs, like the radius's ``power``, so the samples are
byte-identical on one machine only.  Sampling imports no ``numpy.random``,
which would load its extension modules and ``hashlib`` into every process.

``sample_chart_points`` returns the tube points as two stacked ``(count, n)``
arrays, which the sweep passes straight to the stacked geometry and the
verify battery validates as one stacked ``BundlePoint``;
``sample_points`` wraps the same arrays as one validated ``BundlePoint``
per point.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .base_geometry import ModelParams, metric_at
from .frames import BundlePoint

#: The key of each drawn quantity's stream.
_BASE_DIRECTION_STREAM = 0
_MOMENTUM_DIRECTION_STREAM = 1
_DIRECTION_STREAM = 2
_BASE_RADIUS_STREAM = 3
_ENERGY_STREAM = 4

#: Fraction of the tube's energy range that sampling stays inside, away
#: from the t -> 0 pole of the lift profile and the boundary degeneracy.
ENERGY_WINDOW = (0.05, 0.95)


def _uniform(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` uniforms on ``[0, 1)``, multiples of 2⁻⁵³, from one stream."""
    words = np.frombuffer(random.Random(f"{seed}:{stream}").randbytes(8 * count), "<u8")
    return (words >> 11) * 2.0**-53


def _normal(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of ``shape`` from one stream, by Box–Muller.

    Pair ``j`` of uniforms gives the entries ``2j`` and ``2j+1`` (in C order)
    as ``r cos θ`` and ``r sin θ``, with ``r = sqrt(-2 log(1 - u₁))`` and
    ``θ = 2π u₂``.
    """
    size = math.prod(shape)
    u = _uniform(seed, stream, 2 * ((size + 1) // 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    pairs = np.empty((radius.size, 2))
    pairs[:, 0] = np.cos(angle)
    pairs[:, 1] = np.sin(angle)
    pairs *= radius[:, None]
    return pairs.reshape(-1)[:size].reshape(shape)


def sample_base_coordinates(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """``count`` chart points uniform in the unit coordinate ball.

    Each is a normal direction, normalized and scaled to the radius
    ``U^(1/n)`` with ``U`` uniform on ``[0, 1)``.
    """
    n = params.dim
    directions = _normal(seed, _BASE_DIRECTION_STREAM, (count, n))
    radii = _uniform(seed, _BASE_RADIUS_STREAM, count) ** (1.0 / n)
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
    fractions = lo + (hi - lo) * _uniform(seed, _ENERGY_STREAM, count)
    t_target = fractions * (2.0 * params.curvature / params.lift_const**2)
    xi = _normal(seed, _MOMENTUM_DIRECTION_STREAM, (count, params.dim))
    g_inv_xi = np.einsum("kij,kj->ki", metric_at(params, xs).g_inv, xi)
    scale = np.sqrt(2.0 * t_target / np.einsum("ki,ki->k", xi, g_inv_xi))
    return xs, xi * scale[:, None]


def sample_points(params: ModelParams, count: int, seed: int) -> list[BundlePoint]:
    """The points of ``sample_chart_points``, each validated as a ``BundlePoint``."""
    return [BundlePoint(x, p) for x, p in zip(*sample_chart_points(params, count, seed))]


def sample_directions(params: ModelParams, count: int, seed: int) -> np.ndarray:
    """``count`` adapted-frame tangent directions (rows), standard normal."""
    return _normal(seed, _DIRECTION_STREAM, (count, 2 * params.dim))
