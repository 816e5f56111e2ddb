"""Central-difference differentiation with Richardson extrapolation.

Every verification oracle in this package reduces to directional derivatives
of closed-form fields, so this module is deliberately small: symmetric
differences, an optional Richardson ladder, Lie brackets of vector fields,
and the exterior derivative of a 2-form coefficient field.  All routines
return an error estimate next to the value so callers can flag unreliable
steps instead of silently trusting them.

The routines here take an ``FdConfig``; the oracle layers built on them do
not.  Each layer fixes its own step constant (``DEFAULT_FD``, ``KOSZUL_FD``,
``STACKED_FD`` or ``TWICE_STACKED_FD``) at its fd call, and differentiates
fields built by ``frames.geometry_field`` / ``lifted_metric.lifted_field``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)

#: Step that balances truncation against round-off for first derivatives.
DEFAULT_STEP = _EPS ** (1.0 / 3.0)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference settings.

    base_step is a relative step: the actual step is scaled by the size of
    the evaluation point and of the direction vector.  richardson_levels may
    be 0, 1 or 2; each level removes the leading truncation term and
    tightens the error estimate.
    """

    base_step: float = DEFAULT_STEP
    richardson_levels: int = 1
    disagreement_factor: float = 10.0

    def __post_init__(self) -> None:
        if not 1e-8 < self.base_step < 1e-2:
            raise ValueError(f"base_step must lie in (1e-8, 1e-2), got {self.base_step}")
        if self.richardson_levels not in (0, 1, 2):
            raise ValueError("richardson_levels must be 0, 1 or 2")
        if self.disagreement_factor <= 0:
            raise ValueError("disagreement_factor must be positive")


DEFAULT_FD = FdConfig()

#: Step for fd layers whose output is differentiated again.  Small enough
#: that the truncation bias of this layer (which the next layer would
#: differentiate) stays below the outer layer's own error budget.
KOSZUL_FD = FdConfig(base_step=1e-4)

#: Step for differentiating a field that is itself one fd layer deep.  The
#: second Richardson level removes the outer truncation term, which
#: dominates near the tube boundary where field derivatives blow up.
STACKED_FD = FdConfig(base_step=1e-3, richardson_levels=2)

#: Step for the outermost layer of a three-deep fd stack, where the field
#: noise floor is the residual error of a stacked-fd curvature (~1e-7).
TWICE_STACKED_FD = FdConfig(base_step=6e-3)


class Derivative(NamedTuple):
    """A derivative estimate together with a worst-component error estimate."""

    value: np.ndarray
    error: float


def _step(x: np.ndarray, direction: np.ndarray, cfg: FdConfig) -> float:
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    dmax = float(np.max(np.abs(direction), initial=0.0))
    if dmax == 0.0:
        raise ValueError("direction vector must be nonzero")
    return cfg.base_step * scale / dmax


def directional_derivative(
    field: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    direction: np.ndarray,
    cfg: FdConfig = DEFAULT_FD,
) -> Derivative:
    """Derivative of ``field`` along ``direction`` (not normalized) at ``x``.

    Returns d/ds field(x + s*direction) at s = 0.  The error estimate is the
    gap between the two highest Richardson levels plus a round-off floor, so
    it stays meaningful when the step leaves the asymptotic regime.
    """

    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    h = _step(x, direction, cfg)
    fmax = [0.0]

    def central(step: float) -> np.ndarray:
        fp = np.asarray(field(x + step * direction), dtype=float)
        fm = np.asarray(field(x - step * direction), dtype=float)
        fmax[0] = max(fmax[0], float(np.max(np.abs(fp), initial=0.0)), float(np.max(np.abs(fm), initial=0.0)))
        return (fp - fm) / (2.0 * step)

    d0 = central(h)
    floor = 4.0 * _EPS * (1.0 + fmax[0]) / h
    if cfg.richardson_levels == 0:
        dbig = central(2.0 * h)
        gap = float(np.max(np.abs(d0 - dbig), initial=0.0)) / 3.0
        return Derivative(d0, gap + floor)
    d1 = central(0.5 * h)
    e1 = (4.0 * d1 - d0) / 3.0
    if cfg.richardson_levels == 1:
        gap = float(np.max(np.abs(d1 - d0), initial=0.0)) / 3.0
        return Derivative(e1, gap + floor)
    d2 = central(0.25 * h)
    e1b = (4.0 * d2 - d1) / 3.0
    e2 = (16.0 * e1b - e1) / 15.0
    gap = float(np.max(np.abs(e1b - e1), initial=0.0))
    return Derivative(e2, gap + floor)


def partial_derivative(
    field: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    axis: int,
    cfg: FdConfig = DEFAULT_FD,
) -> Derivative:
    """Partial derivative along coordinate ``axis``."""
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.size)
    e[axis] = 1.0
    return directional_derivative(field, x, e, cfg)


def field_jacobian(
    field: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    cfg: FdConfig = DEFAULT_FD,
) -> Derivative:
    """All partial derivatives, stacked with the derivative axis first.

    For a field with values of shape S the result has shape (m,) + S where
    m = x.size and result[k] is the partial along coordinate k.
    """

    x = np.asarray(x, dtype=float)
    parts = [partial_derivative(field, x, k, cfg) for k in range(x.size)]
    value = np.stack([p.value for p in parts])
    return Derivative(value, max(p.error for p in parts))


def lie_bracket(
    field_x: Callable[[np.ndarray], np.ndarray],
    field_y: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    cfg: FdConfig = DEFAULT_FD,
) -> Derivative:
    """Lie bracket [X, Y] of two vector fields at ``z``.

    Uses [X, Y] = D_X Y - D_Y X with the directional derivatives taken along
    the field values at z; this only requires field evaluation, not closed
    forms for derivatives.
    """

    z = np.asarray(z, dtype=float)
    xv = np.asarray(field_x(z), dtype=float)
    yv = np.asarray(field_y(z), dtype=float)
    dy = directional_derivative(field_y, z, xv, cfg)
    dx = directional_derivative(field_x, z, yv, cfg)
    return Derivative(dy.value - dx.value, dy.error + dx.error)


def exterior_derivative_two_form(
    omega_field: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    cfg: FdConfig = DEFAULT_FD,
) -> Derivative:
    """Coefficients of d(omega) for an antisymmetric 2-form coefficient field.

    Returns the cyclic sum d[l, m, n] = d_l w_mn + d_m w_nl + d_n w_lm,
    which is the exterior derivative when omega is antisymmetric.
    """

    jac = field_jacobian(omega_field, z, cfg)
    dw = jac.value  # [l, m, n]
    value = dw + np.transpose(dw, (1, 2, 0)) + np.transpose(dw, (2, 0, 1))
    return Derivative(value, 3.0 * jac.error)


def unreliable(result: Derivative, tolerance: float, cfg: FdConfig = DEFAULT_FD) -> bool:
    """True when the error estimate is too large for ``tolerance`` to be meaningful."""
    return result.error > cfg.disagreement_factor * tolerance
