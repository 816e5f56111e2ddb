"""Finite-difference and complex-step differentiation.

Every verification oracle in this package reduces to derivatives of
closed-form fields, so this module is deliberately small: symmetric
differences with an optional Richardson ladder, Lie brackets of vector
fields, the exterior derivative of a 2-form coefficient field, and one
complex-step Jacobian.  All routines return an error estimate next to the
value: for differences the gap between Richardson levels plus a round-off
floor, for the complex step a round-off floor alone.

Field contract: a field maps chart points ``(..., m)`` to values
``(..., *S)``; a single point ``(m,)`` gives an ``S``-shaped value and a
stack of points gives a stack of values.  Fields must also accept complex
stacks and be complex-analytic in the coordinates, so that ``complex_step``
can differentiate them: closed forms are written with arithmetic, ``...``
einsums and ``np.linalg`` (never ``abs`` or conjugation), and domain guards
compare ``.real``.  Each primitive builds every stencil point it needs (both
signs, every Richardson level and, for ``field_jacobian`` and
``complex_step``, every axis) and evaluates the field once on the stack.
``lie_bracket`` evaluates each field twice: once at the base point, whose
value is the other field's direction, and once on its stencil.

One-level batching rule: a complex-step oracle (the Koszul Christoffel
field) is itself batch-generic, so a difference stencil around it is one
field call.  A field that runs a difference oracle per point (the oracle
curvature field, differentiated again only by the oracle-route ``nabla K``)
maps a stack by looping over its points with ``pointwise``, so each inner
call evaluates one inner stencil.  Batching those nested stencils too would
multiply their memory without buying time.

The routines here take an ``FdConfig``; the oracle layers built on them do
not.  Each layer fixes its own step constant (``DEFAULT_FD``,
``CURVATURE_FD`` or ``TWICE_STACKED_FD``) at its fd call, and
differentiates fields built by ``frames.geometry_field`` /
``lifted_metric.lifted_field``.
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

    def __post_init__(self) -> None:
        if not 1e-8 < self.base_step < 1e-2:
            raise ValueError(f"base_step must lie in (1e-8, 1e-2), got {self.base_step}")
        if self.richardson_levels not in (0, 1, 2):
            raise ValueError("richardson_levels must be 0, 1 or 2")


DEFAULT_FD = FdConfig()

#: Step for differentiating complex-step Christoffels into curvature.  The
#: Christoffel field is exact to round-off, so the step can be small; the
#: second Richardson level removes the truncation term, which dominates near
#: the tube boundary where field derivatives blow up.
CURVATURE_FD = FdConfig(base_step=1e-4, richardson_levels=2)

#: Step for differentiating the oracle curvature field once more, where the
#: field noise floor is the oracle curvature's own error.
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


#: Step multipliers of the stencil, by Richardson level; the first is h.
_LEVEL_STEPS = {0: (1.0, 2.0), 1: (1.0, 0.5), 2: (1.0, 0.5, 0.25)}


def _derivatives(
    field: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    directions: np.ndarray,
    cfg: FdConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of ``field`` at ``x`` along each row of ``directions``.

    Evaluates the field once, on the stack of every stencil point
    ``x + s*d`` and ``x - s*d``.  Returns the values ``(K, *S)`` and the
    error estimates ``(K,)``: the gap between the two highest Richardson
    levels plus a round-off floor from the values of the first level.
    """
    k, m = directions.shape
    h = np.array([_step(x, d, cfg) for d in directions])
    steps = np.multiply.outer(h, _LEVEL_STEPS[cfg.richardson_levels])  # [K, L]
    offsets = steps[:, :, None] * directions[:, None, :]
    points = np.stack([x + offsets, x - offsets], axis=2)  # [K, L, sign, m]
    values = np.asarray(field(points.reshape(-1, m)), dtype=float)
    values = values.reshape(points.shape[:3] + values.shape[1:])
    tail = (1,) * (values.ndim - 3)
    central = (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps).reshape(steps.shape + tail)

    def worst(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a).reshape(k, -1), axis=1, initial=0.0)

    floor = 4.0 * _EPS * (1.0 + worst(values[:, 0])) / h
    d0, d1 = central[:, 0], central[:, 1]
    if cfg.richardson_levels == 0:
        return d0, worst(d0 - d1) / 3.0 + floor
    e1 = (4.0 * d1 - d0) / 3.0
    if cfg.richardson_levels == 1:
        return e1, worst(d1 - d0) / 3.0 + floor
    e1b = (4.0 * central[:, 2] - d1) / 3.0
    e2 = (16.0 * e1b - e1) / 15.0
    return e2, worst(e1b - e1) + floor


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
    value, error = _derivatives(field, x, direction[None, :], cfg)
    return Derivative(value[0], float(error[0]))


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
    m = x.size and result[k] is the partial along coordinate k.  The stencils
    of all m axes go to the field in one call; the error is the worst axis's.
    """

    x = np.asarray(x, dtype=float)
    value, error = _derivatives(field, x, np.eye(x.size), cfg)
    return Derivative(value, float(np.max(error)))


#: Imaginary step of ``complex_step``.  No difference is taken, so nothing
#: cancels and any step far below the field's scale is exact to round-off.
COMPLEX_STEP = 1e-30


def complex_step(
    field: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, Derivative]:
    """Value and all partial derivatives of an analytic ``field`` at ``x``.

    ``x`` is one point ``(m,)`` or a stack ``(..., m)``.  The field is called
    once, on the ``(..., m, m)`` stack ``x + i h e_k``; the value is the real
    part at the first of those points and the Jacobian ``Im f / h`` has shape
    ``(..., m, *S)``, derivative axis first after the batch axes (Squire &
    Trapp, SIAM Rev. 40(1), 1998).  Both are exact up to round-off, which is
    the error estimate.
    """

    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    values = np.asarray(field(x[..., None, :] + (1j * COMPLEX_STEP) * np.eye(m)))
    jac = values.imag / COMPLEX_STEP
    error = _EPS * (1.0 + float(np.max(np.abs(jac), initial=0.0)))
    return np.take(values, 0, axis=x.ndim - 1).real, Derivative(jac, error)


def pointwise(point_fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The field that maps a stack of points by looping ``point_fn`` over them.

    For fields that run an fd oracle per point (the one-level batching rule
    of the module docstring): ``point_fn`` takes one point ``(m,)``.
    """

    def field(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.stack([np.asarray(point_fn(zz), dtype=float) for zz in z.reshape(-1, z.shape[-1])])
        return out.reshape(z.shape[:-1] + out.shape[1:])

    return field


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
