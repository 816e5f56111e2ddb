"""Complex-step and finite-difference differentiation.

Every verification oracle in this package reduces to derivatives of
closed-form fields, so this module has two derivatives.  ``complex_step``
differentiates an analytic field exactly, in one call; it is the derivative
of every closed-form field.  ``field_jacobian`` takes symmetric differences
with an optional Richardson ladder, only where a real difference must wrap
a complex step (the curvature oracle) or an oracle field.  Both return an
error estimate next to the value: for differences the gap between
Richardson levels plus a round-off floor, for the complex step a round-off
floor alone.

Field contract: a field maps chart points ``(..., m)`` to values
``(..., *S)``; a single point ``(m,)`` gives an ``S``-shaped value and a
stack of points gives a stack of values.  Fields must also accept complex
stacks and be complex-analytic in the coordinates, so that ``complex_step``
can differentiate them: closed forms are written with arithmetic, ``...``
einsums and ``np.linalg`` (never ``abs`` or conjugation), arrays are
allocated with the input's dtype, and domain guards compare ``.real``.
Each derivative builds every point it needs (every axis and, for
``field_jacobian``, both signs and every Richardson level) and evaluates the
field once on the stack.

One-level batching rule for ``field_jacobian``: a complex-step oracle (the
Koszul Christoffel field) is itself batch-generic, so a difference stencil
around it is one field call.  A field that runs a difference oracle per
point (the oracle curvature field, differentiated again only by the
oracle-route ``nabla K``) maps a stack by looping over its points with
``pointwise``, so each inner call evaluates one inner stencil.  Batching
those nested stencils too would multiply their memory without buying time.

``field_jacobian`` takes an ``FdConfig``; the layers that call it fix their
step constant (``CURVATURE_FD`` or ``TWICE_STACKED_FD``) at the call.  The
fields differentiated are built by ``frames.geometry_field`` /
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
    the evaluation point.  richardson_levels may
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


#: Step multipliers of the stencil, by Richardson level; the first is h.
_LEVEL_STEPS = {0: (1.0, 2.0), 1: (1.0, 0.5), 2: (1.0, 0.5, 0.25)}


def field_jacobian(
    field: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    cfg: FdConfig = DEFAULT_FD,
) -> Derivative:
    """All partial derivatives by central differences, derivative axis first.

    For a field with values of shape S the result has shape (m,) + S where
    m = x.size and result[k] is the partial along coordinate k.  The field is
    evaluated once, on the stack of every stencil point ``x + s*e_k`` and
    ``x - s*e_k``.  The error estimate is the worst axis's gap between the
    two highest Richardson levels plus a round-off floor from the values of
    the first level, so it stays meaningful when the step leaves the
    asymptotic regime.
    """

    x = np.asarray(x, dtype=float)
    m = x.size
    h = cfg.base_step * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    steps = h * np.array(_LEVEL_STEPS[cfg.richardson_levels])  # [L]
    offsets = steps[None, :, None] * np.eye(m)[:, None, :]
    points = np.stack([x + offsets, x - offsets], axis=2)  # [m, L, sign, m]
    values = np.asarray(field(points.reshape(-1, m)), dtype=float)
    values = values.reshape(points.shape[:3] + values.shape[1:])
    tail = (1,) * (values.ndim - 3)
    central = (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps).reshape((1, -1) + tail)

    def worst(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a).reshape(m, -1), axis=1, initial=0.0)

    floor = 4.0 * _EPS * (1.0 + worst(values[:, 0])) / h
    d0, d1 = central[:, 0], central[:, 1]
    if cfg.richardson_levels == 0:
        value, error = d0, worst(d0 - d1) / 3.0 + floor
    elif cfg.richardson_levels == 1:
        value, error = (4.0 * d1 - d0) / 3.0, worst(d1 - d0) / 3.0 + floor
    else:
        e1 = (4.0 * d1 - d0) / 3.0
        e1b = (4.0 * central[:, 2] - d1) / 3.0
        value, error = (16.0 * e1b - e1) / 15.0, worst(e1b - e1) + floor
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

