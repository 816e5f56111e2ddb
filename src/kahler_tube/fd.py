"""Complex-step and finite-difference differentiation.

Every verification oracle in this package reduces to derivatives of
closed-form fields, so this module has two derivatives.  ``complex_step``
differentiates an analytic field exactly, in one call, on the stack
``complex_points(x)`` of ``x + i h e_k``; ``complex_jacobian`` reads the
value and the Jacobian off the field's values there.  ``complex_step`` is
the derivative of chart fields: the oracle stencils and the base chart.
The verify battery instead builds the geometry at a point's complex points
once (``frames.step_geometry``), evaluates each closed form it
differentiates on that one stack, and reads each Jacobian with
``complex_jacobian``.  ``field_jacobian`` takes symmetric differences
on one fixed stencil (relative step 1e-4, steps h, h/2 and h/4, two
Richardson levels), only where a real difference must wrap a complex step:
the curvature oracle differentiates the complex-step Koszul Christoffels.
Both return an error estimate next to the value: for differences the gap
between the Richardson levels plus a round-off floor, for the complex step
a round-off floor alone.

Field contract: a field maps chart points ``(..., m)`` to values
``(..., *S)``; a single point ``(m,)`` gives an ``S``-shaped value and a
stack of points gives a stack of values.  Fields must also accept complex
stacks and be complex-analytic in the coordinates, so that ``complex_step``
can differentiate them: closed forms are written with arithmetic, ``...``
einsums and ``np.linalg`` (never ``abs`` or conjugation), arrays are
allocated with the input's dtype, and domain guards compare ``.real``.
Each derivative builds every point it needs (every axis and, for
``field_jacobian``, both signs and every step) and evaluates the field once
on the stack.  The fields differentiated are built by
``frames.geometry_field`` / ``lifted_metric.lifted_field``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)


class Derivative(NamedTuple):
    """A derivative estimate together with a worst-component error estimate."""

    value: np.ndarray
    error: float


#: Relative step of ``field_jacobian``.  The Christoffel field it
#: differentiates is exact to round-off, so the step can be small; the
#: second Richardson level removes the truncation term, which dominates near
#: the tube boundary where field derivatives blow up.
_STEP = 1e-4

#: Step multipliers of the stencil; the first is h.
_STEPS = np.array([1.0, 0.5, 0.25])


def field_jacobian(field: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> Derivative:
    """All partial derivatives by central differences, derivative axis first.

    For a field with values of shape S the result has shape (m,) + S where
    m = x.size and result[k] is the partial along coordinate k.  The field is
    evaluated once, on the stack of every stencil point ``x + s*e_k`` and
    ``x - s*e_k`` for the steps h, h/2 and h/4; two Richardson levels cancel
    the h^2 and h^4 truncation terms.  The error estimate is the worst axis's
    gap between the two Richardson levels plus a round-off floor from the
    values at step h, so it stays meaningful when the step leaves the
    asymptotic regime.
    """

    x = np.asarray(x, dtype=float)
    m = x.size
    h = _STEP * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    steps = h * _STEPS  # [L]
    offsets = steps[None, :, None] * np.eye(m)[:, None, :]
    points = np.stack([x + offsets, x - offsets], axis=2)  # [m, L, sign, m]
    values = np.asarray(field(points.reshape(-1, m)), dtype=float)
    values = values.reshape(points.shape[:3] + values.shape[1:])
    tail = (1,) * (values.ndim - 3)
    central = (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps).reshape((1, -1) + tail)

    def worst(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a).reshape(m, -1), axis=1, initial=0.0)

    floor = 4.0 * _EPS * (1.0 + worst(values[:, 0])) / h
    d0, d1, d2 = central[:, 0], central[:, 1], central[:, 2]
    e1 = (4.0 * d1 - d0) / 3.0
    e1b = (4.0 * d2 - d1) / 3.0
    error = worst(e1b - e1) + floor
    return Derivative((16.0 * e1b - e1) / 15.0, float(np.max(error)))


#: Imaginary step of ``complex_step``.  No difference is taken, so nothing
#: cancels and any step far below the field's scale is exact to round-off.
COMPLEX_STEP = 1e-30


def complex_points(x: np.ndarray) -> np.ndarray:
    """The ``(..., m, m)`` stack ``x + i h e_k`` on which ``complex_step`` evaluates a field."""
    x = np.asarray(x, dtype=float)
    return x[..., None, :] + (1j * COMPLEX_STEP) * np.eye(x.shape[-1])


def complex_jacobian(values: np.ndarray, batch_ndim: int = 0) -> tuple[np.ndarray, Derivative]:
    """Value and Jacobian from a field's values on ``complex_points(x)``.

    ``batch_ndim`` is the number of leading batch axes of ``x``; the step
    axis follows them.  The value is the real part at the first step point
    and the Jacobian ``Im f / h`` keeps the step axis as the derivative axis.
    """
    values = np.asarray(values)
    jac = values.imag / COMPLEX_STEP
    error = _EPS * (1.0 + float(np.max(np.abs(jac), initial=0.0)))
    return np.take(values, 0, axis=batch_ndim).real, Derivative(jac, error)


def complex_step(
    field: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, Derivative]:
    """Value and all partial derivatives of an analytic ``field`` at ``x``.

    ``x`` is one point ``(m,)`` or a stack ``(..., m)``.  The field is called
    once, on ``complex_points(x)``; ``complex_jacobian`` reads off the value
    and the Jacobian of shape ``(..., m, *S)``, derivative axis first after
    the batch axes (Squire & Trapp, SIAM Rev. 40(1), 1998).  Both are exact
    up to round-off, which is the error estimate.
    """

    x = np.asarray(x, dtype=float)
    return complex_jacobian(field(complex_points(x)), x.ndim - 1)
