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
``field_jacobian``, both signs and every step).  ``complex_step`` evaluates
the field once on that stack; ``field_jacobian`` evaluates it once per tile
of whole axes (``tiles``), a single tile unless the caller states that the
field's evaluation holds enough memory per point for the stack to leave
``WORKING_SET``.  The fields differentiated are built by
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


#: Bytes a tiled stack is kept within (``tiles``).  Large blocks that numpy
#: frees go back to the kernel (unmapped, or trimmed off the heap top), and
#: the next call that allocates them faults every page in again.  With this
#: budget a warm verify point at n = 4 or 5 takes no minor page fault (1,544
#: at n = 5 with the curvature oracle's stencil and nabla K untiled).
WORKING_SET = 512 * 1024


def tiles(count: int, item_bytes: int) -> list[slice]:
    """Contiguous near-equal tiles of ``range(count)``, each within ``WORKING_SET``.

    The tile rule of the package: as many items per tile as fit the working
    set at ``item_bytes`` each, but at least one, so there are never more
    tiles than items and a stack that fits is a single tile.
    """
    per_tile = max(1, WORKING_SET // item_bytes if item_bytes else count)
    k = -(-count // per_tile)
    bounds = [count * j // k for j in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def field_jacobian(
    field: Callable[[np.ndarray], np.ndarray], x: np.ndarray, point_bytes: int = 0
) -> Derivative:
    """All partial derivatives by central differences, derivative axis first.

    For a field with values of shape S the result has shape (m,) + S where
    m = x.size and result[k] is the partial along coordinate k.  The stencil
    is every point ``x + s*e_k`` and ``x - s*e_k`` for the steps h, h/2 and
    h/4; two Richardson levels cancel the h^2 and h^4 truncation terms.  The
    field is evaluated on it in ``tiles`` of whole axes, each axis's six
    points together, where ``point_bytes`` is what one evaluation holds per
    stencil point: one call when the stack fits ``WORKING_SET`` (always for
    the default 0).  Each axis's derivative and error read only its own
    points, so tiling changes no float.  The error estimate is the worst
    axis's gap between the two Richardson levels plus a round-off floor from
    the values at step h, so it stays meaningful when the step leaves the
    asymptotic regime.
    """

    x = np.asarray(x, dtype=float)
    m = x.size
    h = _STEP * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    steps = h * _STEPS  # [L]
    eye = np.eye(m)
    value = None
    errors = []
    for tile in tiles(m, 2 * len(steps) * point_bytes):
        offsets = steps[None, :, None] * eye[tile, None, :]
        points = np.stack([x + offsets, x - offsets], axis=2)  # [axis, L, sign, m]
        values = np.asarray(field(points.reshape(-1, m)), dtype=float)
        values = values.reshape(points.shape[:3] + values.shape[1:])
        if value is None:
            value = np.empty((m,) + values.shape[3:])
        value[tile], error = _richardson(values, steps, h)
        errors.append(error)
    return Derivative(value, float(np.max(np.concatenate(errors))))


def _richardson(values: np.ndarray, steps: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives and each axis's error estimate from ``values[axis, L, sign, *S]``."""
    k = values.shape[0]
    tail = (1,) * (values.ndim - 3)
    central = (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps).reshape((1, -1) + tail)

    def worst(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a).reshape(k, -1), axis=1, initial=0.0)

    floor = 4.0 * _EPS * (1.0 + worst(values[:, 0])) / h
    d0, d1, d2 = central[:, 0], central[:, 1], central[:, 2]
    e1 = (4.0 * d1 - d0) / 3.0
    e1b = (4.0 * d2 - d1) / 3.0
    return (16.0 * e1b - e1) / 15.0, worst(e1b - e1) + floor


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
