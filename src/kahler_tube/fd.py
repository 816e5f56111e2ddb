"""Complex-step and finite-difference differentiation.

Every verification oracle in this package reduces to derivatives of
closed-form fields, so this module has two derivatives.  The complex step
is exact to round-off: a closed form is evaluated once on the stack
``complex_points(x)`` of ``x + i h e_k``, either as a field of the chart
points or as the geometry there (``frames.step_geometry``), and
``complex_jacobian`` reads the value and the Jacobian off its values
(``frames.frame_derivative`` reads frame derivatives the same way).
``field_jacobian`` takes symmetric differences on one fixed stencil
(relative step 1e-4, steps h, h/2 and h/4, two Richardson levels), only
where a real difference must wrap a complex step: the curvature oracle
differentiates the complex-step Koszul Christoffels.  Both take one point
``(m,)`` or a stack ``(..., m)`` and return an error estimate next to the
value, one per point: for differences the gap between the Richardson
levels plus a round-off floor, for the complex step a round-off floor
alone.  ``max_abs`` is the per-point reduction of every residual: the
largest component of each point of a stack.

Field contract: a field maps chart points ``(..., m)`` to values
``(..., *S)``; a single point ``(m,)`` gives an ``S``-shaped value and a
stack of points gives a stack of values.  Closed forms must also accept
complex stacks and be complex-analytic in the coordinates, so that the
complex step can differentiate them: they are written with arithmetic,
``...`` einsums and ``np.linalg`` (never ``abs`` or conjugation), arrays
are allocated with the input's dtype, and domain guards compare ``.real``.
``field_jacobian`` builds every point it needs (every axis, both signs and
every step) and evaluates the field once per tile of whole (point, axis)
items (``tiles``), a single tile unless the caller states that the field's
evaluation holds enough memory per point for the stack to leave
``WORKING_SET``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)


class Derivative(NamedTuple):
    """A derivative estimate together with a worst-component error estimate.

    The error is one per point: a float for one point, an array of the batch
    shape for a stack.
    """

    value: np.ndarray
    error: float | np.ndarray


def max_abs(values: np.ndarray, batch_ndim: int = 0) -> float | np.ndarray:
    """Largest |component| of each point: the maximum over the axes after the first ``batch_ndim``.

    The reduction every residual of the battery ends in.  A float for one
    point (``batch_ndim`` 0), an array of the batch shape for a stack; each
    point's value reads only its own components, and a NaN among them
    reaches its value.
    """
    magnitude = np.abs(values)
    return np.maximum.reduce(magnitude.reshape(magnitude.shape[:batch_ndim] + (-1,)), axis=-1)


#: Relative step of ``field_jacobian``.  The Christoffel field it
#: differentiates is exact to round-off, so the step can be small; the
#: second Richardson level removes the truncation term, which dominates near
#: the tube boundary where field derivatives blow up.
_STEP = 1e-4

#: Step multipliers of the stencil; the first is h.
_STEPS = np.array([1.0, 0.5, 0.25])


#: Bytes a tiled stack is kept within (``tiles``).  Large blocks that numpy
#: frees go back to the kernel (unmapped, or trimmed off the heap top), and
#: the next call that allocates them faults every page in again; stacks kept
#: below this budget are reused from the heap instead.
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
    """All partial derivatives by central differences, derivative axis first after the batch axes.

    ``x`` is one point ``(m,)`` or a stack ``(..., m)``.  For a field with
    values of shape S the result has shape ``(..., m) + S`` and
    ``result[..., k, :]`` is the partial along coordinate k.  Each point has
    its own step h, relative to its largest coordinate, and its stencil is
    every point ``x + s*e_k`` and ``x - s*e_k`` for the steps h, h/2 and
    h/4; two Richardson levels cancel the h^2 and h^4 truncation terms.  The
    items are the (point, axis) pairs, each with its six stencil points; the
    field is evaluated on them in ``tiles`` of whole items, where
    ``point_bytes`` is what one evaluation holds per stencil point: one call
    when the stack fits ``WORKING_SET`` (always for the default 0).  Each
    item's derivative and error read only its own points, so neither tiling
    nor the stack a point sits in changes a float, and a NaN reaches only
    its own point.  The error estimate, one per point (a scalar for one
    point), is the worst axis's gap between the two Richardson levels plus a
    round-off floor from the values at step h, so it stays meaningful when
    the step leaves the asymptotic regime.
    """

    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    xs = x.reshape(-1, m)  # [point, m]
    count = xs.size  # the (point, axis) items
    h = np.repeat(_STEP * (1.0 + np.max(np.abs(xs), axis=-1, initial=0.0)), m)  # [item]
    steps = h[:, None] * _STEPS  # [item, L]
    offsets = (steps.reshape(len(xs), m, -1, 1) * np.eye(m)[:, None, :]).reshape(count, len(_STEPS), m)
    base = np.repeat(xs, m, axis=0)[:, None, :]
    points = np.empty((count, len(_STEPS), 2, m))  # [item, L, sign, m]
    np.add(base, offsets, out=points[:, :, 0])
    np.subtract(base, offsets, out=points[:, :, 1])
    value = None
    errors = np.empty(count)
    for tile in tiles(count, 2 * len(_STEPS) * point_bytes):
        values = np.asarray(field(points[tile].reshape(-1, m)), dtype=float)
        values = values.reshape((tile.stop - tile.start, len(_STEPS), 2) + values.shape[1:])
        if value is None:
            value = np.empty((count,) + values.shape[3:])
        value[tile], errors[tile] = _richardson(values, steps[tile], h[tile])
    return Derivative(value.reshape(x.shape + value.shape[1:]), errors.reshape(x.shape).max(axis=-1))


def _richardson(values: np.ndarray, steps: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives and each item's error estimate from ``values[item, L, sign, *S]``.

    ``steps[item, L]`` and ``h[item]`` are the steps of each item's point.
    """
    k = values.shape[0]
    tail = (1,) * (values.ndim - 3)
    central = (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps).reshape(steps.shape + tail)

    def worst(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a).reshape(k, -1), axis=1, initial=0.0)

    floor = 4.0 * _EPS * (1.0 + worst(values[:, 0])) / h
    d0, d1, d2 = central[:, 0], central[:, 1], central[:, 2]
    e1 = (4.0 * d1 - d0) / 3.0
    e1b = (4.0 * d2 - d1) / 3.0
    return (16.0 * e1b - e1) / 15.0, worst(e1b - e1) + floor


#: Imaginary step of ``complex_points``.  No difference is taken, so nothing
#: cancels and any step far below the field's scale is exact to round-off.
COMPLEX_STEP = 1e-30


def complex_points(x: np.ndarray) -> np.ndarray:
    """The ``(..., m, m)`` stack ``x + i h e_k`` on which a closed form is evaluated for ``complex_jacobian``."""
    x = np.asarray(x, dtype=float)
    return x[..., None, :] + (1j * COMPLEX_STEP) * np.eye(x.shape[-1])


def complex_jacobian(values: np.ndarray, batch_ndim: int = 0) -> tuple[np.ndarray, Derivative]:
    """Value and Jacobian from a field's values on ``complex_points(x)``.

    ``batch_ndim`` is the number of leading batch axes of ``x``; the step
    axis follows them.  The value is the real part at the first step point
    and the Jacobian ``Im f / h`` keeps the step axis as the derivative axis,
    ``(..., m, *S)`` (Squire & Trapp, SIAM Rev. 40(1), 1998).  No difference
    is taken, so both are exact up to round-off, which is the error
    estimate, one per point of ``x``.
    """
    values = np.asarray(values)
    jac = values.imag / COMPLEX_STEP
    error = _EPS * (1.0 + max_abs(jac, batch_ndim))
    return np.take(values, 0, axis=batch_ndim).real, Derivative(jac, error)

