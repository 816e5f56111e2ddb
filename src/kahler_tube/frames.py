"""Adapted frames on the punctured cotangent bundle.

A chart point of the bundle is (q, p) in R^2n.  The horizontal frame fields
are d/dq^i + gamma_p[i, h] d/dp_h with gamma_p[i, h] = p_k gamma^k_ih
= -(c/2u) (p_i x_h + p_h x_i - (p.x) delta_ih), u = 1 + c|x|^2/4; the
vertical ones are d/dp_i.  This module builds the energy density
t = g^ik p_i p_k / 2, the change of tensor components between the frames,
and complex-step checks of the frame bracket relations.  The
change-of-basis matrix M = [[1, 0], [gamma_p^T, 1]] is block-unipotent, so
``frame_transform`` works from gamma_p alone; M, its inverse and its
analytic coordinate derivatives are built only where a matrix is read:
``frame_derivative``, ``verify_brackets`` (which differentiates M itself),
``PointGeometry.dual_pairing_residual`` and the connection's frame change
(``connection.connection_to_adapted`` and ``connection_to_coordinates``,
the only readers of the derivatives).

``step_geometry`` builds the geometry at the 2n complex-step points
z + i h e_k (``fd.complex_points``) of each chart point, once per verified
point; every layer that reads a derivative evaluates its closed form on
that one stack, and ``frame_derivative`` turns the values into
adapted-frame derivatives (``fd.complex_jacobian`` into coordinate ones).

Everything here takes a stack of points as well as a single one:
``BundlePoint``, ``geometry_at``, ``step_geometry``, ``frame_derivative``,
``frame_transform`` and the checks
``verify_brackets``, ``energy_frame_derivatives`` and
``PointGeometry.dual_pairing_residual``, real or complex; every array then
carries the same leading batch axes and the input's dtype, and a check
returns one value per point (a float for one point), the largest over that
point's own components, so a point's value does not depend on the stack it
sits in.

Ordering convention: adapted index a in [0, n) is the a-th horizontal
vector, a in [n, 2n) the (a - n)-th vertical one.  Coordinates are ordered
(q^1..q^n, p_1..p_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base_geometry import BaseMetricData, DomainError, ModelParams, metric_at, momentum_gamma
from .fd import complex_jacobian, complex_points, max_abs


@dataclass(frozen=True)
class BundlePoint:
    """A point of the punctured cotangent bundle, or a stack: base coordinates and momentum.

    ``x`` and ``p`` are one point ``(n,)`` each or stacks ``(..., n)``;
    every point must be finite with a nonzero momentum.
    """

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.ndim < 1 or p.shape != x.shape:
            raise ValueError("x and p must be arrays of equal shape, (n,) or (..., n)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("bundle coordinates must be finite")
        if not np.all(np.any(p, axis=-1)):
            raise DomainError("outside punctured bundle: momentum must be nonzero")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def z(self) -> np.ndarray:
        """Concatenated chart coordinates (q, p) on R^2n."""
        return np.concatenate([self.x, self.p], axis=-1)


@dataclass(frozen=True)
class PointGeometry:
    """Everything the lift needs at a bundle point (or a stack of them).

    Bundles the base metric data at the foot point with momentum-contracted
    quantities, so the rest of the package can work from one object instead
    of recomputing shared pieces.  It carries the adapted frame too:
    M[..., mu, a] holds the coordinate components of the a-th adapted
    vector, Minv is its inverse, whose rows are the dual coframe, and
    dM[mu, nu, b] is the analytic partial of M[nu, b] along coordinate mu.
    Each is built on first read: M by ``frame_derivative`` and
    ``verify_brackets``, M and Minv by ``dual_pairing_residual``, and all
    three by the connection's frame change.  ``frame_transform`` reads only
    gamma_p and builds none of them.
    """

    params: ModelParams
    x: np.ndarray
    p: np.ndarray
    base: BaseMetricData
    t: np.ndarray           # energy density
    p_raised: np.ndarray    # g^ik p_k
    gamma_p: np.ndarray     # [i, h] = p_k gamma^k_ih

    @property
    def n(self) -> int:
        return self.params.dim

    @cached_property
    def M(self) -> np.ndarray:
        n = self.n
        eye = np.eye(2 * n, dtype=self.gamma_p.dtype)
        M = np.broadcast_to(eye, self.gamma_p.shape[:-2] + eye.shape).copy()
        M[..., n:, :n] = np.swapaxes(self.gamma_p, -1, -2)
        return M

    @cached_property
    def Minv(self) -> np.ndarray:
        n = self.n
        Minv = self.M.copy()  # M is unipotent: negate its off-diagonal block
        Minv[..., n:, :n] = -Minv[..., n:, :n]
        return Minv

    @cached_property
    def dM(self) -> np.ndarray:
        n = self.n
        dM = np.zeros(self.gamma_p.shape[:-2] + (2 * n,) * 3, dtype=self.gamma_p.dtype)
        # d/dq^l of gamma_p[i, h], arranged as dM[l, n + h, i]
        dgp = np.einsum("...k,...kihl->...ihl", self.p, self.base.dgamma)
        dM[..., :n, n:, :n] = np.einsum("...ihl->...lhi", dgp)
        # d/dp_l of gamma_p[i, h] = gamma^l_ih, arranged as dM[n + l, n + h, i]
        dM[..., n:, n:, :n] = np.einsum("...lih->...lhi", self.base.gamma)
        return dM

    def dual_pairing_residual(self) -> float | np.ndarray:
        """Max |coframe(frame) - identity| per point; zero up to round-off."""
        return max_abs(self.Minv @ self.M - np.eye(2 * self.n), self.M.ndim - 2)

    @property
    def riem_p(self) -> np.ndarray:
        """Momentum-contracted curvature: [k, i, j] = p_h riem[h, k, i, j]."""
        return np.einsum("...h,...hkij->...kij", self.p, self.base.riem)

    @property
    def z(self) -> np.ndarray:
        return np.concatenate([self.x, self.p], axis=-1)


def geometry_at(params: ModelParams, x: np.ndarray, p: np.ndarray) -> PointGeometry:
    """Build PointGeometry from raw arrays (no puncture validation, for field use).

    ``x`` and ``p`` are one point ``(n,)`` each or stacks ``(..., n)``, real
    or complex.
    """
    x = np.asarray(x)
    p = np.asarray(p)
    base = metric_at(params, x)
    p_raised = np.einsum("...ij,...j->...i", base.g_inv, p)
    t = np.asarray(0.5 * np.einsum("...i,...i->...", p, p_raised))
    gamma_p = momentum_gamma(base, p)
    return PointGeometry(
        params=params, x=x, p=p, base=base, t=t, p_raised=p_raised, gamma_p=gamma_p,
    )


def point_geometry(params: ModelParams, pt: BundlePoint) -> PointGeometry:
    return geometry_at(params, pt.x, pt.p)


def frame_transform(values: np.ndarray, variance: str, geo: PointGeometry, to: str = "coordinate") -> np.ndarray:
    """Transform full 2n-dimensional tensor components between frames.

    variance has one letter per index, "u" (contravariant) or "d"
    (covariant).  ``to`` selects the target frame, "coordinate" or
    "adapted".  The tensor indices are the trailing axes of ``values``; any
    leading axes are the batch axes of ``geo``.

    The frame is block-unipotent, M = [[1, 0], [gp^T, 1]] and
    Minv = [[1, 0], [-gp^T, 1]] with gp = ``geo.gamma_p``, so the transform
    reads only gp and builds neither matrix: each index moves one half of
    the tensor by one half-size product with gp and keeps the other half.
    To the adapted frame a lower index adds gp @ (vertical half) to its
    horizontal half, and an upper one subtracts gp^T @ (horizontal half)
    from its vertical half; to coordinates the signs flip.
    """

    gp = geo.gamma_p
    T = np.asarray(values)
    rank = T.ndim - (gp.ndim - 2)
    if len(variance) != rank:
        raise ValueError(f"variance {variance!r} does not match tensor rank {rank}")
    if variance.strip("ud"):
        raise ValueError("variance letters must be 'u' or 'd'")
    if to not in ("coordinate", "adapted"):
        raise ValueError("target frame must be 'coordinate' or 'adapted'")
    n, gpT = gp.shape[-1], gp.swapaxes(-1, -2)
    m, h, v = 2 * n, slice(None, n), slice(n, None)  # the horizontal and the vertical half
    out = T.astype(np.promote_types(T.dtype, gp.dtype), order="C")
    head = out.shape[:out.ndim - rank]
    for axis, ch in enumerate(variance):
        lower = ch == "d"
        moved, read = (h, v) if lower else (v, h)
        if axis == rank - 1:  # the last index: halves of each row, one product per point
            # a matrix is used as it is, so the point calls make no reshape
            P = out if rank == 2 else out.reshape(head + (m ** (rank - 1), m))
            half, step = P[..., moved], P[..., read] @ (gpT if lower else gp)
        else:  # halves of the rows, one product per point and value of the indices before it
            g = gp if lower else gpT
            if axis == 0:
                P = out if rank == 2 else out.reshape(head + (m, m ** (rank - 1)))
            else:
                P, g = out.reshape(head + (m**axis, m, m ** (rank - axis - 1))), g[..., None, :, :]
            half, step = P[..., moved, :], g @ P[..., read, :]
        if lower == (to == "adapted"):
            half += step
        else:
            half -= step
    return out


def step_geometry(geo: PointGeometry) -> PointGeometry:
    """The geometry at the 2n complex-step points ``geo.z + i h e_k`` (``fd.complex_points``).

    Built once per point and shared: every closed form whose derivative a
    check reads is evaluated on it, and ``frame_derivative`` or
    ``fd.complex_jacobian`` reads the derivative off those values.  For a
    stack ``(...)`` of points it is the ``(..., 2n)`` stack of their steps.
    """
    z = complex_points(geo.z)
    return geometry_at(geo.params, z[..., :geo.n], z[..., geo.n:])


def frame_derivative(geo: PointGeometry, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value at the point of ``geo`` and adapted-frame derivatives of a closed form.

    ``values`` is the closed form evaluated on ``step_geometry(geo)``; its
    complex step gives the coordinate Jacobian jac[k, ...], and the
    derivative along frame vector a is sum_k M[k, a] jac[k, ...], one
    matmul (one per point of a stack).  The result dT[a, ...] carries the
    frame direction first, after the batch axes of ``geo``.
    """
    M = geo.M
    value, jac = complex_jacobian(values, M.ndim - 2)
    dT = np.swapaxes(M, -1, -2) @ jac.value.reshape(M.shape[:-1] + (-1,))
    return value, dT.reshape(jac.value.shape)


def frame_structure_functions(geo: PointGeometry) -> np.ndarray:
    """gamma^c_ab with [e_a, e_b] = gamma^c_ab e_c for the adapted frame, after the batch axes of ``geo``."""
    n = geo.n
    out = np.zeros(geo.t.shape + (2 * n,) * 3)
    out[..., n:, :n, :n] = geo.riem_p  # [k, i, j]
    out[..., n:, n:, :n] = np.einsum("...ijk->...kij", geo.base.gamma)
    out[..., n:, :n, n:] = -np.einsum("...jik->...kij", geo.base.gamma)
    return out


def verify_brackets(
    geo: PointGeometry, step_geo: PointGeometry
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Check the three bracket relations of the adapted frame numerically.

    [d/dp_i, d/dp_j] = 0,
    [d/dp_i, delta/deltaq^j] = gamma^i_jk d/dp_k,
    [delta/deltaq^i, delta/deltaq^j] = p_h riem[h, k, i, j] d/dp_k.

    One ``frame_derivative`` of the frame matrix M, read on the step
    geometry ``step_geo = step_geometry(geo)``, gives every bracket at once:
    [e_a, e_b] = D_a e_b - D_b e_a with D_a e_b = M[k, a] d_k M[:, b],
    compared with ``frame_structure_functions`` on the blocks above.
    Returns the largest deviations ``(vert_vert, mixed, horiz_horiz)``,
    each one per point of ``geo``.
    """

    n, batch = geo.n, geo.t.ndim
    _, DM = frame_derivative(geo, step_geo.M)
    DbM = np.swapaxes(DM, -3, -2)  # [mu, a, b]: derivative of e_b along e_a
    h, v = slice(None, n), slice(n, None)
    dev = DbM - np.swapaxes(DbM, -2, -1) - frame_structure_functions(geo)
    i, j = np.triu_indices(n, 1)
    return (
        max_abs(dev[..., v, v][..., i, j], batch),
        max_abs(dev[..., v, h], batch),
        max_abs(dev[..., h, h][..., i, j], batch),
    )


def energy_frame_derivatives(
    geo: PointGeometry, step_geo: PointGeometry
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Residuals of the frame derivatives of t, read on ``step_geo = step_geometry(geo)``.

    Horizontally t is constant; vertically d t / dp_k equals the raised
    momentum.  Returns (max horizontal residual, max vertical residual),
    each one per point of ``geo``.
    """

    n, batch = geo.n, geo.t.ndim
    _, dt_frame = frame_derivative(geo, step_geo.t)
    return max_abs(dt_frame[..., :n], batch), max_abs(dt_frame[..., n:] - geo.p_raised, batch)
