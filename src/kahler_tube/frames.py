"""Adapted frames on the punctured cotangent bundle.

A chart point of the bundle is (q, p) in R^2n.  The horizontal frame fields
are d/dq^i + gamma_p[i, h] d/dp_h with gamma_p[i, h] = p_k gamma^k_ih, the
vertical ones are d/dp_i.  This module builds the change-of-basis matrix
between the coordinate frame and the adapted frame (with its analytic
coordinate derivatives, needed to transform connection coefficients), the
energy density t = g^ik p_i p_k / 2, and complex-step checks of the frame
bracket relations.

``geometry_at``, ``frame_transform`` and the fields built by
``geometry_field`` accept a stack of chart points ``(..., 2n)`` as well as a
single one, real or complex; every array then carries the same leading batch
axes and the input's dtype.

Ordering convention: adapted index a in [0, n) is the a-th horizontal
vector, a in [n, 2n) the (a - n)-th vertical one.  Coordinates are ordered
(q^1..q^n, p_1..p_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TypeVar

import numpy as np

from .base_geometry import BaseMetricData, DomainError, ModelParams, metric_at
from .fd import complex_step

T = TypeVar("T")


@dataclass(frozen=True)
class BundlePoint:
    """A point of the punctured cotangent bundle: base coordinates and momentum."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.ndim != 1 or p.shape != x.shape:
            raise ValueError("x and p must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("bundle coordinates must be finite")
        if not np.any(p):
            raise DomainError("outside punctured bundle: momentum must be nonzero")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def z(self) -> np.ndarray:
        """Concatenated chart coordinates (q, p) on R^2n."""
        return np.concatenate([self.x, self.p])


@dataclass(frozen=True)
class AdaptedFrame:
    """Change of basis between coordinate and adapted frames.

    M[..., mu, a] holds the coordinate components of the a-th adapted
    vector; Minv is its inverse, whose rows are the dual coframe; dM[mu, nu,
    b] is the analytic partial of M[nu, b] along coordinate mu, computed on
    first use from the momentum and the base data.
    """

    M: np.ndarray
    Minv: np.ndarray
    p: np.ndarray
    base: BaseMetricData

    @property
    def n(self) -> int:
        return self.M.shape[-1] // 2

    @cached_property
    def dM(self) -> np.ndarray:
        n = self.n
        dM = np.zeros(self.M.shape[:-2] + (2 * n,) * 3, dtype=self.M.dtype)
        # d/dq^l of gamma_p[i, h], arranged as dM[l, n + h, i]
        dgp = np.einsum("...k,...kihl->...ihl", self.p, self.base.dgamma)
        dM[..., :n, n:, :n] = np.einsum("...ihl->...lhi", dgp)
        # d/dp_l of gamma_p[i, h] = gamma^l_ih, arranged as dM[n + l, n + h, i]
        dM[..., n:, n:, :n] = np.einsum("...lih->...lhi", self.base.gamma)
        return dM

    def dual_pairing_residual(self) -> float:
        """Max |coframe(frame) - identity|; zero up to round-off."""
        eye = np.eye(self.M.shape[-1])
        return float(np.max(np.abs(self.Minv @ self.M - eye)))


@dataclass(frozen=True)
class PointGeometry:
    """Everything the lift needs at a bundle point (or a stack of them).

    Bundles the base metric data at the foot point with momentum-contracted
    quantities, so the rest of the package can work from one object instead
    of recomputing shared pieces.  The adapted frame is built on first use:
    fields that never transform between frames do not pay for it.
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
    def frame(self) -> AdaptedFrame:
        n = self.n
        gamma_p_t = np.swapaxes(self.gamma_p, -1, -2)
        eye = np.eye(2 * n, dtype=gamma_p_t.dtype)
        M = np.broadcast_to(eye, gamma_p_t.shape[:-2] + eye.shape).copy()
        Minv = M.copy()
        M[..., n:, :n] = gamma_p_t
        Minv[..., n:, :n] = -gamma_p_t
        return AdaptedFrame(M=M, Minv=Minv, p=self.p, base=self.base)

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
    t = 0.5 * np.einsum("...i,...i->...", p, p_raised)
    gamma_p = np.einsum("...k,...kih->...ih", p, base.gamma)
    return PointGeometry(
        params=params, x=x, p=p, base=base, t=t, p_raised=p_raised, gamma_p=gamma_p,
    )


def point_geometry(params: ModelParams, pt: BundlePoint) -> PointGeometry:
    return geometry_at(params, pt.x, pt.p)


def geometry_field(params: ModelParams, value: Callable[[PointGeometry], T]) -> Callable[[np.ndarray], T]:
    """The field z = (q, p) -> value(geometry at z) on R^2n, for the fd oracles.

    This is the only place a chart point z is split into (q, p); every field
    differentiated by an oracle is built here or on top of it.
    """
    n = params.dim
    return lambda z: value(geometry_at(params, z[..., :n], z[..., n:]))


def energy_density(params: ModelParams, pt: BundlePoint) -> float:
    """t = g^ik p_i p_k / 2 at the bundle point; positive off the zero section."""
    geo = point_geometry(params, pt)
    if geo.t <= 0.0:
        raise DomainError("outside punctured bundle: energy density must be positive")
    return geo.t


def frame_transform(values: np.ndarray, variance: str, frame: AdaptedFrame, to: str = "coordinate") -> np.ndarray:
    """Transform full 2n-dimensional tensor components between frames.

    variance has one letter per index, "u" (contravariant) or "d"
    (covariant).  ``to`` selects the target frame, "coordinate" or
    "adapted".  The tensor indices are the trailing axes of ``values``; any
    leading axes are the batch axes of ``frame``.
    """

    T = np.asarray(values)
    rank = T.ndim - (frame.M.ndim - 2)
    if len(variance) != rank:
        raise ValueError(f"variance {variance!r} does not match tensor rank {rank}")
    if any(ch not in "ud" for ch in variance):
        raise ValueError("variance letters must be 'u' or 'd'")
    if to not in ("coordinate", "adapted"):
        raise ValueError("target frame must be 'coordinate' or 'adapted'")
    idx = "abcdefgh"[:rank]
    for axis, ch in enumerate(variance):
        if to == "coordinate":
            # upper: coord^mu = M[mu, a] T^a; lower: coord_nu = Minv[b, nu] T_b
            mat, new_first = (frame.M, True) if ch == "u" else (frame.Minv, False)
        else:
            # upper: ad^a = Minv[a, mu] T^mu; lower: ad_b = M[nu, b] T_nu
            mat, new_first = (frame.Minv, True) if ch == "u" else (frame.M, False)
        old = idx[axis]
        mat_idx = "z" + old if new_first else old + "z"
        out = idx[:axis] + "z" + idx[axis + 1:]
        T = np.einsum(f"...{mat_idx},...{idx}->...{out}", mat, T)
    return T


@dataclass(frozen=True)
class BracketResiduals:
    """Max deviations of complex-step frame brackets from closed forms."""

    vert_vert: float
    mixed: float
    horiz_horiz: float


def verify_brackets(params: ModelParams, pt: BundlePoint) -> BracketResiduals:
    """Check the three bracket relations of the adapted frame numerically.

    [d/dp_i, d/dp_j] = 0,
    [d/dp_i, delta/deltaq^j] = gamma^i_jk d/dp_k,
    [delta/deltaq^i, delta/deltaq^j] = p_h riem[h, k, i, j] d/dp_k.

    One complex step of the frame field M gives every bracket at once:
    [e_a, e_b] = M[k, a] d_k M[:, b] - M[k, b] d_k M[:, a].
    """

    geo = point_geometry(params, pt)
    n = geo.n
    M, dM = complex_step(geometry_field(params, lambda g: g.frame.M), pt.z)
    DbM = np.einsum("ka,kmb->mab", M, dM.value)  # [mu, a, b]: derivative of e_b along e_a
    h, v = slice(None, n), slice(n, None)
    expected = np.zeros_like(DbM)
    expected[v, v, h] = np.einsum("ijh->hij", geo.base.gamma)
    expected[v, h, h] = geo.riem_p
    dev = np.abs(DbM - np.swapaxes(DbM, 1, 2) - expected)
    i, j = np.triu_indices(n, 1)
    return BracketResiduals(
        vert_vert=float(np.max(dev[:, v, v][:, i, j])),
        mixed=float(np.max(dev[:, v, h])),
        horiz_horiz=float(np.max(dev[:, h, h][:, i, j])),
    )


def energy_frame_derivatives(params: ModelParams, pt: BundlePoint) -> tuple[float, float]:
    """Residuals of the frame derivatives of t.

    Horizontally t is constant; vertically d t / dp_k equals the raised
    momentum.  Returns (max horizontal residual, max vertical residual).
    """

    geo = point_geometry(params, pt)
    n = geo.n
    _, dt = complex_step(geometry_field(params, lambda g: g.t), pt.z)
    dt_frame = geo.frame.M.T @ dt.value
    return float(np.max(np.abs(dt_frame[:n]))), float(np.max(np.abs(dt_frame[n:] - geo.p_raised)))
