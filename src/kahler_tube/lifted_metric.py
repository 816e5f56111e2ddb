"""The lifted metric on a tube around the unit momentum sphere.

Horizontal block  G_ij  = A t g_ij + v(t) p_i p_j,
vertical block    H^kl  = g^kl / (A t) + w(t) pr^k pr^l,   pr = g^-1 p,
with w = -v / (A t^2 (A + 2v)) so that H is the inverse of G in the sense
G_ik H^kl = delta_i^l.  The integrable profile v(t) = (c - A^2 t)/(A t)
yields the Kahler structure; it is positive-definite exactly on the tube
0 < |p|_g^2 < 4c / A^2.  For negative tests the profile can be shifted by a
constant offset; only A + 2v > 0 is then required.

Every function taking a PointGeometry accepts a stacked one; the profile
and the tube guard then act on the array of energy densities, and the guard
raises if any point of the stack leaves the tube.  Complex points (for the
complex-step oracles) flow through unchanged: the profiles are analytic in
t and every guard compares the real part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .base_geometry import DomainError, ModelParams
from .frames import BundlePoint, PointGeometry, geometry_field, point_geometry

T = TypeVar("T")


@dataclass(frozen=True)
class LiftProfile:
    """Choice of the vertical scaling profile v(t).

    With offset None the integrable (Kahler) profile is used; an offset
    shifts it by that constant, which breaks integrability when nonzero and
    leaves only A + 2 v(t) > 0 to hold at the points where it is evaluated.
    """

    offset: float | None = None

    @property
    def is_kahler(self) -> bool:
        return self.offset is None

    def v(self, t: np.ndarray, params: ModelParams) -> np.ndarray:
        t = np.asarray(t)
        if (t.real <= 0.0).any():
            raise DomainError("outside punctured bundle: energy density must be positive")
        c, A = params.curvature, params.lift_const
        v = (c - A * A * t) / (A * t)
        return v if self.offset is None else v + self.offset


KAHLER = LiftProfile()


@dataclass(frozen=True)
class TubeCheck:
    """Outcome of the tube admissibility test for one point."""

    admissible: bool
    reason: str | None
    momentum_norm_sq: float
    bound: float


def tube_check(params: ModelParams, pt: BundlePoint) -> TubeCheck:
    """Classify a bundle point against 0 < |p|_g^2 < 4c / A^2.

    Parameter-level violations (c <= 0 or A <= 0) are reported through the
    reason field as well, with the bound set to nan.
    """

    violation = params.admissibility_violation()
    if violation is not None:
        return TubeCheck(False, violation, float("nan"), float("nan"))
    reason, norm_sq, bound = _tube_test(params, point_geometry(params, pt).t)
    return TubeCheck(reason is None, reason, norm_sq, bound)


def _tube_test(params: ModelParams, t: np.ndarray) -> tuple[str | None, np.ndarray, float]:
    """(violated inequality or None, |p|_g^2, 4c / A^2) at energy density t.

    For an array of t the inequality is violated if any entry violates it.
    """
    norm_sq = 2.0 * t
    bound = 4.0 * params.curvature / params.lift_const**2
    if (norm_sq.real <= 0.0).any():
        return "outside punctured bundle: momentum must be nonzero", norm_sq, bound
    if (norm_sq.real >= bound).any():
        return "momentum norm exceeds tube bound 4c / A^2", norm_sq, bound
    return None, norm_sq, bound


@dataclass(frozen=True)
class LiftedMetricData:
    """Blocks of the lifted metric, with the profile values used."""

    G: np.ndarray  # [..., i, j], horizontal block (covariant)
    H: np.ndarray  # [..., k, l], vertical block (contravariant base indices)
    t: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _lift_guard(geo: PointGeometry, profile: LiftProfile) -> None:
    params = geo.params
    if profile.is_kahler:
        params.require_admissible()
        reason = _tube_test(params, geo.t)[0]
        if reason is not None:
            raise DomainError(reason)
    elif params.lift_const <= 0.0:
        raise DomainError("lift constant must be positive")


def components_from_geometry(geo: PointGeometry, profile: LiftProfile = KAHLER) -> LiftedMetricData:
    _lift_guard(geo, profile)
    t = geo.t
    A = geo.params.lift_const
    v = profile.v(t, geo.params)
    denom = A + 2.0 * v
    if (denom.real <= 0.0).any():
        raise DomainError("A + 2v > 0 violated: lifted metric not positive definite")
    w = -v / (A * t * t * denom)
    p, pr = geo.p, geo.p_raised
    s = (..., None, None)
    G = (A * t)[s] * geo.base.g + v[s] * (p[..., :, None] * p[..., None, :])
    H = geo.base.g_inv / (A * t)[s] + w[s] * (pr[..., :, None] * pr[..., None, :])
    return LiftedMetricData(G=G, H=H, t=t, v=v, w=w)


def adapted_metric_matrix(data: LiftedMetricData) -> np.ndarray:
    """The lifted metric as a 2n x 2n matrix in the adapted frame (block diagonal)."""
    n = data.G.shape[-1]
    S = np.zeros(data.G.shape[:-2] + (2 * n, 2 * n), dtype=data.G.dtype)
    S[..., :n, :n] = data.G
    S[..., n:, n:] = data.H
    return S


def coordinate_metric(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    """Coordinate components of the lifted metric, one block formula.

    The frame is block-unipotent, so the coordinate form of the adapted
    block-diagonal metric is [[G + Gp H Gp^T, -Gp H], [-H Gp^T, H]] with
    Gp = gamma_p; it equals ``frame_transform(adapted_metric_matrix(data),
    "dd", geo.frame)`` without building the frame.
    """
    n = geo.n
    gH = geo.gamma_p @ data.H
    S = np.empty(gH.shape[:-2] + (2 * n, 2 * n), dtype=gH.dtype)
    S[..., :n, :n] = data.G + gH @ np.swapaxes(geo.gamma_p, -1, -2)
    S[..., :n, n:] = -gH
    S[..., n:, :n] = -np.swapaxes(gH, -1, -2)
    S[..., n:, n:] = data.H
    return S


def lifted_field(
    params: ModelParams,
    profile: LiftProfile,
    value: Callable[[PointGeometry, LiftedMetricData], T],
) -> Callable[[np.ndarray], T]:
    """The field z -> value(geometry, lifted blocks) on R^2n, for the fd oracles.

    Built on frames.geometry_field; the blocks go through the tube guard of
    components_from_geometry, so a stencil point outside the tube raises.
    """
    return geometry_field(params, lambda geo: value(geo, components_from_geometry(geo, profile)))


def metric_field(params: ModelParams, profile: LiftProfile = KAHLER) -> Callable[[np.ndarray], np.ndarray]:
    """The full coordinate metric as a callable field for the oracles."""
    return lifted_field(params, profile, coordinate_metric)


def kahler_identity_residual(params: ModelParams, data: LiftedMetricData) -> float:
    """|A t (v + A) - c|; zero exactly for the integrable profile."""
    A, c = params.lift_const, params.curvature
    return abs(A * data.t * (data.v + A) - c)


def w_consistency_residual(params: ModelParams, data: LiftedMetricData) -> float:
    """Gap between the stored w and the integrable-profile coefficient.

    For the integrable profile, -v / (A t^2 (A + 2v)) must simplify to
    -(c - A^2 t) / (A t^2 (2c - A^2 t)); comparing the two guards the
    algebra that identifies the vertical block coefficient.
    """

    A, c, t = params.lift_const, params.curvature, data.t
    expected = -(c - A * A * t) / (A * t * t * (2.0 * c - A * A * t))
    return abs(data.w - expected)
