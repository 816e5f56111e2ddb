"""Constant-curvature base manifold on a single conformal chart.

The chart metric g_ij(x) = delta_ij / (1 + c|x|^2/4)^2 has sectional
curvature c everywhere: on all of R^n for c >= 0 and on the ball
|x|^2 < -4/c for c < 0.  Everything downstream needs g, its inverse, the
Christoffel symbols, the curvature tensor, and first coordinate derivatives
of g and Gamma; all are closed-form here, and all but g and its inverse are
computed on first use.  Finite differences appear only in the oracles.

Every function here accepts a stack of chart points ``(..., n)`` as well as
a single point; the arrays below then carry the same leading batch axes,
and a residual check returns one value per point (``fd.max_abs``).
Points may be complex (for complex-step oracles): the closed forms are
analytic and the chart guard compares the real part.

Index conventions used throughout the package:
    gamma[k, i, j]      Christoffel symbol with upper index k,
    dgamma[k, i, j, l]  its partial derivative along x^l,
    riem[h, k, i, j]    component h of R(d_i, d_j) d_k, so that
                        riem = c * (delta^h_i g_jk - delta^h_j g_ik).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fd import max_abs


class DomainError(ValueError):
    """An evaluation point or parameter set violates a required inequality.

    The message always names the violated condition.
    """


@dataclass(frozen=True)
class ModelParams:
    """Base dimension, sectional curvature of the base, and the lift constant.

    Any finite curvature and lift constant are representable so that the
    negative branches can be exercised in tests, but the lifted structure
    only exists when both are positive; see ``admissibility_violation``.
    """

    dim: int
    curvature: float = 1.0
    lift_const: float = 1.0

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        for name in ("curvature", "lift_const"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    def admissibility_violation(self) -> str | None:
        """Violated inequality as text, or None when admissible."""
        if self.curvature <= 0.0:
            return "2c - A^2 t > 0 unsatisfiable for t > 0"
        if self.lift_const <= 0.0:
            return "lift constant must be positive"
        return None

    def require_admissible(self) -> None:
        reason = self.admissibility_violation()
        if reason is not None:
            raise DomainError(reason)


@dataclass(frozen=True)
class BaseMetricData:
    """Closed-form metric data of the base manifold at one chart point or a stack.

    ``gamma``, ``dgamma`` and ``riem`` are computed on first use: only
    single-point callers read them, so fd stencils never pay for them.
    """

    x: np.ndarray        # [..., i]
    curvature: float
    u: np.ndarray        # [...], conformal factor
    g: np.ndarray        # [..., i, j]
    g_inv: np.ndarray    # [..., i, j]

    @cached_property
    def gamma(self) -> np.ndarray:
        """[..., k, i, j] = gamma^k_ij of the conformal metric exp(2 phi) delta, phi = -log u."""
        return -(0.5 * self.curvature / self.u)[..., None, None, None] * _core(self.x)

    @cached_property
    def dgamma(self) -> np.ndarray:
        """[..., k, i, j, l] = partial_l gamma^k_ij."""
        x, c, u = self.x, self.curvature, self.u[..., None, None, None, None]
        eye = np.eye(x.shape[-1])
        outer = _core(x)[..., None] * x[..., None, None, None, :]
        return (0.25 * c * c / (u * u)) * outer - (0.5 * c / u) * (
            eye[:, :, None, None] * eye[None, None, :, :]
            + eye[:, None, :, None] * eye[None, :, None, :]
            - eye[None, :, :, None] * eye[:, None, None, :]
        )

    @cached_property
    def riem(self) -> np.ndarray:
        """[..., h, k, i, j] = c (delta^h_i g_jk - delta^h_j g_ik)."""
        eye = np.eye(self.x.shape[-1])
        g = self.g
        return self.curvature * (
            np.einsum("hi,...jk->...hkij", eye, g) - np.einsum("hj,...ik->...hkij", eye, g)
        )


def _coords(params: ModelParams, x) -> np.ndarray:
    x = np.asarray(x)
    if x.shape[-1:] != (params.dim,):
        raise ValueError(f"expected points of dimension {params.dim}, got shape {x.shape}")
    return x


def _core(x: np.ndarray) -> np.ndarray:
    """[..., k, i, j] = delta_ki x_j + delta_kj x_i - delta_ij x_k."""
    eye = np.eye(x.shape[-1])
    return (
        eye[:, :, None] * x[..., None, None, :]
        + eye[:, None, :] * x[..., None, :, None]
        - eye[None, :, :] * x[..., :, None, None]
    )


def momentum_gamma(base: BaseMetricData, p: np.ndarray) -> np.ndarray:
    """[..., i, h] = p_k gamma^k_ih = -(c/2u) (p_i x_h + p_h x_i - (p.x) delta_ih): p into ``_core``, O(n^2)."""
    px = p[..., :, None] * base.x[..., None, :]
    trace = np.asarray(np.einsum("...i,...i->...", p, base.x))[..., None, None] * np.eye(p.shape[-1])
    return -(0.5 * base.curvature / base.u)[..., None, None] * (px + np.swapaxes(px, -1, -2) - trace)


def conformal_factor(params: ModelParams, x) -> np.ndarray:
    """u(x) = 1 + c|x|^2/4; must stay positive for the chart to be valid."""
    x = _coords(params, x)
    u = np.asarray(1.0 + 0.25 * params.curvature * np.einsum("...i,...i->...", x, x))
    if np.any(u.real <= 0.0):
        raise DomainError("conformal factor 1 + c|x|^2/4 must be positive (chart domain)")
    return u


def metric_at(params: ModelParams, x) -> BaseMetricData:
    """Metric and inverse at ``x`` (one point or a stack); the Christoffels on first use."""
    x = _coords(params, x)
    u = conformal_factor(params, x)
    eye = np.eye(params.dim)
    uu = (u * u)[..., None, None]
    return BaseMetricData(x=x, curvature=params.curvature, u=u, g=eye / uu, g_inv=eye * uu)


def metric_field(params: ModelParams):
    """The base metric as a callable field, for finite-difference oracles."""

    def field(x: np.ndarray) -> np.ndarray:
        return metric_at(params, x).g

    return field


def verify_constant_curvature(base: BaseMetricData, riem: np.ndarray) -> float | np.ndarray:
    """Max deviation of ``riem`` from c (delta^h_i g_jk - delta^h_j g_ik) at ``base``, per point.

    ``base.riem`` is that closed form, so ``riem`` must be recomputed
    independently (the finite-difference oracle's tensor) for the residual
    to certify constant curvature.
    """
    return max_abs(riem - base.riem, base.u.ndim)


def first_bianchi_residual(riem: np.ndarray) -> float | np.ndarray:
    """Max |cyclic sum of riem over its three lower slots|, per point of a stack ``(..., m, m, m, m)``."""
    cyc = riem + np.einsum("...hkij->...hijk", riem) + np.einsum("...hkij->...hjki", riem)
    return max_abs(cyc, riem.ndim - 4)
