"""Levi-Civita connection of the lifted metric: closed forms and oracle.

The closed-form coefficients live in the adapted frame.  Writing nabla_a
for the derivative along the a-th frame vector and splitting indices into
horizontal (first n) and vertical (last n) slots, the nonzero blocks are

    nabla_vert_i  vert_j  = vv_vert[i, j, h]   vert_h
    nabla_horiz_i vert_j  = -gamma[j, i, h]    vert_h  + mixed[h, j, i] horiz_h
    nabla_vert_i  horiz_j = mixed[h, i, j]     horiz_h
    nabla_horiz_i horiz_j = gamma[h, i, j]     horiz_h + hh_vert[h, i, j] vert_h

The independent oracle recomputes coordinate Christoffel symbols of the
full 2n-dimensional metric from complex-step derivatives of the metric
field (standard Koszul formula) and transforms them into the adapted frame
using the analytic derivatives of the change-of-basis matrix.  Torsion of
the closed form is checked against the frame structure functions, and
metric compatibility via a complex-step covariant derivative of the
coordinate metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base_geometry import DomainError, ModelParams
from .fd import complex_step
from .frames import BundlePoint, PointGeometry, point_geometry
from .lifted_metric import (
    KAHLER,
    LiftProfile,
    LiftedMetricData,
    components_from_geometry,
    lifted_field,
    metric_field,
)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Closed-form adapted-frame coefficients at one point.

    vv_vert[i, j, h]: vertical output h of the derivative of vertical j
    along vertical i (symmetric in i, j).
    mixed[h, i, j]: horizontal output h with one vertical index i and one
    horizontal index j; it equals -vv_vert[i, h, j] and appears in both
    mixed slots.
    hh_vert[h, i, j]: vertical output h of the derivative of horizontal j
    along horizontal i.  It is not symmetric in (i, j): its antisymmetric
    part reproduces the momentum-contracted base curvature, which is what
    torsion-freeness demands given the horizontal frame brackets.
    """

    vv_vert: np.ndarray
    mixed: np.ndarray
    hh_vert: np.ndarray
    gamma: np.ndarray  # base Christoffels, repeated here for convenience


def coefficients_closed_form(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> ConnectionCoefficients:
    """Closed-form connection coefficients; requires the integrable profile."""
    geo = point_geometry(params, pt)
    data = components_from_geometry(params, geo, profile)
    return _coefficients(params, geo, data, profile)


def _coefficients(
    params: ModelParams, geo: PointGeometry, data: LiftedMetricData, profile: LiftProfile
) -> ConnectionCoefficients:
    if not profile.is_kahler:
        raise DomainError("closed-form connection coefficients require the integrable profile")
    n = geo.n
    c, A, t = params.curvature, params.lift_const, data.t
    g, ginv, p, pr = geo.base.g, geo.base.g_inv, geo.p, geo.p_raised
    eye = np.eye(n)
    bound = 2.0 * c - A * A * t

    inner = ginv + (c / (t * bound)) * np.outer(pr, pr)
    vv_vert = (0.5 / t) * (
        np.einsum("ij,h->ijh", inner, p)
        - np.einsum("ih,j->ijh", eye, pr)
        - np.einsum("jh,i->ijh", eye, pr)
    )
    mixed = -np.einsum("ihj->hij", vv_vert)

    hh_vert = (
        (0.5 * (A * A * t - 2.0 * c))
        * (np.einsum("ij,h->hij", g, p) + np.einsum("ih,j->hij", g, p))
        + (0.5 * A * A * t) * np.einsum("hj,i->hij", g, p)
        + (0.5 * (3.0 * c - 2.0 * A * A * t) / t) * np.einsum("h,i,j->hij", p, p, p)
    )
    return ConnectionCoefficients(
        vv_vert=vv_vert, mixed=mixed, hh_vert=hh_vert, gamma=geo.base.gamma
    )


def adapted_connection_matrix(coeffs: ConnectionCoefficients) -> np.ndarray:
    """Assemble coefficients into W[c, a, b]: nabla_a e_b = W[c, a, b] e_c."""
    n = coeffs.gamma.shape[0]
    W = np.zeros((2 * n, 2 * n, 2 * n))
    W[:n, :n, :n] = coeffs.gamma
    W[n:, :n, :n] = coeffs.hh_vert
    W[n:, :n, n:] = -np.einsum("jih->hij", coeffs.gamma)
    W[:n, :n, n:] = np.einsum("hji->hij", coeffs.mixed)
    W[:n, n:, :n] = coeffs.mixed
    W[n:, n:, n:] = np.einsum("ijh->hij", coeffs.vv_vert)
    return W


def koszul_oracle(metric_field_fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    """Coordinate Christoffel symbols of an arbitrary metric field.

    Works in any dimension and on stacks: ``z`` is one point ``(m,)`` or
    ``(..., m)``, and the result is christoffel[..., l, m, n] with the upper
    index first.  The metric and its derivatives come from one complex-step
    call of ``metric_field_fn`` (exact to round-off), so the only inputs are
    point evaluations of the metric and the oracle is independent of every
    closed form in the package.  Being batch-generic, it is itself a field
    that a difference stencil evaluates in one call.
    """

    G, jac = complex_step(metric_field_fn, z)
    Ginv = np.linalg.inv(G)
    dG = jac.value  # [..., k, m, n]
    return 0.5 * (
        np.einsum("...ls,...msn->...lmn", Ginv, dG)
        + np.einsum("...ls,...nsm->...lmn", Ginv, dG)
        - np.einsum("...ls,...smn->...lmn", Ginv, dG)
    )


def connection_to_adapted(christoffel: np.ndarray, geo: PointGeometry) -> np.ndarray:
    """Transform coordinate Christoffels into adapted-frame coefficients.

    Uses the non-tensorial rule with the analytic frame derivative dM:
    W[c, a, b] = Minv[c, nu] (M[mu, a] dM[mu, nu, b] + M[mu, a] M[lam, b]
    christoffel[nu, mu, lam]).
    """

    fr = geo.frame
    inhom = np.einsum("cv,ma,mvb->cab", fr.Minv, fr.M, fr.dM)
    hom = np.einsum("cv,ma,lb,vml->cab", fr.Minv, fr.M, fr.M, christoffel)
    return inhom + hom


def connection_to_coordinates(W: np.ndarray, geo: PointGeometry) -> np.ndarray:
    """Inverse of connection_to_adapted: coordinate Christoffels from W."""
    fr = geo.frame
    hom = np.einsum("vc,cab,am,bl->vml", fr.M, W, fr.Minv, fr.Minv)
    inhom = np.einsum("mvb,bl->vml", fr.dM, fr.Minv)
    return hom - inhom


def coordinate_connection_closed_form(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> np.ndarray:
    """Closed-form coordinate Christoffels of the lifted metric at ``pt``."""
    geo = point_geometry(params, pt)
    data = components_from_geometry(params, geo, profile)
    W = adapted_connection_matrix(_coefficients(params, geo, data, profile))
    return connection_to_coordinates(W, geo)


def frame_structure_functions(geo: PointGeometry) -> np.ndarray:
    """gamma^c_ab with [e_a, e_b] = gamma^c_ab e_c for the adapted frame."""
    n = geo.n
    out = np.zeros((2 * n, 2 * n, 2 * n))
    riem_p = geo.riem_p
    out[n:, :n, :n] = riem_p  # [k, i, j]
    out[n:, n:, :n] = np.einsum("ijk->kij", geo.base.gamma)
    out[n:, :n, n:] = -np.einsum("jik->kij", geo.base.gamma)
    return out


def torsion_residual(W: np.ndarray, geo: PointGeometry) -> float:
    """Max |W[c,a,b] - W[c,b,a] - structure[c,a,b]|, algebraic in the inputs."""
    struct = frame_structure_functions(geo)
    tors = W - np.einsum("cab->cba", W) - struct
    return float(np.max(np.abs(tors)))


def metric_compatibility_residual(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> float:
    """Max |coordinate covariant derivative of the lifted metric|.

    The metric derivative comes from a complex step of the analytic metric
    field; the connection is the closed-form coordinate
    Christoffels, so the residual certifies metric compatibility of the
    closed-form coefficients rather than an algebraic identity of the oracle.
    """

    christoffel = coordinate_connection_closed_form(params, pt, profile)
    G, jac = complex_step(metric_field(params, profile), pt.z)
    nabla = (
        jac.value
        - np.einsum("slm,sn->lmn", christoffel, G)
        - np.einsum("sln,ms->lmn", christoffel, G)
    )
    return float(np.max(np.abs(nabla)))


@dataclass(frozen=True)
class ConnectionComparison:
    """verify_connection outcome: residuals plus adjudication details."""

    closed_vs_oracle: float
    nabla_g: float
    torsion: float
    worst_label: str


def verify_connection(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> ConnectionComparison:
    """Compare closed-form coefficients against the Koszul oracle at ``pt``."""
    geo = point_geometry(params, pt)
    data = components_from_geometry(params, geo, profile)
    W_closed = adapted_connection_matrix(_coefficients(params, geo, data, profile))
    christoffel = koszul_oracle(metric_field(params, profile), pt.z)
    W_oracle = connection_to_adapted(christoffel, geo)
    diff = np.abs(W_closed - W_oracle)
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    label = (
        f"coefficient [{worst[0]},{worst[1]},{worst[2]}]: "
        f"closed-form {W_closed[worst]:.17g} vs oracle {W_oracle[worst]:.17g}"
    )
    nabla_g = metric_compatibility_residual(params, pt, profile)
    torsion = torsion_residual(W_closed, geo)
    return ConnectionComparison(
        closed_vs_oracle=float(diff[worst]),
        nabla_g=nabla_g,
        torsion=torsion,
        worst_label=label,
    )


def mtensor_parallel_residuals(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> tuple[float, float]:
    """Horizontal covariant constancy of the metric blocks.

    Checks that the frame derivative of G along horizontal directions is
    absorbed by base Christoffel contractions, and likewise for H with the
    opposite sign pattern.  The frame derivatives contract one complex step
    of the [G, H] field with the horizontal frame vectors.
    """

    geo = point_geometry(params, pt)
    n = geo.n
    blocks = lifted_field(params, profile, lambda g2, d2: np.stack([d2.G, d2.H], axis=-3))
    (G, H), jac = complex_step(blocks, pt.z)
    dG, dH = np.einsum("ki,kgjl->gijl", geo.frame.M[:, :n], jac.value)  # [i, j, l]
    gamma = geo.base.gamma
    # nabla_i G_jk = delta_i G_jk - gamma^l_ij G_lk - gamma^l_ik G_jl
    covG = dG - np.einsum("lij,lk->ijk", gamma, G) - np.einsum("lik,jl->ijk", gamma, G)
    # nabla_i H^jk = delta_i H^jk + gamma^j_il H^lk + gamma^k_il H^jl
    covH = dH + np.einsum("jil,lk->ijk", gamma, H) + np.einsum("kil,jl->ijk", gamma, H)
    return float(np.max(np.abs(covG))), float(np.max(np.abs(covH)))
