"""Curvature of the lifted metric: closed-form blocks, fd oracle, identities.

In the adapted frame the curvature operator K(X, Y) maps the four
horizontal/vertical sector combinations into a small set of n-dimensional
blocks.  Naming a block by the sector pattern (direction, direction,
argument), the six independent families are

    hhh[h, i, j, k]: horizontal part of K(horiz_i, horiz_j) horiz_k
    hhv           = -hhh with the argument/output slots read vertically
    vvh[i, j, h, k]: horizontal part of K(vert_i, vert_j) horiz
    vvv           = -vvh read vertically
    vhh[i, j, k, h]: vertical part of K(vert_i, horiz_j) horiz_k
    vhv[i, k, h, j]: horizontal part of K(vert_i, horiz_k) vert

Every other sector vanishes identically.  The oracle recomputes the full
2n-dimensional coordinate curvature from central differences of the Koszul
Christoffel field (itself a complex step of the metric), so nothing in the
oracle path touches the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base_geometry import DomainError, ModelParams
from .complex_structure import adapted_j_matrix
from .connection import adapted_connection_matrix, coefficients_closed_form, koszul_oracle
from .fd import CURVATURE_FD, TWICE_STACKED_FD, complex_step, field_jacobian, pointwise
from .frames import BundlePoint, PointGeometry, frame_transform, point_geometry
from .lifted_metric import (
    KAHLER,
    LiftProfile,
    LiftedMetricData,
    adapted_metric_matrix,
    assemble_full_metric,
    components_from_geometry,
    lifted_field,
    metric_field,
)
from .report import relative_spread


@dataclass(frozen=True)
class CurvatureBlocks:
    """Closed-form curvature families at one point (index layouts above)."""

    hhh: np.ndarray
    vvh: np.ndarray
    vhh: np.ndarray
    vhv: np.ndarray

    @property
    def n(self) -> int:
        return self.hhh.shape[-1]


def _blocks(
    params: ModelParams, geo: PointGeometry, data: LiftedMetricData, profile: LiftProfile
) -> CurvatureBlocks:
    if not profile.is_kahler:
        raise DomainError("closed-form curvature blocks require the integrable profile")
    n = geo.n
    c, A = params.curvature, params.lift_const
    t = data.t[..., None, None, None, None]
    g, ginv, p, pr = geo.base.g, geo.base.g_inv, geo.p, geo.p_raised
    G, H = data.G, data.H
    eye = np.eye(n)
    bound = 2.0 * c - A * A * t

    hhh = (
        (0.5 * A * A * t)
        * (np.einsum("hi,...jk->...hijk", eye, g) - np.einsum("hj,...ik->...hijk", eye, g))
        + (0.25 * A * A)
        * (
            np.einsum("...ik,...j,...h->...hijk", g, p, pr)
            - np.einsum("...jk,...i,...h->...hijk", g, p, pr)
        )
        - (0.25 * A * A)
        * (
            np.einsum("hi,...j,...k->...hijk", eye, p, p)
            - np.einsum("hj,...i,...k->...hijk", eye, p, p)
        )
    )

    vvh = (
        -(0.5 / t)
        * (np.einsum("ik,...jh->...ijhk", eye, ginv) - np.einsum("jk,...ih->...ijhk", eye, ginv))
        - (0.25 / (t * t))
        * (
            np.einsum("...ih,...j,...k->...ijhk", ginv, pr, p)
            - np.einsum("...jh,...i,...k->...ijhk", ginv, pr, p)
        )
        + (0.25 / (t * t))
        * (
            np.einsum("ik,...j,...h->...ijhk", eye, pr, pr)
            - np.einsum("jk,...i,...h->...ijhk", eye, pr, pr)
        )
    )

    vhh = (
        (0.5 * A) * np.einsum("ij,...hk->...ijkh", eye, G)
        + (bound / (4.0 * t))
        * (
            np.einsum("ik,...h,...j->...ijkh", eye, p, p)
            + np.einsum("ih,...k,...j->...ijkh", eye, p, p)
        )
        + (0.25 * A * A)
        * (
            np.einsum("...jh,...k,...i->...ijkh", g, p, pr)
            + np.einsum("...jk,...h,...i->...ijkh", g, p, pr)
        )
        - (0.5 * c / (t * t)) * np.einsum("...i,...j,...h,...k->...ijkh", pr, p, p, p)
    )

    vhv = (
        -(0.5 * A) * np.einsum("ij,...hk->...ikhj", eye, H)
        - (0.25 / (t * t))
        * (
            np.einsum("...ih,...k,...j->...ikhj", ginv, pr, p)
            + np.einsum("...ik,...h,...j->...ikhj", ginv, pr, p)
        )
        - (0.25 * A * A / (t * bound))
        * (
            np.einsum("hj,...k,...i->...ikhj", eye, pr, pr)
            + np.einsum("kj,...h,...i->...ikhj", eye, pr, pr)
        )
        + (0.5 * c / (t ** 3 * bound)) * np.einsum("...i,...h,...k,...j->...ikhj", pr, pr, pr, p)
    )
    return CurvatureBlocks(hhh=hhh, vvh=vvh, vhh=vhh, vhv=vhv)


def curvature_blocks_closed_form(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> CurvatureBlocks:
    geo = point_geometry(params, pt)
    data = components_from_geometry(params, geo, profile)
    return _blocks(params, geo, data, profile)


def assemble_adapted_curvature(blocks: CurvatureBlocks) -> np.ndarray:
    """Full adapted-frame tensor R[a, b, c, d]: output a of K(e_c, e_d) e_b."""
    n = blocks.n
    hhh, vvh, vhh, vhv = blocks.hhh, blocks.vvh, blocks.vhh, blocks.vhv
    R = np.zeros(hhh.shape[:-4] + (2 * n,) * 4, dtype=hhh.dtype)
    R[..., :n, :n, :n, :n] = np.einsum("...hijk->...hkij", hhh)
    R[..., n:, n:, :n, :n] = -np.einsum("...kijh->...hkij", hhh)
    R[..., :n, :n, n:, n:] = np.einsum("...ijhk->...hkij", vvh)
    R[..., n:, n:, n:, n:] = -np.einsum("...ijkh->...hkij", vvh)
    R[..., n:, :n, n:, :n] = np.einsum("...ijkh->...hkij", vhh)
    R[..., n:, :n, :n, n:] = -np.einsum("...ijkh->...hkji", vhh)
    R[..., :n, n:, n:, :n] = np.einsum("...ikhj->...hkij", vhv)
    R[..., :n, n:, :n, n:] = -np.einsum("...ikhj->...hkji", vhv)
    return R


def curvature_from_metric_field(
    metric_field_fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray
) -> np.ndarray:
    """Coordinate curvature of an arbitrary metric field.

    ``koszul_oracle`` is the Christoffel field: complex-step derivatives of
    the metric, exact to round-off and batch-generic.  Its derivative is one
    central-difference Jacobian (``CURVATURE_FD``), whose whole stencil of
    Koszul evaluations is one metric-field call, so the oracle makes two
    calls of ``metric_field_fn``: ``m`` complex points at ``z`` and
    ``m`` times the outer stencil.
    """

    def christoffel_field(zz: np.ndarray) -> np.ndarray:
        return koszul_oracle(metric_field_fn, zz)

    gamma = christoffel_field(z)
    dgamma = field_jacobian(christoffel_field, z, CURVATURE_FD).value
    return (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("acs,sdb->abcd", gamma, gamma)
        - np.einsum("ads,scb->abcd", gamma, gamma)
    )


def curvature_oracle_coordinates(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> np.ndarray:
    return curvature_from_metric_field(metric_field(params, profile), pt.z)


def curvature_oracle_adapted(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> np.ndarray:
    R = curvature_oracle_coordinates(params, pt, profile)
    geo = point_geometry(params, pt)
    return frame_transform(R, "uddd", geo.frame, "adapted")


_ZERO_SECTORS = (
    # (output, argument, dir1, dir2) with h = horizontal slice, v = vertical
    ("h", "h", "v", "h"),
    ("h", "h", "h", "v"),
    ("v", "v", "v", "h"),
    ("v", "v", "h", "v"),
    ("h", "v", "h", "h"),
    ("v", "h", "h", "h"),
    ("h", "v", "v", "v"),
    ("v", "h", "v", "v"),
)


def _sector(R: np.ndarray, pattern: tuple[str, str, str, str], n: int) -> np.ndarray:
    sl = {"h": slice(0, n), "v": slice(n, 2 * n)}
    return R[sl[pattern[0]], sl[pattern[1]], sl[pattern[2]], sl[pattern[3]]]


def sector_residuals(
    R_closed: np.ndarray, R_oracle: np.ndarray, n: int
) -> dict[str, float]:
    """Per-family max deviation between closed form and oracle (adapted frame).

    Families with two antisymmetry-related sectors report the worse of the
    two; ``structural_zero`` is the largest oracle entry over the eight
    sectors the closed form leaves empty.
    """

    sectors = {
        "hhh": [("h", "h", "h", "h")],
        "hhv": [("v", "v", "h", "h")],
        "vvh": [("h", "h", "v", "v")],
        "vvv": [("v", "v", "v", "v")],
        "vhh": [("v", "h", "v", "h"), ("v", "h", "h", "v")],
        "vhv": [("h", "v", "v", "h"), ("h", "v", "h", "v")],
    }
    out: dict[str, float] = {}
    for name, pats in sectors.items():
        out[name] = max(
            float(np.max(np.abs(_sector(R_closed, pat, n) - _sector(R_oracle, pat, n))))
            for pat in pats
        )
    out["structural_zero"] = max(
        float(np.max(np.abs(_sector(R_oracle, pat, n)))) for pat in _ZERO_SECTORS
    )
    return out


def direction_antisymmetry_residual(R: np.ndarray) -> float:
    return float(np.max(np.abs(R + np.einsum("abcd->abdc", R))))


def pair_skew_residual(R: np.ndarray, metric: np.ndarray) -> float:
    """Antisymmetry of the fully lowered tensor in (output, argument)."""
    lowered = np.einsum("ea,abcd->ebcd", metric, R)
    return float(np.max(np.abs(lowered + np.einsum("ebcd->becd", lowered))))


def j_invariance_residual(R: np.ndarray, metric: np.ndarray, J: np.ndarray) -> float:
    """Residual of <K(X,Y) J Z, J W> = <K(X,Y) Z, W> (any single frame)."""
    lhs = np.einsum("abcd,bz,ae,ew->wzcd", R, J, metric, J)
    rhs = np.einsum("azcd,aw->wzcd", R, metric)
    return float(np.max(np.abs(lhs - rhs)))


def ricci_tensor(R: np.ndarray) -> np.ndarray:
    return np.einsum("abad->db", R)


@dataclass(frozen=True)
class EinsteinResiduals:
    """Oracle-route Einstein certificate at one point."""

    identity: float
    mixed_block: float


def einstein_residuals(
    params: ModelParams,
    pt: BundlePoint,
    profile: LiftProfile = KAHLER,
    R_coord: np.ndarray | None = None,
) -> EinsteinResiduals:
    """Ricci of the oracle curvature against (A n / 2) times the metric.

    The curvature is produced entirely by finite differences, so a pass
    certifies the Einstein property independently of every closed form.
    Pass ``R_coord`` to reuse an already-computed oracle tensor.
    """

    geo = point_geometry(params, pt)
    if R_coord is None:
        R_coord = curvature_oracle_coordinates(params, pt, profile)
    ric = ricci_tensor(R_coord)
    S_coord = assemble_full_metric(params, pt, profile)
    factor = 0.5 * params.lift_const * params.dim
    identity = float(np.max(np.abs(ric - factor * S_coord)))
    ric_ad = frame_transform(ric, "dd", geo.frame, "adapted")
    n = geo.n
    mixed = max(
        float(np.max(np.abs(ric_ad[:n, n:]))), float(np.max(np.abs(ric_ad[n:, :n])))
    )
    return EinsteinResiduals(identity=identity, mixed_block=mixed)


def coordinate_curvature_closed_form(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> np.ndarray:
    geo = point_geometry(params, pt)
    data = components_from_geometry(params, geo, profile)
    R_ad = assemble_adapted_curvature(_blocks(params, geo, data, profile))
    return frame_transform(R_ad, "uddd", geo.frame, "coordinate")


def covariant_derivative_residual(
    params: ModelParams,
    pt: BundlePoint,
    profile: LiftProfile = KAHLER,
    route: str = "closed_form",
) -> float:
    """Max |nabla K|: local symmetry of the curvature.

    ``route="closed_form"`` takes one complex step of the analytic
    adapted-frame curvature field, contracts it with the frame vectors and
    adds the closed-form adapted connection W (``nabla_a e_b = W[c, a, b]
    e_c``), all in the adapted frame: near machine precision, and sound as
    a certificate because the differentiated field and the connection are
    themselves oracle-certified pointwise by the other checks.
    ``route="oracle"`` differentiates the coordinate oracle curvature field
    once more (point by point through ``fd.pointwise``) with Koszul-oracle
    Christoffels; its noise floor is the oracle's pointwise error divided by
    the outermost step, so it only resolves the identity away from the tube
    boundary and is provided for spot checks, not for the battery.
    """

    z = pt.z
    if route == "oracle":
        field = metric_field(params, profile)
        curv_field = pointwise(lambda zz: curvature_from_metric_field(field, zz))
        K = curv_field(z)
        dK = field_jacobian(curv_field, z, TWICE_STACKED_FD).value
        conn = koszul_oracle(field, z)
    elif route == "closed_form":
        geo = point_geometry(params, pt)
        conn = adapted_connection_matrix(coefficients_closed_form(params, pt, profile))
        curv_field = lifted_field(
            params, profile,
            lambda g2, d2: assemble_adapted_curvature(_blocks(params, g2, d2, profile)),
        )
        K, jac = complex_step(curv_field, z)
        dK = np.einsum("ka,kbcde->abcde", geo.frame.M, jac.value)  # along frame vector a
    else:
        raise ValueError(f"unknown covariant-derivative route {route!r}")
    # conn[upper, direction, slot] in either frame
    nabla = dK + np.einsum("als,sbcd->labcd", conn, K)
    nabla -= np.einsum("slb,ascd->labcd", conn, K)
    nabla -= np.einsum("slc,absd->labcd", conn, K)
    nabla -= np.einsum("sld,abcs->labcd", conn, K)
    return float(np.max(np.abs(nabla)))


def _parallel_rhs(name: str, T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Connection contractions matching the frame derivatives of family ``name``.

    ``C[h, l, s]`` holds the coefficients for derivatives along direction
    ``l``: base Christoffels for horizontal directions, the mixed-slot
    closed-form coefficients for vertical ones.  The result carries the
    direction axis ``l`` first.  Signs follow the variance of each block
    index.
    """

    if name == "hhh":  # upper h; lower i, j, k
        return (
            -np.einsum("hls,sijk->lhijk", C, T)
            + np.einsum("sli,hsjk->lhijk", C, T)
            + np.einsum("slj,hisk->lhijk", C, T)
            + np.einsum("slk,hijs->lhijk", C, T)
        )
    if name == "vvh":  # upper i, j, h; lower k
        return (
            np.einsum("slk,ijhs->lijhk", C, T)
            - np.einsum("ils,sjhk->lijhk", C, T)
            - np.einsum("jls,ishk->lijhk", C, T)
            - np.einsum("hls,ijsk->lijhk", C, T)
        )
    if name == "vhh":  # upper i; lower j, k, h
        return (
            -np.einsum("ils,sjkh->lijkh", C, T)
            + np.einsum("slj,iskh->lijkh", C, T)
            + np.einsum("slk,ijsh->lijkh", C, T)
            + np.einsum("slh,ijks->lijkh", C, T)
        )
    if name == "vhv":  # upper i, k, h; lower j
        return (
            np.einsum("slj,ikhs->likhj", C, T)
            - np.einsum("ils,skhj->likhj", C, T)
            - np.einsum("kls,ishj->likhj", C, T)
            - np.einsum("hls,iksj->likhj", C, T)
        )
    raise ValueError(f"unknown curvature family {name!r}")


def parallel_block_residuals(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile = KAHLER
) -> dict[str, float]:
    """Frame-derivative parallelism of each curvature family.

    Returns keys like ``parallel_hhh_horizontal``: the derivative of the
    block along every frame direction of the stated type must match the
    connection contractions of the block itself.  The frame derivatives
    contract one complex step of the stacked-blocks field with the frame
    vectors.
    """

    geo = point_geometry(params, pt)
    coeffs = coefficients_closed_form(params, pt, profile)
    n = geo.n
    families = ("hhh", "vvh", "vhh", "vhv")

    def stacked(g2: PointGeometry, d2: LiftedMetricData) -> np.ndarray:
        blocks = _blocks(params, g2, d2, profile)
        return np.stack([getattr(blocks, name) for name in families], axis=-5)

    T, jac = complex_step(lifted_field(params, profile, stacked), pt.z)
    lhs = np.einsum("ka,k...->a...", geo.frame.M, jac.value)  # [direction, family, ...]
    out = {}
    for kind, C, dirs in (("horizontal", geo.base.gamma, lhs[:n]), ("vertical", coeffs.mixed, lhs[n:])):
        for k, name in enumerate(families):
            rhs = _parallel_rhs(name, T[k], C)
            out[f"parallel_{name}_{kind}"] = float(np.max(np.abs(dirs[:, k] - rhs)))
    return out


def holomorphic_sectional_curvature(
    R_ad: np.ndarray, metric_ad: np.ndarray, J_ad: np.ndarray, X_ad: np.ndarray
) -> float:
    """<K(X, JX) JX, X> / <X, X>^2 for one adapted-frame direction."""
    jx = J_ad @ X_ad
    kv = np.einsum("abcd,b,c,d->a", R_ad, jx, X_ad, jx)
    num = float(kv @ metric_ad @ X_ad)
    norm_sq = float(X_ad @ metric_ad @ X_ad)
    if norm_sq <= 0.0:
        raise DomainError("holomorphic sectional curvature needs a nonzero direction")
    return num / (norm_sq * norm_sq)


@dataclass(frozen=True)
class HolomorphicSample:
    """Holomorphic sectional curvatures of many directions at one point."""

    values: np.ndarray
    scale_invariance: float

    @property
    def spread(self) -> float:
        return relative_spread(float(np.min(self.values)), float(np.max(self.values)))


def holomorphic_sample(
    params: ModelParams,
    pt: BundlePoint,
    directions: np.ndarray,
    profile: LiftProfile = KAHLER,
) -> HolomorphicSample:
    """Evaluate the sectional function on a batch of adapted directions.

    ``scale_invariance`` reports the worst |H(X) - H(2X)| over the batch,
    which must vanish because the defining ratio is degree zero in X.
    """

    geo = point_geometry(params, pt)
    data = components_from_geometry(params, geo, profile)
    R_ad = assemble_adapted_curvature(_blocks(params, geo, data, profile))
    S_ad = adapted_metric_matrix(data)
    J_ad = adapted_j_matrix(data)
    vals = np.empty(len(directions))
    worst_scale = 0.0
    for k, X in enumerate(np.asarray(directions, dtype=float)):
        vals[k] = holomorphic_sectional_curvature(R_ad, S_ad, J_ad, X)
        doubled = holomorphic_sectional_curvature(R_ad, S_ad, J_ad, 2.0 * X)
        worst_scale = max(worst_scale, abs(vals[k] - doubled))
    return HolomorphicSample(values=vals, scale_invariance=worst_scale)
