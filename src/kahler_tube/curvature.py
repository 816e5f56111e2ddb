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

from functools import partial
from itertools import product
from typing import Callable

import numpy as np

from .base_geometry import DomainError
from .connection import KoszulJet, covariant_derivative, koszul_jet, koszul_oracle
from .fd import field_jacobian
from .frames import PointGeometry, frame_derivative, frame_transform
from .lifted_metric import KAHLER, LiftedMetricData, lifted_field, metric_field


#: Index variance of each curvature family (layouts in the module docstring), in stacking order.
_FAMILY_VARIANCE = {"hhh": "uddd", "vvh": "uuud", "vhh": "uddd", "vhv": "uuud"}


def curvature_blocks(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    """Closed-form curvature families of the integrable lift at the point(s) of ``geo``.

    Returns ``T[..., family, i, j, k, l]``, the families stacked in
    ``_FAMILY_VARIANCE`` order (hhh, vvh, vhh, vhv).
    """
    n = geo.n
    c, A = geo.params.curvature, geo.params.lift_const
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
    return np.stack([hhh, vvh, vhh, vhv], axis=-5)


def assemble_adapted_curvature(T: np.ndarray) -> np.ndarray:
    """Full adapted-frame tensor R[..., a, b, c, d]: output a of K(e_c, e_d) e_b.

    ``T[..., family, i, j, k, l]`` is the stack of ``curvature_blocks``; any
    leading axes, such as a frame direction of its derivative, carry through.
    """
    n = T.shape[-1]
    hhh, vvh, vhh, vhv = np.moveaxis(T, -5, 0)
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
) -> tuple[KoszulJet, np.ndarray]:
    """Koszul jet and coordinate curvature of an arbitrary metric field.

    ``koszul_oracle`` is the Christoffel field: complex-step derivatives of
    the metric, exact to round-off and batch-generic.  Its derivative is one
    central-difference Jacobian (``fd.field_jacobian``), whose whole stencil of
    Koszul evaluations is one metric-field call, so the oracle makes two
    calls of ``metric_field_fn``: ``m`` complex points at ``z`` and
    ``m`` times the outer stencil.  The Koszul jet at ``z`` comes back too.
    """

    jet = koszul_jet(metric_field_fn, z)
    gamma, dgamma = jet.christoffel, field_jacobian(partial(koszul_oracle, metric_field_fn), z).value
    return jet, (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("acs,sdb->abcd", gamma, gamma)
        - np.einsum("ads,scb->abcd", gamma, gamma)
    )


def curvature_oracle_coordinates(geo: PointGeometry) -> tuple[KoszulJet, np.ndarray]:
    """The oracle's Koszul jet and coordinate curvature of the integrable lift at ``geo``."""
    return curvature_from_metric_field(metric_field(geo.params), geo.z)


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

    # (output, argument, dir1, dir2) with h = horizontal slice, v = vertical
    sectors = {
        "hhh": [("h", "h", "h", "h")],
        "hhv": [("v", "v", "h", "h")],
        "vvh": [("h", "h", "v", "v")],
        "vvv": [("v", "v", "v", "v")],
        "vhh": [("v", "h", "v", "h"), ("v", "h", "h", "v")],
        "vhv": [("h", "v", "v", "h"), ("h", "v", "h", "v")],
    }
    family_sectors = {pat for pats in sectors.values() for pat in pats}
    zero_sectors = [pat for pat in product("hv", repeat=4) if pat not in family_sectors]
    out: dict[str, float] = {}
    for name, pats in sectors.items():
        out[name] = max(
            float(np.max(np.abs(_sector(R_closed, pat, n) - _sector(R_oracle, pat, n))))
            for pat in pats
        )
    out["structural_zero"] = max(
        float(np.max(np.abs(_sector(R_oracle, pat, n)))) for pat in zero_sectors
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
    m = R.shape[0]
    SJ_R = (metric @ J).T @ R.reshape(m, m**3)  # [w, (b, c, d)]
    lhs = np.moveaxis(np.tensordot(SJ_R.reshape(R.shape), J, axes=([1], [0])), 3, 1)
    rhs = (metric.T @ R.reshape(m, m**3)).reshape(R.shape)
    return float(np.max(np.abs(lhs - rhs)))


def ricci_tensor(R: np.ndarray) -> np.ndarray:
    return np.einsum("abad->db", R)


def einstein_residuals(
    geo: PointGeometry, S_coord: np.ndarray, R_coord: np.ndarray
) -> tuple[float, float]:
    """Ricci of the oracle curvature ``R_coord`` against (A n / 2) times the metric ``S_coord``.

    Returns ``(identity, mixed_block)``: max |Ric - (A n / 2) S| in
    coordinates and the largest horizontal-vertical entry of adapted Ric.
    The curvature is produced entirely by finite differences, so a pass
    certifies the Einstein property independently of every closed form.
    """

    ric = ricci_tensor(R_coord)
    factor = 0.5 * geo.params.lift_const * geo.n
    identity = float(np.max(np.abs(ric - factor * S_coord)))
    ric_ad = frame_transform(ric, "dd", geo.frame, "adapted")
    n = geo.n
    return identity, max(float(np.max(np.abs(ric_ad[:n, n:]))), float(np.max(np.abs(ric_ad[n:, :n]))))


def covariant_derivative_residual(W: np.ndarray, T: np.ndarray, dT: np.ndarray) -> float:
    """Max |nabla K|: local symmetry of the curvature.

    Assembles K and its frame derivatives from the stacked families ``T``
    and their frame derivatives ``dT`` (assembly is linear) and adds the
    closed-form adapted connection W (``nabla_a e_b = W[c, a, b] e_c``), all
    in the adapted frame: near machine precision, and sound as a certificate
    because the differentiated field and the connection are themselves
    oracle-certified pointwise by the other checks.
    """

    K = assemble_adapted_curvature(T)
    dK = assemble_adapted_curvature(dT)  # [direction, a, b, c, d]
    return float(np.max(np.abs(covariant_derivative(W, K, dK, "uddd"))))


def parallel_block_residuals(geo: PointGeometry, W: np.ndarray) -> dict[str, float]:
    """Frame-derivative parallelism of each curvature family and of K.

    Returns keys like ``parallel_hhh_horizontal``: the covariant derivative
    of the block along every frame direction of the stated type must vanish.
    The connection along horizontal directions is the base Christoffels, along
    vertical ones the mixed-slot closed-form coefficients ``W[:n, n:, :n]``;
    ``local_symmetry`` reads all of ``W``.  All nine read one
    ``frame_derivative`` of the stacked blocks.
    """

    n = geo.n
    blocks = lifted_field(geo.params, KAHLER, curvature_blocks)
    T, dT = frame_derivative(geo, blocks)  # dT[direction, family]
    out = {}
    for kind, C, dirs in (("horizontal", geo.base.gamma, dT[:n]), ("vertical", W[:n, n:, :n], dT[n:])):
        for k, (name, variance) in enumerate(_FAMILY_VARIANCE.items()):
            nabla = covariant_derivative(C, T[k], dirs[:, k], variance)
            out[f"parallel_{name}_{kind}"] = float(np.max(np.abs(nabla)))
    out["local_symmetry"] = covariant_derivative_residual(W, T, dT)
    return out


def holomorphic_sectional_curvature(
    R_ad: np.ndarray, metric_ad: np.ndarray, J_ad: np.ndarray, X_ad: np.ndarray
) -> np.ndarray:
    """<K(X, JX) JX, X> / <X, X>^2 for adapted-frame directions ``X_ad`` (..., m).

    Returns shape (...): one value for a single direction (m,).  With
    (S R)[e, b, c, d] = S[e, a] R[a, b, c, d], the numerator
    X_e X_c (JX)_b (JX)_d (S R)_ebcd is the quadratic form (X⊗X)ᵀ Q (X⊗X)
    of one m² × m² matrix Q[(e, c), (g, f)] = (S R)_ebcd J_bf J_dg, so a
    batch of directions costs one matmul.  Q is not symmetrised: X⊗X is
    symmetric, so the order of (g, f) does not change the form.
    """
    X = np.asarray(X_ad)
    m = X.shape[-1]
    norm_sq = np.einsum("...a,...a->...", X @ metric_ad, X)
    if np.any(norm_sq <= 0.0):
        raise DomainError("holomorphic sectional curvature needs a nonzero direction")
    SRJ = (metric_ad @ R_ad.reshape(m, m**3)).reshape(m**3, m) @ J_ad  # [(e, b, c), g]
    Q = SRJ.reshape(m, m, m, m).transpose(0, 2, 3, 1).reshape(m**3, m) @ J_ad  # [(e, c, g), f]
    Q = Q.reshape(m * m, m * m)
    XX = (X[..., :, None] * X[..., None, :]).reshape(X.shape[:-1] + (m * m,))
    num = np.einsum("...i,...i->...", XX @ Q, XX)
    return num / (norm_sq * norm_sq)


def holomorphic_sample(
    R_ad: np.ndarray, S_ad: np.ndarray, J_ad: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, float]:
    """Evaluate the sectional function on a batch of adapted directions.

    ``R_ad``, ``S_ad`` and ``J_ad`` are the closed-form curvature, metric and
    structure at one point, all in the adapted frame.  Returns
    ``(values, scale_invariance)``: one curvature per direction, and the worst |H(X) - H(2X)| over the batch, which must vanish because
    the defining ratio is degree zero in X.  The directions and their doubles
    are evaluated as one batch.
    """

    X = np.asarray(directions, dtype=float)
    both = holomorphic_sectional_curvature(R_ad, S_ad, J_ad, np.concatenate([X, 2.0 * X]))
    vals, doubled = both[: len(X)], both[len(X):]
    worst_scale = float(np.max(np.abs(vals - doubled), initial=0.0))
    return vals, worst_scale
