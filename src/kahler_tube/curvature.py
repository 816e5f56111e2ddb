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
oracle path touches the closed forms (the oracle boundary, stated in
``connection``).

The holomorphic sectional curvature reads the families directly, with no
assembled (2n)^4 tensor.  For an adapted direction X = (u, w) with
a = G u and b = H w (S = diag(G, H), J X = (-b, a)), the numerator is

    <K(X, JX) JX, X> = 2 hhh(a,u,b,b) - 2 vvh(w,a,a,b) + vhh(w,b,b,b)
                       + vhh(a,u,b,b) - vhv(w,a,a,b) - vhv(a,a,a,u),

each family taking its arguments in its stored index order above.  Every
term is even in u and in w, so the numerator is a quadratic form on the
n(n+1) pair products u_i u_j and w_i w_j (``holomorphic_form``).
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Collection

import numpy as np

from .base_geometry import DomainError
from .connection import KoszulJet, covariant_derivative, koszul_jet, koszul_oracle
from .fd import complex_points, field_jacobian, max_abs, tiles
from .frames import PointGeometry, frame_derivative, frame_transform
from .lifted_metric import LiftedMetricData, coordinate_metric, metric_field


#: Index variance of each curvature family (layouts in the module docstring), in stacking order.
_FAMILY_VARIANCE = {"hhh": "uddd", "vvh": "uuud", "vhh": "uddd", "vhv": "uuud"}

#: The adapted sectors of each family, slots (output, argument, dir1, dir2), h horizontal and v vertical,
#: then the eight the closed form leaves empty: those with an odd number of vertical slots.
_SECTORS = {"hhh": ["hhhh"], "hhv": ["vvhh"], "vvh": ["hhvv"], "vvv": ["vvvv"],
            "vhh": ["vhvh", "vhhv"], "vhv": ["hvvh", "hvhv"],
            "structural_zero": ["hhhv", "hhvh", "hvhh", "vhhh", "hvvv", "vhvv", "vvhv", "vvvh"]}


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[..., i, j, k, l] = a[..., i, j] b[..., k, l]`` by broadcasting."""
    return a[..., :, :, None, None] * b[..., None, None, :, :]


def _outer_sum(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``_outer(a1, b1) + _outer(a2, b2)``, the second added in place: one temporary."""
    X = _outer(a1, b1)
    X += _outer(a2, b2)
    return X


def curvature_blocks(
    geo: PointGeometry, data: LiftedMetricData, families: Collection[str] = _FAMILY_VARIANCE
) -> np.ndarray:
    """Closed-form curvature families of the integrable lift at the point(s) of ``geo``.

    Returns ``T[..., family, i, j, k, l]``, the named ``families`` stacked in
    the order given, by default all four in ``_FAMILY_VARIANCE`` order (hhh,
    vvh, vhh, vhv); a family's values do not depend on which others are
    built.  Every term is an outer product of two ``(..., n, n)`` factors,
    so each family is a few broadcast products of the shared outer products
    ``p p``, ``pr p`` and ``pr pr`` (``pr = g^-1 p``) with the metric
    blocks, then its antisymmetrised (hhh, vvh) or symmetrised (vhh, vhv)
    index pair.
    """
    n = geo.n
    c, A = geo.params.curvature, geo.params.lift_const
    t = data.t[..., None, None]
    g, ginv, p, pr = geo.base.g, geo.base.g_inv, geo.p, geo.p_raised
    eye = np.eye(n)
    bound = 2.0 * c - A * A * t
    pp = p[..., :, None] * p[..., None, :]
    rp = pr[..., :, None] * p[..., None, :]  # [i, k] = pr_i p_k
    rr = pr[..., :, None] * pr[..., None, :]
    T = np.empty(rr.shape[:-2] + (len(families),) + (n,) * 4, dtype=np.result_type(rr, g, data.G, t))
    for family, out in zip(families, np.moveaxis(T, -5, 0)):
        # hhh[h, i, j, k] = X - (X with i, j swapped), X = d_hi B_jk - (A^2/4) pr_h p_i g_jk
        if family == "hhh":
            X = _outer_sum(eye, (0.5 * A * A) * t * g - (0.25 * A * A) * pp, (-0.25 * A * A) * rp, g)
            np.subtract(X, np.swapaxes(X, -3, -2), out=out)
        # vvh[i, j, h, k] = X - (X with i, j swapped), X[i, k, j, h] = d_ik C_jh + pr_i p_k ginv_jh / 4t^2
        elif family == "vvh":
            C = (-0.5 / t) * ginv + (0.25 / (t * t)) * rr
            X = np.moveaxis(_outer_sum(eye, C, rp, (0.25 / (t * t)) * ginv), -3, -1)
            np.subtract(X, np.swapaxes(X, -4, -3), out=out)
        # vhh[i, j, k, h] = (A/2) d_ij G_hk + Y + (Y with k, h swapped),
        # Y[i, k, j, h] = d_ik F_jh + pr_i p_k E_jh
        elif family == "vhh":
            Y = _outer_sum(eye, (0.25 / t) * bound * pp, rp, (0.25 * A * A) * g - (0.25 * c / (t * t)) * pp)
            Y = np.swapaxes(Y, -3, -2)
            np.add(Y, np.swapaxes(Y, -2, -1), out=out)
            out += _outer(eye, (0.5 * A) * data.G)
        # vhv[i, k, h, j] = -(A/2) d_ij H_hk + Y + (Y with k, h swapped),
        # Y[i, h, k, j] = P_ih pr_k p_j + pr_i pr_h Q_kj
        else:
            P = (-0.25 / (t * t)) * ginv + (0.25 * c / (t ** 3 * bound)) * rr
            Y = _outer_sum(P, rp, rr, (-0.25 * A * A / (t * bound)) * eye)
            np.add(Y, np.swapaxes(Y, -3, -2), out=out)
            out -= (0.5 * A) * eye[:, None, None, :] * data.H[..., None, :, :, None]
    return T


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

    ``z`` is one point ``(m,)`` or a stack ``(..., m)``; the jet and the
    curvature ``(..., m, m, m, m)`` follow its batch axes, each point's
    values equal to the one-point call's.  The jet is ``koszul_jet`` of the
    field's values on ``fd.complex_points(z)``; ``koszul_oracle`` is the
    Christoffel field: complex-step derivatives of the metric, exact to
    round-off and batch-generic.  Its derivative is one central-difference
    Jacobian (``fd.field_jacobian``) whose stencil of Koszul evaluations,
    over every point of the stack, is one metric-field call per
    ``fd.tiles`` tile of whole (point, axis) items: a single call while the
    stack fits ``fd.WORKING_SET`` (the base chart of a verify tile, the
    lifted metric at one n = 3 point), more from the lifted n = 4 on.  So
    the oracle calls ``metric_field_fn`` on ``m`` complex points per point
    of ``z`` and then on ``m`` complex points per outer stencil point.  The
    Koszul jet at ``z`` comes back too.
    """
    jet = koszul_jet(metric_field_fn(complex_points(z)), np.ndim(z) - 1)
    return _koszul_curvature(jet, metric_field_fn, z)


def _koszul_curvature(
    jet: KoszulJet, metric_field_fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray
) -> tuple[KoszulJet, np.ndarray]:
    """``jet`` and the coordinate curvature from its Christoffels and their stencil derivative.

    ``point_bytes``, five float (m, m, m) arrays a stencil point, is a
    tile-size choice, not a measurement: an evaluation holds 6.4 to 6.7
    such arrays, but five keeps two axes a tile at n = 5, and eight (one
    axis a tile) made the n = 5 verify point 9% slower.
    """
    m = np.shape(z)[-1]
    field = partial(koszul_oracle, metric_field_fn)
    gamma, dgamma = jet.christoffel, field_jacobian(field, z, point_bytes=5 * 8 * m**3).value
    # GG[a, b, c, d] = sum_s gamma[a, c, s] gamma[s, d, b]: one (m^2, m) @ (m, m^2)
    # product per point, [a, c, d, b], with b moved into place; the second
    # product of the curvature is the same array with c and d swapped.
    batch = gamma.shape[:-3]
    GG = np.moveaxis(
        (gamma.reshape(batch + (m * m, m)) @ gamma.reshape(batch + (m, m * m))).reshape(batch + (m,) * 4), -1, -3
    )
    return jet, (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + GG
        - np.swapaxes(GG, -1, -2)
    )


def curvature_oracle_coordinates(
    geo: PointGeometry, step_geo: PointGeometry, step_data: LiftedMetricData
) -> tuple[KoszulJet, np.ndarray]:
    """The oracle's Koszul jet and coordinate curvature of the integrable lift at ``geo``.

    At a stack of points the jet and the curvature follow its batch axes.
    The jet at the point is ``koszul_jet`` of the coordinate metric on the
    point's step geometry (``frames.step_geometry``) and its Kähler blocks
    ``step_data``, the values ``metric_field(geo.params)`` takes on
    ``fd.complex_points(geo.z)``; the Christoffels' stencil derivative
    evaluates ``metric_field`` on the outer stencil.
    """
    jet = koszul_jet(coordinate_metric(step_geo, step_data), geo.t.ndim)
    return _koszul_curvature(jet, metric_field(geo.params), geo.z)


def _sectors_max(R: np.ndarray, patterns: list[str], n: int) -> float | np.ndarray:
    """Largest |entry| per point over the adapted sectors ``patterns`` of R (h: first n slots, v: last n)."""
    halves = {"h": slice(0, n), "v": slice(n, None)}
    return np.maximum.reduce([max_abs(R[(..., *map(halves.get, pat))], R.ndim - 4) for pat in patterns])


def sector_residuals(
    R_closed: np.ndarray, R_oracle: np.ndarray, n: int
) -> dict[str, float | np.ndarray]:
    """Per-family max deviation between closed form and oracle (adapted frame), per point.

    A family with two antisymmetry-related sectors reports the worse of the
    two; ``structural_zero`` is the worst over the eight sectors the closed
    form leaves empty, where it is zero: the largest oracle entry there.
    """

    diff = R_closed - R_oracle
    return {name: _sectors_max(diff, patterns, n) for name, patterns in _SECTORS.items()}


def direction_antisymmetry_residual(R: np.ndarray) -> float | np.ndarray:
    return max_abs(R + np.swapaxes(R, -2, -1), R.ndim - 4)


def pair_skew_residual(R: np.ndarray, metric: np.ndarray) -> float | np.ndarray:
    """Antisymmetry of the fully lowered tensor in (output, argument), per point."""
    m = R.shape[-1]
    lowered = (metric @ R.reshape(R.shape[:-4] + (m, m**3))).reshape(R.shape)
    return max_abs(lowered + np.swapaxes(lowered, -4, -3), R.ndim - 4)


def j_invariance_residual(R: np.ndarray, metric: np.ndarray, J: np.ndarray) -> float | np.ndarray:
    """Residual of <K(X,Y) J Z, J W> = <K(X,Y) Z, W> (any single frame), per point."""
    m = R.shape[-1]
    flat = R.reshape(R.shape[:-4] + (m, m**3))
    SJ_R = (np.swapaxes(metric @ J, -1, -2) @ flat).reshape(R.shape)  # [w, b, c, d]
    lhs = np.moveaxis(np.moveaxis(SJ_R, -3, -1) @ J[..., None, None, :, :], -1, -3)
    rhs = (np.swapaxes(metric, -1, -2) @ flat).reshape(R.shape)
    return max_abs(lhs - rhs, R.ndim - 4)


def ricci_tensor(R: np.ndarray) -> np.ndarray:
    return np.einsum("...abad->...db", R)


def einstein_residuals(
    geo: PointGeometry, S_coord: np.ndarray, R_coord: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Ricci of the oracle curvature ``R_coord`` against (A n / 2) times the metric ``S_coord``.

    Returns ``(identity, mixed_block)``, each per point: max |Ric - (A n / 2) S|
    in coordinates and the largest horizontal-vertical entry of adapted Ric.
    The curvature is produced entirely by finite differences, so a pass
    certifies the Einstein property independently of every closed form.
    """

    n, batch = geo.n, geo.t.ndim
    ric = ricci_tensor(R_coord)
    factor = 0.5 * geo.params.lift_const * n
    identity = max_abs(ric - factor * S_coord, batch)
    ric_ad = frame_transform(ric, "dd", geo, "adapted")
    return identity, np.maximum(max_abs(ric_ad[..., :n, n:], batch), max_abs(ric_ad[..., n:, :n], batch))


def covariant_derivative_residual(W: np.ndarray, K: np.ndarray) -> float | np.ndarray:
    """Max |nabla K| per point over the sectors with an odd number of vertical slots.

    ``K`` is the assembled adapted curvature and ``W`` the closed-form
    adapted connection (``nabla_a e_b = W[c, a, b] e_c``).  K and its frame
    derivative vanish on the odd sectors, so there nabla K is only W's
    off-diagonal blocks acting on K: along a horizontal direction l,
    ``W[:n, l, n:]`` turns a vertical slot horizontal and ``W[n:, l, :n]``
    a horizontal one vertical.  Along a vertical direction the two blocks,
    ``W[:n, n:, n:]`` and ``W[n:, n:, :n]``, are structural zeros, so those
    directions add nothing.  Each of the four slots is one product of half
    size: the two blocks, transposed for a lower slot, with the opposite
    half of K in that slot.  The even sectors are the families' own
    covariant derivatives, the parallel rows of ``parallel_block_residuals``.
    The work is taken over ``fd.tiles`` of (point, horizontal direction)
    items, each sized at three (2n)^4 arrays: its rows of nabla K, one
    slot's product, and room for its point's two slot-swapped copies of K.
    """

    if K.ndim == 4:  # one point
        return covariant_derivative_residual(W[None], K[None])[0]
    n = K.shape[-1] // 2
    m = 2 * n
    rows = m**3
    # [point, direction, output half, row, column]: a lower slot reads the blocks reversed, from the right
    blocks = np.moveaxis(np.stack([W[:, :n, :n, n:], W[:, n:, :n, :n]], axis=1), 3, 1)
    item = 3 * K.itemsize * m**4
    worst = np.empty((len(K), n))
    for points in tiles(len(K), n * item):
        P, Kp = points.stop - points.start, K[points]
        # K with the halves of one slot swapped: slot 0 as rows, slots 1 and 2 copied to rows, slot 3 as columns
        first = Kp.reshape(P, 1, 2, n, rows)[:, :, ::-1]
        moved = [np.swapaxes(Kp, 1, slot) for slot in (2, 3)]
        middle = [np.concatenate([X[:, n:], X[:, :n]], axis=1).reshape(P, 1, 2, n, rows) for X in moved]
        last = np.swapaxes(Kp.reshape(P, 1, rows, 2, n), 2, 3)[:, :, ::-1]
        for directions in tiles(n, P * item):
            D = directions.stop - directions.start
            right = blocks[points, directions, ::-1]
            nabla, product = np.empty((P, D) + (m,) * 4), np.empty((P, D) + (m,) * 4)
            np.matmul(blocks[points, directions], first, out=nabla.reshape(P, D, 2, n, rows))
            for slot, X in enumerate(middle, 1):
                np.matmul(np.swapaxes(right, -1, -2), X, out=product.reshape(P, D, 2, n, rows))
                nabla -= np.swapaxes(product, 2, 2 + slot)
            np.matmul(last, right, out=np.swapaxes(product.reshape(P, D, rows, 2, n), 2, 3))
            nabla -= product
            worst[points, directions] = np.abs(nabla, out=nabla).reshape(P, D, -1).max(axis=-1)
            del nabla, product  # before the next tile's pair is allocated
    return np.max(worst, axis=-1)  # a NaN in any tile reaches its point


def parallel_block_residuals(
    geo: PointGeometry, W: np.ndarray, step_geo: PointGeometry, step_data: LiftedMetricData
) -> tuple[np.ndarray, np.ndarray, dict[str, float | np.ndarray]]:
    """The closed families at the point(s) of ``geo``, their assembly K and the rows of nabla K, per point.

    One family at a time, ``curvature_blocks`` builds it on the step
    geometry ``step_geo`` with its blocks ``step_data``; its
    ``frame_derivative`` gives its value, kept in ``T``, and its frame
    derivatives, along which its covariant derivative must vanish: the rows
    like ``parallel_hhh_horizontal``, along every frame direction of the
    stated type.  The connection along horizontal directions is the base
    Christoffels (``W[:n, :n, :n]`` copies them, ``W[n:, :n, n:]`` is minus
    their transpose), along vertical ones ``W[:n, n:, :n]`` (``W[n:, n:, n:]``
    is its dual): one ``covariant_derivative`` call a family, in its
    variance, with the two connections on one batch axis after those of the
    points.  A family's complex values, Jacobian and derivatives are dropped
    before the next one is built.  The eight rows are nabla K on its even
    sectors; ``local_symmetry`` is the per-point maximum, NaN first, of the
    eight and of the odd sectors (``covariant_derivative_residual`` on the
    assembly ``K`` of ``T``); ``connection_match`` covers the W blocks that
    neither part reads.  Returns ``(T, K, rows)``.
    """

    n = geo.n
    conn = np.stack([geo.base.gamma, W[..., :n, n:, :n]], axis=-4)  # [kind, upper, direction, slot]
    T = np.empty(geo.t.shape + (4,) + (n,) * 4)
    out = {}
    # each family is a view of T that keeps its family axis, of length one, to broadcast over the kinds
    for (name, variance), family in zip(_FAMILY_VARIANCE.items(), np.split(T, 4, axis=-5)):
        family[...], dT = frame_derivative(geo, curvature_blocks(step_geo, step_data, (name,)))
        dT = dT.reshape(dT.shape[:-6] + (2, n) + dT.shape[-4:])  # [kind, direction, i, j, k, l]
        worst = max_abs(covariant_derivative(conn, family, dT, variance), dT.ndim - 5)
        del dT  # before the next family's step values are built
        out[f"parallel_{name}_horizontal"], out[f"parallel_{name}_vertical"] = np.moveaxis(worst, -1, 0)
    K = assemble_adapted_curvature(T)
    return T, K, {"local_symmetry": np.maximum.reduce([covariant_derivative_residual(W, K), *out.values()]), **out}


@cache
def index_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, F)`` for the s = m(m+1)/2 pairs ``i <= j`` of ``np.triu_indices(m)``; cached, read-only.

    F is the ``(m², s)`` 0/1 fold: column k holds a 1 in rows ``(i_k, j_k)``
    and ``(j_k, i_k)``, so every row holds one 1, and for symmetric ``X⊗X``
    ``(X⊗X)ᵀ Q (X⊗X) = Pᵀ (Fᵀ Q F) P`` with ``P = pair_products(X)``.
    """
    i, j = np.triu_indices(m)
    k = np.arange(len(i))
    F = np.zeros((m * m, len(i)))
    F[i * m + j, k] = 1.0
    F[j * m + i, k] = 1.0
    for array in (i, j, F):
        array.flags.writeable = False
    return i, j, F


def pair_products(X: np.ndarray) -> np.ndarray:
    """``X_i X_j`` over the ``index_pairs`` ``i <= j``: shape (..., m(m+1)/2)."""
    i, j, _ = index_pairs(X.shape[-1])
    return X[..., i] * X[..., j]


def direction_monomials(X: np.ndarray) -> np.ndarray:
    """``q ⊗ q`` as a (K², D) array, for directions ``X = (u, w)`` as rows (D, 2n).

    ``q = (u_i u_j, w_i w_j)``, i <= j, holds the K = n(n+1) pair products
    of each half.
    """
    n = X.shape[-1] // 2
    q = np.concatenate([pair_products(X[:, :n]), pair_products(X[:, n:])], axis=-1).T  # (K, D)
    return (q[:, None, :] * q[None, :, :]).reshape(-1, len(X))


#: Per slot (rows) and numerator term (columns), the matrix contracted into
#: it: G, H, I, -H or -I (0 to 4); the minus signs are those of the terms.
_SLOT_MATRICES = np.array([[0, 0, 2, 0], [2, 0, 1, 0], [1, 2, 1, 0], [1, 3, 1, 4]])


def _contracted_terms(T: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The numerator's four terms, contracted: [..., term, right pair, left pair].

    The module docstring's six terms are four families with their slots in
    (left pair | right pair) order: 2 hhh + vhh as (a, u | b, b),
    2 vvh + vhv as (a, a | w, b), vhh as (w, b | b, b) and vhv as
    (a, a | a, u).  ``blocks`` stacks G, H, I, -H, -I on axis -3.  The
    slot matrices are symmetric: slot 3 is contracted from the right, slot
    0 from the left, then the pairs swap and slots 1 and 2 follow, in two
    buffers the size of ``T``.
    """
    n = T.shape[-1]
    lead = T.shape[:-5]
    hhh, vvh, vhh, vhv = (T[..., k, :, :, :, :] for k in range(4))
    terms = np.empty_like(T)
    np.multiply(hhh, 2.0, out=terms[..., 0, :, :, :, :])
    terms[..., 0, :, :, :, :] += vhh
    wab = terms[..., 1, :, :, :, :].swapaxes(-2, -3).swapaxes(-3, -4)  # the (a, a | w, b) term as [i, j, h, k]
    np.multiply(vvh, 2.0, out=wab)
    wab += vhv
    terms[..., 2:, :, :, :, :] = T[..., 2:, :, :, :, :]
    slot = blocks[..., _SLOT_MATRICES, :, :]  # [..., slot, term, n, n]
    rows, cols, square = lead + (4, n**3, n), lead + (4, n, n**3), lead + (4, n * n, n * n)
    Y = terms.reshape(rows) @ slot[..., 3, :, :, :]
    np.matmul(slot[..., 0, :, :, :], Y.reshape(cols), out=terms.reshape(cols))
    np.copyto(Y.reshape(square), terms.reshape(square).swapaxes(-1, -2))
    np.matmul(Y.reshape(rows), slot[..., 1, :, :, :], out=terms.reshape(rows))
    np.matmul(slot[..., 2, :, :, :], terms.reshape(cols), out=Y.reshape(cols))
    return Y.reshape(square)


def holomorphic_form(T: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Numerator and squared norm of the holomorphic sectional curvature, on ``direction_monomials``.

    ``T``, ``G`` and ``H`` are the families and metric blocks at one point
    or a stack.  Returns (..., 2, K²): the K × K matrices Q with
    <K(X, JX) JX, X> = qᵀ Q q and <X, X>² = (u G u + w H w)² = qᵀ Q q,
    flattened.  The fold F of ``index_pairs(n)`` puts each contracted term
    on the unordered index pairs: one block of Q.
    """
    n = G.shape[-1]
    lead = G.shape[:-2]
    blocks = np.empty(lead + (5, n, n), dtype=np.result_type(G, H))  # G, H, I, -H, -I
    blocks[..., 0, :, :] = G
    blocks[..., 1, :, :] = H
    blocks[..., 2, :, :] = np.eye(n)
    np.negative(blocks[..., 1:3, :, :], out=blocks[..., 3:, :, :])
    F = index_pairs(n)[2]
    s = F.shape[1]
    Y = (_contracted_terms(T, blocks).reshape(-1, n * n) @ F).reshape(lead + (4, n * n, s))
    folded = (Y.swapaxes(-1, -2).reshape(-1, n * n) @ F).reshape(lead + (4, s, s))  # [term, left, right]
    forms = np.zeros(lead + (2, 2 * s, 2 * s), dtype=folded.dtype)
    forms[..., 0, :s, :s] = folded[..., 3, :, :]
    np.add(folded[..., 0, :, :], folded[..., 1, :, :], out=forms[..., 0, :s, s:])
    forms[..., 0, s:, s:] = folded[..., 2, :, :]
    norm = (blocks[..., :2, :, :].reshape(-1, n * n) @ F).reshape(lead + (2 * s,))  # <X, X> on q
    np.multiply(norm[..., :, None], norm[..., None, :], out=forms[..., 1, :, :])
    return forms.reshape(lead + (2, 4 * s * s))


def _quotient(form: np.ndarray, monomials: np.ndarray) -> np.ndarray:
    """Numerator over squared norm: (..., D).

    Each point's ``(2, K²) @ (K², D)`` product is its own matmul item, so a
    point's values do not depend on the stack it sits in.
    """
    both = form @ monomials  # (..., 2, D)
    num, norm_sq_sq = both[..., 0, :], both[..., 1, :]
    if np.any(norm_sq_sq <= 0.0):
        raise DomainError("holomorphic sectional curvature needs a nonzero direction")
    return num / norm_sq_sq


def holomorphic_sectional_curvature(
    T: np.ndarray, G: np.ndarray, H: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """<K(X, JX) JX, X> / <X, X>² for adapted-frame directions (rows of ``directions``).

    ``T``, ``G`` and ``H`` are the curvature families and metric blocks at
    one point or a stack of points; the result is (..., D).
    """
    return _quotient(holomorphic_form(T, G, H), direction_monomials(np.asarray(directions, dtype=float)))


def holomorphic_sample(
    T: np.ndarray, G: np.ndarray, H: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The curvatures (..., D) and, per point, the worst |H(X) - H(2X)|.

    The scale invariance must vanish because the ratio is degree zero in
    X.  The form is built once; X and 2X are two products of one shape.
    """
    X = np.asarray(directions, dtype=float)
    form = holomorphic_form(T, G, H)
    vals, doubled = (_quotient(form, direction_monomials(Y)) for Y in (X, 2.0 * X))
    return vals, np.max(np.abs(vals - doubled), axis=-1, initial=0.0)
