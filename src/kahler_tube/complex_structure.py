"""Almost complex structure, fundamental 2-form, and the Nijenhuis tensor.

In the adapted frame the structure maps the i-th horizontal vector to
G_ik d/dp_k and the i-th vertical vector to -H^ik times the k-th horizontal
vector, which squares to minus the identity because H is the inverse of G.
The fundamental form pairs the two distributions with constant
coefficients, so in bundle coordinates it is the canonical symplectic form
and its exterior derivative vanishes identically.

The Nijenhuis tensor has three component families (by horizontal/vertical
type of the two inputs).  Each is a contraction of a single core tensor

    core[k, i, j] = A t (v + A) (p_i g_jk - p_j g_ik) - p_h riem[h, k, i, j]

which vanishes identically exactly when A t (v + A) equals the base
curvature constant, i.e. for the integrable profile.  The complex-step
evaluator recomputes the tensor from the coordinate formula

    N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i)

for N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] (no factor 2), with
one complex-step Jacobian of the coordinate J field.  It reads only
evaluations of that field, so it is an oracle independent of the closed
forms.
"""

from __future__ import annotations

import numpy as np

from .fd import complex_step
from .frames import PointGeometry, frame_transform
from .lifted_metric import LiftProfile, LiftedMetricData, adapted_metric_matrix, lifted_field


def adapted_j_matrix(data: LiftedMetricData) -> np.ndarray:
    """The structure tensor as a 2n x 2n matrix in the adapted frame."""
    n = data.G.shape[-1]
    J = np.zeros(data.G.shape[:-2] + (2 * n, 2 * n), dtype=data.G.dtype)
    J[..., :n, n:] = -data.H
    J[..., n:, :n] = data.G
    return J


def fundamental_form(geo: PointGeometry, profile: LiftProfile) -> float:
    """Closedness residual of phi(X, Y) = S(X, JY), by complex step.

    In adapted components phi is ``S_ad @ J_ad``, which pairs the two
    distributions with +-identity (``fundamental_form_block_residual``); in
    coordinates it is the canonical form, so the exterior derivative of the
    coordinate coefficient field, the cyclic sum
    d_l phi_mn + d_m phi_nl + d_n phi_lm of its Jacobian, must vanish.
    """

    phi_field = lifted_field(
        geo.params, profile,
        lambda g2, d2: frame_transform(
            adapted_metric_matrix(d2) @ adapted_j_matrix(d2), "dd", g2.frame, to="coordinate"
        ),
    )
    dw = complex_step(phi_field, geo.z)[1].value  # [l, m, n] = d_l phi_mn
    dphi = dw + np.transpose(dw, (1, 2, 0)) + np.transpose(dw, (2, 0, 1))
    return float(np.max(np.abs(dphi)))


def fundamental_form_block_residual(phi_adapted: np.ndarray) -> float:
    """Deviation of the adapted-frame form from the canonical block pattern."""
    n = phi_adapted.shape[0] // 2
    expected = np.zeros_like(phi_adapted)
    expected[:n, n:] = -np.eye(n)
    expected[n:, :n] = np.eye(n)
    return float(np.max(np.abs(phi_adapted - expected)))


def nijenhuis_closed_form(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    """The three component families ``N[family, k, i, j]`` from the core-tensor contraction.

    Component k of N(e_i, e_j), the families stacked as (horiz_horiz,
    horiz_vert, vert_vert).  The output distribution differs per family:
    horiz_horiz and vert_vert produce vertical vectors, horiz_vert
    horizontal ones.
    """
    core = _nijenhuis_core(geo, data)
    H = data.H
    CH = core @ H.T  # [k, l, i] = core[k, l, r] H[i, r]
    return np.stack([core, np.tensordot(H, CH, axes=1), np.swapaxes(H @ CH, 1, 2)])


def _nijenhuis_core(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    A = geo.params.lift_const
    scale = A * data.t * (data.v + A)
    g, p = geo.base.g, geo.p
    return scale * (
        np.einsum("i,jk->kij", p, g) - np.einsum("j,ik->kij", p, g)
    ) - geo.riem_p


def nijenhuis_fd_full(geo: PointGeometry, profile: LiftProfile) -> tuple[np.ndarray, float]:
    """Recompute the Nijenhuis families from one complex step of the J field.

    With N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] (no factor 2),
    the coordinate components are

        N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i),

    so the oracle needs only evaluations of the coordinate J field.  The
    tensor is then expressed in the adapted frame and returned as the
    families ``N[family, k, i, j]`` of ``nijenhuis_closed_form``, with the
    largest component landing outside the expected output distribution
    (structurally zero in the closed forms).
    """

    n = geo.n
    jf = lifted_field(
        geo.params, profile,
        lambda g2, d2: frame_transform(adapted_j_matrix(d2), "ud", g2.frame, to="coordinate"),
    )
    J, jac = complex_step(jf, geo.z)
    dJ = jac.value  # [l, k, j] = d_l J^k_j
    a = np.einsum("li,lkj->kij", J, dJ) - np.einsum("kl,ilj->kij", J, dJ)
    N = frame_transform(a - np.swapaxes(a, 1, 2), "udd", geo.frame, to="adapted")  # [k, i, j]
    h, v = slice(None, n), slice(n, None)
    off = float(max(np.max(np.abs(N[h, h, h])), np.max(np.abs(N[v, h, v])), np.max(np.abs(N[h, v, v]))))
    return np.stack([N[v, h, h], N[h, h, v], N[v, v, v]]), off
