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

from .fd import complex_jacobian, max_abs
from .frames import PointGeometry, frame_transform
from .lifted_metric import LiftedMetricData, adapted_metric_matrix


def adapted_j_matrix(data: LiftedMetricData) -> np.ndarray:
    """The structure tensor as a 2n x 2n matrix in the adapted frame."""
    n = data.G.shape[-1]
    J = np.zeros(data.G.shape[:-2] + (2 * n, 2 * n), dtype=data.G.dtype)
    J[..., :n, n:] = -data.H
    J[..., n:, :n] = data.G
    return J


def fundamental_form(step_geo: PointGeometry, step_data: LiftedMetricData) -> float | np.ndarray:
    """Closedness residual of phi(X, Y) = S(X, JY), by complex step.

    In adapted components phi is ``S_ad @ J_ad``, which pairs the two
    distributions with +-identity (``fundamental_form_block_residual``); in
    coordinates it is the canonical form, so the exterior derivative of the
    coordinate coefficient field, the cyclic sum
    d_l phi_mn + d_m phi_nl + d_n phi_lm of its Jacobian, must vanish.  The
    coefficients are evaluated on the point's step geometry
    (``frames.step_geometry``) and its lifted blocks ``step_data``, of one
    point or a stack; the residual is one per point.
    """

    batch = step_data.t.ndim - 1
    phi_adapted = adapted_metric_matrix(step_data) @ adapted_j_matrix(step_data)
    phi = frame_transform(phi_adapted, "dd", step_geo, to="coordinate")
    dw = complex_jacobian(phi, batch)[1].value  # [l, m, n] = d_l phi_mn
    dphi = dw + np.moveaxis(dw, -3, -1) + np.moveaxis(dw, -1, -3)
    return max_abs(dphi, batch)


def fundamental_form_block_residual(phi_adapted: np.ndarray) -> float | np.ndarray:
    """Deviation of the adapted-frame form from the canonical block pattern, per point."""
    n = phi_adapted.shape[-1] // 2
    expected = np.zeros(phi_adapted.shape[-2:])
    expected[:n, n:] = -np.eye(n)
    expected[n:, :n] = np.eye(n)
    return max_abs(phi_adapted - expected, phi_adapted.ndim - 2)


def nijenhuis_closed_form(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    """The three component families ``N[family, k, i, j]`` from the core-tensor contraction.

    Component k of N(e_i, e_j), the families stacked as (horiz_horiz,
    horiz_vert, vert_vert).  The output distribution differs per family:
    horiz_horiz and vert_vert produce vertical vectors, horiz_vert
    horizontal ones.  At a stack of points the families follow the batch
    axes: ``N[..., family, k, i, j]``.
    """
    core = _nijenhuis_core(geo, data)
    H = data.H
    n = H.shape[-1]
    CH = core @ np.swapaxes(H, -1, -2)[..., None, :, :]  # [k, l, i] = core[k, l, r] H[i, r]
    HCH = (H @ CH.reshape(CH.shape[:-3] + (n, n * n))).reshape(CH.shape)  # [i, l, i'] = H[i, k] CH[k, l, i']
    return np.stack([core, HCH, np.swapaxes(H[..., None, :, :] @ CH, -1, -2)], axis=-4)


def _nijenhuis_core(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    A = geo.params.lift_const
    scale = (A * data.t * (data.v + A))[..., None, None, None]
    g, p = geo.base.g, geo.p
    return scale * (
        np.einsum("...i,...jk->...kij", p, g) - np.einsum("...j,...ik->...kij", p, g)
    ) - geo.riem_p


def nijenhuis_fd_full(
    geo: PointGeometry, step_geo: PointGeometry, step_data: LiftedMetricData
) -> tuple[np.ndarray, float | np.ndarray]:
    """Recompute the Nijenhuis families from one complex step of the J field.

    With N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] (no factor 2),
    the coordinate components are

        N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i),

    so the oracle needs only the coordinate J field, evaluated on the step
    geometry of ``geo`` (``frames.step_geometry``) with its lifted blocks
    ``step_data``.  The tensor is then expressed in the adapted frame and
    returned as the families ``N[family, k, i, j]`` of
    ``nijenhuis_closed_form``, with the largest component landing outside
    the expected output distribution (structurally zero in the closed forms).
    At a stack of points both follow the batch axes, one largest component
    per point.
    """

    n, batch = geo.n, geo.t.ndim
    J_coord = frame_transform(adapted_j_matrix(step_data), "ud", step_geo, to="coordinate")
    J, jac = complex_jacobian(J_coord, batch)
    dJ = jac.value  # [l, k, j] = d_l J^k_j
    a = np.einsum("...li,...lkj->...kij", J, dJ) - np.einsum("...kl,...ilj->...kij", J, dJ)
    N = frame_transform(a - np.swapaxes(a, -2, -1), "udd", geo, to="adapted")  # [k, i, j]
    h, v = slice(None, n), slice(n, None)
    off = max_abs(np.stack([N[..., h, h, h], N[..., v, h, v], N[..., h, v, v]], axis=-4), batch)
    return np.stack([N[..., v, h, h], N[..., h, h, v], N[..., v, v, v]], axis=-4), off
