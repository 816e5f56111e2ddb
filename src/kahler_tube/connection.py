"""Levi-Civita connection of the lifted metric: closed forms and oracle.

The closed form is one array W[c, a, b] in the adapted frame, with
nabla_{e_a} e_b = W[c, a, b] e_c.  Splitting each index into horizontal
(first n) and vertical (last n) slots and reading [c, a, b] as [h, i, j],
the blocks are

    W[:n, :n, :n] = gamma[h, i, j]      nabla_horiz_i horiz_j, horizontal part
    W[n:, :n, :n] = hh_vert[h, i, j]    nabla_horiz_i horiz_j, vertical part
    W[n:, :n, n:] = -gamma[j, i, h]     nabla_horiz_i vert_j, vertical part
    W[:n, :n, n:] = mixed[h, j, i]      nabla_horiz_i vert_j, horizontal part
    W[:n, n:, :n] = mixed[h, i, j]      nabla_vert_i horiz_j
    W[n:, n:, n:] = vv_vert[i, j, h]    nabla_vert_i vert_j

and W[:n, n:, n:] = 0.  Here gamma holds the base Christoffel symbols,
vv_vert is symmetric in (i, j) and mixed[h, i, j] = -vv_vert[i, h, j].
hh_vert is not symmetric in (i, j): its antisymmetric part reproduces the
momentum-contracted base curvature, which is what torsion-freeness demands
given the horizontal frame brackets.

The independent oracle recomputes coordinate Christoffel symbols of the
full 2n-dimensional metric from complex-step derivatives of the metric
field (standard Koszul formula) and transforms them into the adapted frame
using the analytic derivatives of the change-of-basis matrix.  Torsion of
the closed form is checked against the frame structure functions, and
metric compatibility via a complex-step covariant derivative of the
coordinate metric.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .fd import complex_step
from .frames import PointGeometry, frame_derivative, frame_structure_functions
from .lifted_metric import KAHLER, LiftedMetricData, lifted_field


def coefficients_from_geometry(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    """Closed-form W[c, a, b] (blocks above) of the integrable lift at the point of ``geo``."""
    n = geo.n
    c, A, t = geo.params.curvature, geo.params.lift_const, data.t
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
    gamma = geo.base.gamma

    W = np.zeros((2 * n, 2 * n, 2 * n))
    W[:n, :n, :n] = gamma
    W[n:, :n, :n] = (
        (0.5 * (A * A * t - 2.0 * c))
        * (np.einsum("ij,h->hij", g, p) + np.einsum("ih,j->hij", g, p))
        + (0.5 * A * A * t) * np.einsum("hj,i->hij", g, p)
        + (0.5 * (3.0 * c - 2.0 * A * A * t) / t) * np.einsum("h,i,j->hij", p, p, p)
    )
    W[n:, :n, n:] = -np.einsum("jih->hij", gamma)
    W[:n, :n, n:] = np.einsum("hji->hij", mixed)
    W[:n, n:, :n] = mixed
    W[n:, n:, n:] = np.einsum("ijh->hij", vv_vert)
    return W


#: The Koszul oracle at a point or a stack: metric, partials dG[..., k, m, n], Christoffels [..., l, m, n].
KoszulJet = NamedTuple("KoszulJet", [("G", np.ndarray), ("dG", np.ndarray), ("christoffel", np.ndarray)])


def koszul_jet(metric_field_fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> KoszulJet:
    """Koszul jet of an arbitrary metric field at one point ``(m,)`` or a stack ``(..., m)``.

    One complex-step call of ``metric_field_fn`` gives the metric and its
    partials exact to round-off, so the oracle is independent of every
    closed form in the package.
    """
    G, jac = complex_step(metric_field_fn, z)
    return KoszulJet(G, jac.value, koszul_christoffel(G, jac.value))


def koszul_christoffel(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Christoffels [..., l, m, n] from G and dG[..., k, m, n]: first-kind symbols raised by one matmul."""
    m = G.shape[-1]
    first = np.swapaxes(dG, -3, -2) + np.moveaxis(dG, -3, -1) - dG  # d_m G_sn + d_n G_sm - d_s G_mn
    return 0.5 * (np.linalg.inv(G) @ first.reshape(first.shape[:-2] + (m * m,))).reshape(dG.shape)


def koszul_oracle(metric_field_fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    """The Christoffel field of ``koszul_jet``, batch-generic, so a stencil evaluates it in one call."""
    return koszul_jet(metric_field_fn, z).christoffel


def connection_to_adapted(christoffel: np.ndarray, geo: PointGeometry) -> np.ndarray:
    """Transform coordinate Christoffels into adapted-frame coefficients.

    Uses the non-tensorial rule with the analytic frame derivative dM:
    W[c, a, b] = Minv[c, nu] (M[mu, a] dM[mu, nu, b] + M[mu, a] M[lam, b]
    christoffel[nu, mu, lam]), contracted one index at a time.
    """

    fr = geo.frame
    Z = fr.dM + np.swapaxes(christoffel @ fr.M, 0, 1)  # [mu, nu, b]
    return np.tensordot(fr.Minv, np.tensordot(fr.M, Z, axes=([0], [0])), axes=([1], [1]))


def connection_to_coordinates(W: np.ndarray, geo: PointGeometry) -> np.ndarray:
    """Inverse of connection_to_adapted: coordinate Christoffels from W."""
    fr = geo.frame
    U = np.tensordot(fr.M, np.tensordot(W, fr.Minv, axes=([1], [0])), axes=([1], [0]))  # [nu, b, mu]
    return (np.swapaxes(U, 1, 2) - np.swapaxes(fr.dM, 0, 1)) @ fr.Minv


def covariant_derivative(conn: np.ndarray, T: np.ndarray, dT: np.ndarray, variance: str) -> np.ndarray:
    """nabla T[l, ...] from a tensor, its derivatives and a connection.

    ``conn[upper, direction, slot]`` and ``dT[direction, ...]`` (the
    derivative of ``T`` along each basis vector) are given in one frame,
    coordinate or adapted.  ``variance`` has one letter per index of ``T``:
    each upper slot ("u") adds sum_s conn[u, l, s] T[..s..] and each lower
    slot ("d") subtracts sum_s conn[s, l, i] T[..s..].
    """

    if len(variance) != T.ndim or not set(variance) <= {"u", "d"}:
        raise ValueError(f"variance {variance!r} does not describe a rank-{T.ndim} tensor")
    C = conn.transpose(1, 0, 2)  # [direction, upper, slot]
    nabla = np.array(dT, dtype=np.result_type(dT, C, T))
    for slot, kind in enumerate(variance):
        if kind == "u":
            nabla += np.moveaxis(np.tensordot(C, T, axes=([2], [slot])), 1, slot + 1)
        else:
            nabla -= np.moveaxis(np.tensordot(C, T, axes=([1], [slot])), 1, slot + 1)
    return nabla


def torsion_residual(W: np.ndarray, geo: PointGeometry) -> float:
    """Max |W[c,a,b] - W[c,b,a] - structure[c,a,b]|, algebraic in the inputs."""
    struct = frame_structure_functions(geo)
    tors = W - np.einsum("cab->cba", W) - struct
    return float(np.max(np.abs(tors)))


def metric_compatibility_residual(geo: PointGeometry, W: np.ndarray, jet: KoszulJet) -> float:
    """Max |coordinate covariant derivative of the lifted metric|.

    The metric and its derivative are the oracle's complex step ``jet`` of
    the analytic metric field; the connection is the closed-form adapted
    connection ``W`` in coordinates, so the residual certifies metric
    compatibility of the closed-form coefficients rather than an algebraic
    identity of the oracle.
    """

    christoffel = connection_to_coordinates(W, geo)
    return float(np.max(np.abs(covariant_derivative(christoffel, jet.G, jet.dG, "dd"))))


def verify_connection(
    geo: PointGeometry, W_closed: np.ndarray, jet: KoszulJet
) -> tuple[tuple[float, str], float, float]:
    """Compare the closed-form adapted connection against the Koszul oracle's ``jet`` at ``geo``.

    Returns ``((closed_vs_oracle, worst_label), nabla_g, torsion)``: the
    largest coefficient deviation with a label naming it, the metric
    compatibility residual and the torsion residual.
    """
    W_oracle = connection_to_adapted(jet.christoffel, geo)
    diff = np.abs(W_closed - W_oracle)
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    label = (
        f"coefficient [{worst[0]},{worst[1]},{worst[2]}]: "
        f"closed-form {W_closed[worst]:.17g} vs oracle {W_oracle[worst]:.17g}"
    )
    return (
        (float(diff[worst]), label),
        metric_compatibility_residual(geo, W_closed, jet),
        torsion_residual(W_closed, geo),
    )


def mtensor_parallel_residuals(geo: PointGeometry) -> tuple[float, float]:
    """Horizontal covariant constancy of the integrable lift's metric blocks.

    Checks that the frame derivative of G along horizontal directions is
    absorbed by base Christoffel contractions, and likewise for H with the
    opposite sign pattern.  The derivatives are one ``frame_derivative`` of
    the [G, H] field, read along the horizontal frame vectors.
    """

    n = geo.n
    blocks = lifted_field(geo.params, KAHLER, lambda g2, d2: np.stack([d2.G, d2.H], axis=-3))
    (G, H), dGH = frame_derivative(geo, blocks)
    gamma = geo.base.gamma  # the connection along the n horizontal frame vectors
    covG = covariant_derivative(gamma, G, dGH[:n, 0], "dd")
    covH = covariant_derivative(gamma, H, dGH[:n, 1], "uu")
    return float(np.max(np.abs(covG))), float(np.max(np.abs(covH)))
