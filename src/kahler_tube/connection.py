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
(standard Koszul formula) and transforms them into the adapted frame
using the analytic derivatives of the change-of-basis matrix.  Torsion of
the closed form is checked against the frame structure functions, and
metric compatibility via a complex-step covariant derivative of the
coordinate metric.  ``koszul_jet`` builds the oracle's jet from a metric's
values on ``fd.complex_points``, whichever route evaluated them.

Oracle boundary.  The oracles (``koszul_jet`` and ``koszul_oracle``, the
curvature oracles, ``complex_structure.nijenhuis_fd_full`` and the two
``metric_field``s) read only the object's own definition: the base metric,
``momentum_gamma``, the lifted blocks, ``coordinate_metric``, the frame
matrices and ``adapted_j_matrix``.  No chain of calls or attribute reads
from them reaches a closed form under certification, such as
``curvature_blocks`` or the base Christoffels: ``tests/test_oracle_boundary.py``
checks this on the source and lists both sides.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .fd import complex_jacobian, complex_points, max_abs
from .frames import PointGeometry, frame_derivative, frame_structure_functions
from .lifted_metric import LiftedMetricData


def coefficients_from_geometry(geo: PointGeometry, data: LiftedMetricData) -> np.ndarray:
    """Closed-form W[..., c, a, b] (blocks above) of the integrable lift at the point(s) of ``geo``."""
    n = geo.n
    c, A, t = geo.params.curvature, geo.params.lift_const, data.t[..., None, None, None]
    g, ginv, p, pr = geo.base.g, geo.base.g_inv, geo.p, geo.p_raised
    eye = np.eye(n)
    bound = 2.0 * c - A * A * t

    inner = ginv + (c / (t * bound))[..., 0] * (pr[..., :, None] * pr[..., None, :])
    vv_vert = (0.5 / t) * (
        np.einsum("...ij,...h->...ijh", inner, p)
        - np.einsum("ih,...j->...ijh", eye, pr)
        - np.einsum("jh,...i->...ijh", eye, pr)
    )
    mixed = -np.einsum("...ihj->...hij", vv_vert)
    gamma = geo.base.gamma

    W = np.zeros(data.t.shape + (2 * n,) * 3)
    W[..., :n, :n, :n] = gamma
    W[..., n:, :n, :n] = (
        (0.5 * (A * A * t - 2.0 * c))
        * (np.einsum("...ij,...h->...hij", g, p) + np.einsum("...ih,...j->...hij", g, p))
        + (0.5 * A * A * t) * np.einsum("...hj,...i->...hij", g, p)
        + (0.5 * (3.0 * c - 2.0 * A * A * t) / t)
        * (p[..., :, None, None] * p[..., None, :, None] * p[..., None, None, :])
    )
    W[..., n:, :n, n:] = -np.einsum("...jih->...hij", gamma)
    W[..., :n, :n, n:] = np.einsum("...hji->...hij", mixed)
    W[..., :n, n:, :n] = mixed
    W[..., n:, n:, n:] = np.einsum("...ijh->...hij", vv_vert)
    return W


#: The Koszul oracle at a point or a stack: metric, partials dG[..., k, m, n], Christoffels [..., l, m, n].
KoszulJet = NamedTuple("KoszulJet", [("G", np.ndarray), ("dG", np.ndarray), ("christoffel", np.ndarray)])


def koszul_jet(values: np.ndarray, batch_ndim: int) -> KoszulJet:
    """Koszul jet from a metric's values on ``fd.complex_points(z)``, ``z`` one point or a stack.

    ``batch_ndim`` is the number of batch axes of ``z``.  One complex step
    gives the metric and its partials exact to round-off, so the jet reads
    only the metric's values and is independent of every closed form in
    the package.
    """
    G, jac = complex_jacobian(values, batch_ndim)
    return KoszulJet(G, jac.value, koszul_christoffel(G, jac.value))


def koszul_christoffel(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Christoffels [..., l, m, n] from G and dG[..., k, m, n]: first-kind symbols raised by one matmul."""
    m = G.shape[-1]
    first = np.swapaxes(dG, -3, -2) + np.moveaxis(dG, -3, -1) - dG  # d_m G_sn + d_n G_sm - d_s G_mn
    return 0.5 * (np.linalg.inv(G) @ first.reshape(first.shape[:-2] + (m * m,))).reshape(dG.shape)


def koszul_oracle(metric_field_fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
    """Christoffels of a metric field at ``z``: ``koszul_jet`` of one call on ``fd.complex_points(z)``.

    Batch-generic, so a stencil evaluates it in one call.
    """
    return koszul_jet(metric_field_fn(complex_points(z)), np.ndim(z) - 1).christoffel


def connection_to_adapted(christoffel: np.ndarray, geo: PointGeometry) -> np.ndarray:
    """Transform coordinate Christoffels into adapted-frame coefficients, at a point or a stack.

    Uses the non-tensorial rule with the analytic frame derivative dM:
    W[c, a, b] = Minv[c, nu] (M[mu, a] dM[mu, nu, b] + M[mu, a] M[lam, b]
    christoffel[nu, mu, lam]), contracted one index at a time.
    """

    m = christoffel.shape[-1]
    flat = christoffel.shape[:-3] + (m, m * m)
    Z = geo.dM + np.swapaxes(christoffel @ geo.M[..., None, :, :], -3, -2)  # [mu, nu, b]
    X = (np.swapaxes(geo.M, -1, -2) @ Z.reshape(flat)).reshape(Z.shape)  # [a, nu, b]
    return (geo.Minv @ np.swapaxes(X, -3, -2).reshape(flat)).reshape(Z.shape)


def connection_to_coordinates(W: np.ndarray, geo: PointGeometry) -> np.ndarray:
    """Inverse of connection_to_adapted: coordinate Christoffels from W."""
    m = W.shape[-1]
    inner = np.swapaxes(W, -2, -1).reshape(W.shape[:-3] + (m * m, m)) @ geo.Minv  # [c, b, mu]
    U = (geo.M @ inner.reshape(W.shape[:-3] + (m, m * m))).reshape(W.shape)  # [nu, b, mu]
    return (np.swapaxes(U, -2, -1) - np.swapaxes(geo.dM, -3, -2)) @ geo.Minv[..., None, :, :]


def covariant_derivative(conn: np.ndarray, T: np.ndarray, dT: np.ndarray, variance: str) -> np.ndarray:
    """nabla T[..., l, ...] from a tensor, its derivatives and a connection.

    ``conn[..., upper, direction, slot]`` and ``dT[..., direction, ...]``
    (the derivative of ``T`` along each basis vector) are given in one
    frame, coordinate or adapted.  The directions may be any subset of the
    basis, such as ``conn[:, tile]`` with ``dT[tile]``: the result holds
    those directions, each equal to its row of the call on all of them.
    ``variance`` has one letter per index of ``T``: each upper slot ("u")
    adds sum_s conn[u, l, s] T[..s..] and each lower slot ("d") subtracts
    sum_s conn[s, l, i] T[..s..].  ``conn``, ``T`` and ``dT`` carry the
    same number of leading batch axes, which broadcast; each slot is one
    batched matmul over them.
    """

    batch = conn.ndim - 3
    rank = T.ndim - batch
    if len(variance) != rank or not set(variance) <= {"u", "d"}:
        raise ValueError(f"variance {variance!r} does not describe a rank-{rank} tensor")
    directions, m = conn.shape[-2:]
    # [..., (l, new), s]: conn[new, l, s] for an upper slot, conn[s, l, new] for a lower one
    lower = np.swapaxes(np.swapaxes(conn, -3, -1), -3, -2)
    mats = {
        kind: mat.reshape(conn.shape[:-3] + (directions * m, m))
        for kind, mat in (("u", np.swapaxes(conn, -3, -2)), ("d", lower)) if kind in variance
    }
    nabla = np.array(dT, dtype=np.result_type(dT, conn, T))
    for slot, kind in enumerate(variance):
        # swapping the slot with the first tensor axis and back again keeps every other axis in place
        moved = np.swapaxes(T, batch, batch + slot)
        term = mats[kind] @ moved.reshape(moved.shape[:batch] + (m, -1))  # [..., (l, new), rest]
        term = term.reshape(term.shape[:-2] + (directions,) + moved.shape[batch:])
        term = np.swapaxes(term, -rank, slot - rank)
        if kind == "u":
            nabla += term
        else:
            nabla -= term
        del term  # before the next slot's product is allocated: one product alive at a time
    return nabla


def torsion_residual(W: np.ndarray, geo: PointGeometry) -> float | np.ndarray:
    """Max |W[c,a,b] - W[c,b,a] - structure[c,a,b]| per point, algebraic in the inputs."""
    struct = frame_structure_functions(geo)
    return max_abs(W - np.swapaxes(W, -2, -1) - struct, geo.t.ndim)


def metric_compatibility_residual(geo: PointGeometry, W: np.ndarray, jet: KoszulJet) -> float | np.ndarray:
    """Max |coordinate covariant derivative of the lifted metric| per point.

    The metric and its derivative are the oracle's complex step ``jet`` of
    the analytic metric field; the connection is the closed-form adapted
    connection ``W`` in coordinates, so the residual certifies metric
    compatibility of the closed-form coefficients rather than an algebraic
    identity of the oracle.
    """

    christoffel = connection_to_coordinates(W, geo)
    return max_abs(covariant_derivative(christoffel, jet.G, jet.dG, "dd"), geo.t.ndim)


def verify_connection(
    geo: PointGeometry, W_closed: np.ndarray, jet: KoszulJet
) -> tuple[tuple[float | np.ndarray, str | list[str]], float | np.ndarray, float | np.ndarray]:
    """Compare the closed-form adapted connection against the Koszul oracle's ``jet`` at ``geo``.

    Returns ``((closed_vs_oracle, worst_label), nabla_g, torsion)``: the
    largest coefficient deviation with a label naming it, the metric
    compatibility residual and the torsion residual, each one per point
    (the labels a list for a stack).
    """
    batch = geo.t.shape
    W_oracle = connection_to_adapted(jet.christoffel, geo)
    diff = np.abs(W_closed - W_oracle).reshape(batch + (-1,))
    worst = np.asarray(np.argmax(diff, axis=-1))
    labels = []
    for k in np.ndindex(batch):
        c, a, b = np.unravel_index(worst[k], W_closed.shape[-3:])
        labels.append(
            f"coefficient [{c},{a},{b}]: "
            f"closed-form {W_closed[k + (c, a, b)]:.17g} vs oracle {W_oracle[k + (c, a, b)]:.17g}"
        )
    return (
        (np.max(diff, axis=-1), labels if batch else labels[0]),
        metric_compatibility_residual(geo, W_closed, jet),
        torsion_residual(W_closed, geo),
    )


def mtensor_parallel_residuals(
    geo: PointGeometry, step_data: LiftedMetricData
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Horizontal covariant constancy of the integrable lift's metric blocks, per point.

    Checks that the frame derivative of G along horizontal directions is
    absorbed by base Christoffel contractions, and likewise for H with the
    opposite sign pattern.  The derivatives are one ``frame_derivative`` of
    the stacked [G, H] blocks ``step_data`` on the step geometry of ``geo``
    (``frames.step_geometry``), read along the horizontal frame vectors.
    """

    n, batch = geo.n, geo.t.ndim
    GH, dGH = frame_derivative(geo, np.stack([step_data.G, step_data.H], axis=-3))
    gamma = geo.base.gamma  # the connection along the n horizontal frame vectors
    covG = covariant_derivative(gamma, GH[..., 0, :, :], dGH[..., :n, 0, :, :], "dd")
    covH = covariant_derivative(gamma, GH[..., 1, :, :], dGH[..., :n, 1, :, :], "uu")
    return max_abs(covG, batch), max_abs(covH, batch)
