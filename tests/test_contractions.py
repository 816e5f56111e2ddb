"""Pairwise contractions agree with the einsums they replace.

Each function below contracts its operands one index at a time.  The
einsum string it replaced is kept here as the reference, evaluated on
random tensors at m = 6 and m = 10, real and complex (complex-step fields
pass complex stacks through the same code), and the two must agree to
1e-12 relative to the reference's largest entry with the input's dtype.
The same holds for the hand-written covariant derivatives and frame
contractions that ``covariant_derivative`` and ``frame_derivative`` replaced,
for the three Koszul einsums that ``koszul_christoffel``'s one matmul
replaced, and for the ``m² × m²`` quadratic form that the holomorphic
sectional curvature folds onto the ``m(m+1)/2`` unordered index pairs; both
hold for the assembled-tensor route kept test-side in
``holomorphic_reference``, and the family route of
``curvature.holomorphic_sectional_curvature`` equals that route on random
families and metric blocks at n = 2 to 5, at one point and on stacks.
``covariant_derivative`` on leading batch axes equals its unbatched call
on each item.  The einsum form of ``curvature_blocks``, which the broadcast
outer products replaced, is kept as its reference on real stacks of points
and on the complex step stack, at n = 2 to 5.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from kahler_tube import ModelParams, complex_structure
from kahler_tube.connection import (
    connection_to_adapted,
    connection_to_coordinates,
    covariant_derivative,
    koszul_christoffel,
)
from kahler_tube.curvature import (
    assemble_adapted_curvature,
    curvature_blocks,
    holomorphic_sectional_curvature,
    index_pairs,
    j_invariance_residual,
    pair_products,
)
from kahler_tube.fd import COMPLEX_STEP, complex_jacobian, complex_points
from kahler_tube.frames import frame_derivative, geometry_at, point_geometry, step_geometry
from kahler_tube.lifted_metric import adapted_metric_matrix, components_from_geometry
from kahler_tube.sampling import sample_points

import holomorphic_reference as reference_route

CASES = [(m, dtype) for m in (6, 10) for dtype in (float, complex)]
IDS = [f"m{m}-{dtype.__name__}" for m, dtype in CASES]


def _random(rng: np.random.Generator, dtype: type, *shape: int) -> np.ndarray:
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if dtype is complex else x


def _assert_agrees(actual: np.ndarray, reference: np.ndarray) -> None:
    assert actual.dtype == reference.dtype
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= 1e-12 * np.max(np.abs(reference))


def _frame_geometry(rng: np.random.Generator, m: int, dtype: type) -> SimpleNamespace:
    M = np.eye(m) + 0.3 * _random(rng, dtype, m, m)
    return SimpleNamespace(M=M, Minv=np.linalg.inv(M), dM=_random(rng, dtype, m, m, m))


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_connection_to_adapted_matches_einsum(m: int, dtype: type) -> None:
    rng = np.random.default_rng(m)
    geo = _frame_geometry(rng, m, dtype)
    christoffel = _random(rng, dtype, m, m, m)
    reference = np.einsum("cv,ma,mvb->cab", geo.Minv, geo.M, geo.dM) + np.einsum(
        "cv,ma,lb,vml->cab", geo.Minv, geo.M, geo.M, christoffel
    )
    _assert_agrees(connection_to_adapted(christoffel, geo), reference)


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_connection_to_coordinates_matches_einsum(m: int, dtype: type) -> None:
    rng = np.random.default_rng(m + 1)
    geo = _frame_geometry(rng, m, dtype)
    W = _random(rng, dtype, m, m, m)
    reference = np.einsum("vc,cab,am,bl->vml", geo.M, W, geo.Minv, geo.Minv) - np.einsum(
        "mvb,bl->vml", geo.dM, geo.Minv
    )
    _assert_agrees(connection_to_coordinates(W, geo), reference)


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_koszul_christoffel_matches_einsum(m: int, dtype: type) -> None:
    # A stack of three metrics, as the curvature oracle's stencil passes.
    rng = np.random.default_rng(m + 8)
    G = m * np.eye(m) + _random(rng, dtype, 3, m, m)
    dG = _random(rng, dtype, 3, m, m, m)
    Ginv = np.linalg.inv(G)
    reference = 0.5 * (
        np.einsum("...ls,...msn->...lmn", Ginv, dG)
        + np.einsum("...ls,...nsm->...lmn", Ginv, dG)
        - np.einsum("...ls,...smn->...lmn", Ginv, dG)
    )
    _assert_agrees(koszul_christoffel(G, dG), reference)


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_nijenhuis_families_match_einsum(
    m: int, dtype: type, monkeypatch: pytest.MonkeyPatch
) -> None:
    rng = np.random.default_rng(m + 2)
    n = m // 2
    core = _random(rng, dtype, n, n, n)
    H = _random(rng, dtype, n, n)
    monkeypatch.setattr(complex_structure, "_nijenhuis_core", lambda geo, data: core)
    horiz_horiz, horiz_vert, vert_vert = complex_structure.nijenhuis_closed_form(None, SimpleNamespace(H=H))
    assert np.array_equal(horiz_horiz, core)
    _assert_agrees(horiz_vert, np.einsum("kl,jr,lir->kij", H, H, core))
    _assert_agrees(vert_vert, np.einsum("ir,jl,klr->kij", H, H, core))


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_j_invariance_residual_matches_einsum(m: int, dtype: type) -> None:
    rng = np.random.default_rng(m + 3)
    R = _random(rng, dtype, m, m, m, m)
    metric, J = _random(rng, dtype, m, m), _random(rng, dtype, m, m)
    lhs = np.einsum("abcd,bz,ae,ew->wzcd", R, J, metric, J)
    rhs = np.einsum("azcd,aw->wzcd", R, metric)
    reference = np.max(np.abs(lhs - rhs))
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    assert abs(j_invariance_residual(R, metric, J) - reference) <= 1e-12 * scale


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_covariant_derivative_matches_einsum(m: int, dtype: type) -> None:
    rng = np.random.default_rng(m + 4)
    conn = _random(rng, dtype, m, m, m)
    K = _random(rng, dtype, m, m, m, m)
    dK = _random(rng, dtype, m, m, m, m, m)
    reference = (
        dK
        + np.einsum("als,sbcd->labcd", conn, K)
        - np.einsum("slb,ascd->labcd", conn, K)
        - np.einsum("slc,absd->labcd", conn, K)
        - np.einsum("sld,abcs->labcd", conn, K)
    )
    _assert_agrees(covariant_derivative(conn, K, dK, "uddd"), reference)


@pytest.mark.parametrize("m", (6, 10))
def test_holomorphic_sectional_curvature_matches_einsum(m: int) -> None:
    """Real only: the sampled directions and the positivity test are real."""
    rng = np.random.default_rng(m + 5)
    R = rng.standard_normal((m, m, m, m))
    A = rng.standard_normal((m, m))
    metric, J = A @ A.T + m * np.eye(m), rng.standard_normal((m, m))
    X = rng.standard_normal((200, m))
    JX = X @ J.T
    SR = np.einsum("ea,abcd->ebcd", metric, R)
    num = np.einsum("ze,zb,zc,zd,ebcd->z", X, JX, X, JX, SR)
    reference = num / np.einsum("...a,ab,...b->...", X, metric, X) ** 2
    _assert_agrees(reference_route.holomorphic_sectional_curvature(R, metric, J, X), reference)
    _assert_agrees(reference_route.holomorphic_sectional_curvature(R, metric, J, X[7]), reference[7])


@pytest.mark.parametrize("m", (3, 6, 10))
def test_index_pairs_fold_each_ordered_pair_onto_its_unordered_pair(m: int) -> None:
    i, j, F = index_pairs(m)
    assert F.shape == (m * m, m * (m + 1) // 2)
    assert set(np.unique(F)) == {0.0, 1.0}
    assert np.array_equal(F.sum(axis=1), np.ones(m * m))
    assert np.array_equal(F.sum(axis=0), np.where(i == j, 1.0, 2.0))
    assert all(np.array_equal(a, b) for a, b in zip((i, j), np.triu_indices(m)))
    assert index_pairs(m)[2] is F and not F.flags.writeable


@pytest.mark.parametrize("m", (6, 10))
def test_folded_form_equals_the_unfolded_quadratic_form(m: int) -> None:
    """The numerator on pair products equals (X⊗X)ᵀ Q (X⊗X), for any R, S, J."""
    rng = np.random.default_rng(m + 11)
    R = rng.standard_normal((m, m, m, m))
    metric, J = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    X = rng.standard_normal((200, m))
    SR = np.einsum("ea,abcd->ebcd", metric, R)
    Q = np.einsum("ebcd,bf,dg->ecgf", SR, J, J, optimize=True).reshape(m * m, m * m)
    XX = (X[:, :, None] * X[:, None, :]).reshape(len(X), m * m)
    reference = np.einsum("zi,ij,zj->z", XX, Q, XX, optimize=True)
    Q_pairs = reference_route.folded_quadratic_form(R, metric, J)
    F = index_pairs(m)[2]
    _assert_agrees(Q_pairs, F.T @ Q @ F)
    folded = reference_route.holomorphic_quotient(Q_pairs, pair_products(X), np.ones(len(X)))
    assert np.max(np.abs(folded - reference)) <= 1e-13 * np.max(np.abs(reference))


def _random_metric_blocks(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Random symmetric positive definite (*shape) blocks."""
    A = rng.standard_normal(shape)
    return A @ np.swapaxes(A, -1, -2) + shape[-1] * np.eye(shape[-1])


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_family_form_equals_the_assembled_tensor_fold(n: int) -> None:
    """Any families and any symmetric G, H (not only G H = 1), at one point and on a stack."""
    rng = np.random.default_rng(n + 20)
    T = rng.standard_normal((3, 4) + (n,) * 4)
    G, H = _random_metric_blocks(rng, 3, n, n), _random_metric_blocks(rng, 3, n, n)
    X = rng.standard_normal((50, 2 * n))
    blocks = SimpleNamespace(G=G, H=H)
    S, J = adapted_metric_matrix(blocks), complex_structure.adapted_j_matrix(blocks)
    R = assemble_adapted_curvature(T)
    reference = np.stack(
        [reference_route.holomorphic_sectional_curvature(R[k], S[k], J[k], X) for k in range(3)]
    )
    # Random families give values near zero too: relative to the largest value.
    stacked = holomorphic_sectional_curvature(T, G, H, X)
    assert stacked.shape == (3, 50)
    _agrees_relative(stacked, reference, 1e-13)
    for k in range(3):
        _agrees_relative(holomorphic_sectional_curvature(T[k], G[k], H[k], X), reference[k], 1e-13)


#: The covariant derivatives the battery wrote out by hand before
#: ``covariant_derivative``: the variance of the tensor and the connection
#: terms added to its derivative, as (sign, einsum) pairs.  The first
#: index of each output is the direction.
HAND_WRITTEN = {
    # curvature.parallel_block_residuals, one family each (dT minus the
    # deleted _parallel_rhs)
    "parallel_hhh": ("uddd", [
        (+1, "hls,sijk->lhijk"), (-1, "sli,hsjk->lhijk"),
        (-1, "slj,hisk->lhijk"), (-1, "slk,hijs->lhijk"),
    ]),
    "parallel_vvh": ("uuud", [
        (-1, "slk,ijhs->lijhk"), (+1, "ils,sjhk->lijhk"),
        (+1, "jls,ishk->lijhk"), (+1, "hls,ijsk->lijhk"),
    ]),
    "parallel_vhh": ("uddd", [
        (+1, "ils,sjkh->lijkh"), (-1, "slj,iskh->lijkh"),
        (-1, "slk,ijsh->lijkh"), (-1, "slh,ijks->lijkh"),
    ]),
    "parallel_vhv": ("uuud", [
        (-1, "slj,ikhs->likhj"), (+1, "ils,skhj->likhj"),
        (+1, "kls,ishj->likhj"), (+1, "hls,iksj->likhj"),
    ]),
    # connection.mtensor_parallel_residuals: nabla G and nabla H
    "mtensor_G": ("dd", [(-1, "lij,lk->ijk"), (-1, "lik,jl->ijk")]),
    "mtensor_H": ("uu", [(+1, "jil,lk->ijk"), (+1, "kil,jl->ijk")]),
    # connection.metric_compatibility_residual: nabla g
    "nabla_g": ("dd", [(-1, "slm,sn->lmn"), (-1, "sln,ms->lmn")]),
}


@pytest.mark.parametrize("name", HAND_WRITTEN)
@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_covariant_derivative_matches_hand_written_contractions(name: str, m: int, dtype: type) -> None:
    variance, terms = HAND_WRITTEN[name]
    rng = np.random.default_rng(m + 6)
    conn = _random(rng, dtype, m, m, m)
    T = _random(rng, dtype, *(m,) * len(variance))
    dT = _random(rng, dtype, *(m,) * (len(variance) + 1))
    reference = dT + sum(sign * np.einsum(subscripts, conn, T) for sign, subscripts in terms)
    _assert_agrees(covariant_derivative(conn, T, dT, variance), reference)


@pytest.mark.parametrize("variance", ["udd", "uddx", ""])
def test_covariant_derivative_rejects_a_wrong_variance(variance: str) -> None:
    with pytest.raises(ValueError, match="variance"):
        covariant_derivative(np.zeros((3, 3, 3)), np.zeros((3,) * 4), np.zeros((3,) * 5), variance)


@pytest.mark.parametrize("m", (6, 10))
def test_frame_derivative_matches_einsum(m: int) -> None:
    # The Jacobian of an analytic field is real, as is the frame.
    rng = np.random.default_rng(m + 7)
    A = rng.standard_normal((m, m, m, m)) / m
    M = np.eye(m) + 0.3 * rng.standard_normal((m, m))
    geo = SimpleNamespace(z=rng.standard_normal(m), M=M)

    def field(z: np.ndarray) -> np.ndarray:
        return np.sin(np.tensordot(z, A, axes=1))

    values = field(complex_points(geo.z))
    value, dT = frame_derivative(geo, values)
    expected_value, jac = complex_jacobian(values)
    assert np.array_equal(value, expected_value)
    _assert_agrees(dT, np.einsum("ka,k...->a...", M, jac.value))


@pytest.mark.parametrize("variance", ["uddd", "uuud", "dd", "uu"])
@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_batched_covariant_derivative_equals_each_item(variance: str, m: int, dtype: type) -> None:
    # The layout of the parallel_* rows: connections on a kind axis, tensors
    # on a family axis, derivatives on both.
    rng = np.random.default_rng(m + 9)
    rank = len(variance)
    conn = _random(rng, dtype, 2, m, m, m)
    T = _random(rng, dtype, 3, *(m,) * rank)
    dT = _random(rng, dtype, 2, 3, *(m,) * (rank + 1))
    batched = covariant_derivative(conn[:, None], T[None], dT, variance)
    assert batched.shape == dT.shape
    for k in range(2):
        for f in range(3):
            np.testing.assert_array_equal(batched[k, f], covariant_derivative(conn[k], T[f], dT[k, f], variance))


@pytest.mark.parametrize("variance", ["uddd", "uuud", "dd", "uu"])
@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_covariant_derivative_on_a_subset_of_directions_is_its_slice(variance: str, m: int, dtype: type) -> None:
    # The parallel rows take each family's covariant derivative along the
    # horizontal and the vertical frame directions apart: conn[:, tile] with
    # dT[tile], against the rows of the call on all of them.
    rng = np.random.default_rng(m + 10)
    rank = len(variance)
    conn = _random(rng, dtype, m, m, m)
    T = _random(rng, dtype, *(m,) * rank)
    dT = _random(rng, dtype, *(m,) * (rank + 1))
    whole = covariant_derivative(conn, T, dT, variance)
    for tile in (slice(0, 1), slice(1, m // 2), slice(m // 2, m), [0, m - 1]):
        np.testing.assert_array_equal(covariant_derivative(conn[:, tile], T, dT[tile], variance), whole[tile])


def _curvature_blocks_einsum(geo, data) -> np.ndarray:
    """``curvature_blocks`` as it was written with einsum, term by term."""
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


def _agrees_relative(actual: np.ndarray, reference: np.ndarray, rel: float) -> None:
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= rel * np.max(np.abs(reference))


@pytest.mark.parametrize("params", [ModelParams(n, c, a) for n in (2, 3, 4, 5) for c, a in ((1.0, 1.0), (2.0, 0.5))],
                         ids=lambda p: f"n{p.dim}-c{p.curvature:g}-a{p.lift_const:g}")
def test_curvature_blocks_match_their_einsum_form(params: ModelParams) -> None:
    n = params.dim
    points = sample_points(params, 5, seed=13)
    zs = np.stack([pt.z for pt in points])
    stack = geometry_at(params, zs[:, :n], zs[:, n:])
    blocks = curvature_blocks(stack, components_from_geometry(stack))
    assert blocks.shape == (5, 4) + (n,) * 4
    _agrees_relative(blocks, _curvature_blocks_einsum(stack, components_from_geometry(stack)), 1e-14)
    # The complex step stack: the values and the derivatives Im / h.
    step = step_geometry(point_geometry(params, points[0]))
    blocks = curvature_blocks(step, components_from_geometry(step))
    reference = _curvature_blocks_einsum(step, components_from_geometry(step))
    assert blocks.dtype == reference.dtype == complex
    _agrees_relative(blocks.real, reference.real, 1e-14)
    _agrees_relative(blocks.imag / COMPLEX_STEP, reference.imag / COMPLEX_STEP, 1e-14)
