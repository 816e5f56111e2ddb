"""Pairwise contractions agree with the einsums they replace.

Each function below contracts its operands one index at a time.  The
einsum string it replaced is kept here as the reference, evaluated on
random tensors at m = 6 and m = 10, real and complex (complex-step fields
pass complex stacks through the same code), and the two must agree to
1e-12 relative to the reference's largest entry with the input's dtype.
The same holds for the hand-written covariant derivatives and frame
contractions that ``covariant_derivative`` and ``frame_derivative`` replaced,
and for the three Koszul einsums that ``koszul_christoffel``'s one matmul
replaced.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from kahler_tube import complex_structure
from kahler_tube.connection import (
    connection_to_adapted,
    connection_to_coordinates,
    covariant_derivative,
    koszul_christoffel,
)
from kahler_tube.curvature import (
    holomorphic_sectional_curvature,
    j_invariance_residual,
)
from kahler_tube.fd import complex_step
from kahler_tube.frames import frame_derivative

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
    frame = SimpleNamespace(M=M, Minv=np.linalg.inv(M), dM=_random(rng, dtype, m, m, m))
    return SimpleNamespace(frame=frame)


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_connection_to_adapted_matches_einsum(m: int, dtype: type) -> None:
    rng = np.random.default_rng(m)
    geo = _frame_geometry(rng, m, dtype)
    christoffel = _random(rng, dtype, m, m, m)
    fr = geo.frame
    reference = np.einsum("cv,ma,mvb->cab", fr.Minv, fr.M, fr.dM) + np.einsum(
        "cv,ma,lb,vml->cab", fr.Minv, fr.M, fr.M, christoffel
    )
    _assert_agrees(connection_to_adapted(christoffel, geo), reference)


@pytest.mark.parametrize(("m", "dtype"), CASES, ids=IDS)
def test_connection_to_coordinates_matches_einsum(m: int, dtype: type) -> None:
    rng = np.random.default_rng(m + 1)
    geo = _frame_geometry(rng, m, dtype)
    W = _random(rng, dtype, m, m, m)
    fr = geo.frame
    reference = np.einsum("vc,cab,am,bl->vml", fr.M, W, fr.Minv, fr.Minv) - np.einsum(
        "mvb,bl->vml", fr.dM, fr.Minv
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
    _assert_agrees(holomorphic_sectional_curvature(R, metric, J, X), reference)
    _assert_agrees(holomorphic_sectional_curvature(R, metric, J, X[7]), reference[7])


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
    geo = SimpleNamespace(z=rng.standard_normal(m), frame=SimpleNamespace(M=M))

    def field(z: np.ndarray) -> np.ndarray:
        return np.sin(np.tensordot(z, A, axes=1))

    value, dT = frame_derivative(geo, field)
    expected_value, jac = complex_step(field, geo.z)
    assert np.array_equal(value, expected_value)
    _assert_agrees(dT, np.einsum("ka,k...->a...", M, jac.value))
