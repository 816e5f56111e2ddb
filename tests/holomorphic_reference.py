"""The holomorphic sectional curvature of an arbitrary adapted-frame tensor.

The assembled-tensor route that ``curvature.holomorphic_sectional_curvature``
replaced, kept as the tests' reference: it takes any ``(m, m, m, m)``
curvature ``R_ad`` with any metric and structure, so it also serves tensors
that are not built from the four closed families.  With
(S R)[e, b, c, d] = S[e, a] R[a, b, c, d], the numerator
X_e X_c (JX)_b (JX)_d (S R)_ebcd is the quadratic form (X⊗X)ᵀ Q (X⊗X) of
one m² × m² matrix Q[(e, c), (g, f)] = (S R)_ebcd J_bf J_dg.  X⊗X is
symmetric, so Q folds onto the s = m(m+1)/2 unordered pairs: ``Fᵀ Q F``
with F from ``index_pairs(m)``, an ``(s, s)`` matrix.
"""

import numpy as np

from kahler_tube.base_geometry import DomainError
from kahler_tube.curvature import index_pairs, pair_products


def folded_quadratic_form(R_ad: np.ndarray, metric_ad: np.ndarray, J_ad: np.ndarray) -> np.ndarray:
    """The numerator as the ``(s, s)`` form ``Fᵀ Q F`` on the pair products of X."""
    m = R_ad.shape[-1]
    SRJ = (metric_ad @ R_ad.reshape(m, m**3)).reshape(m**3, m) @ J_ad  # [(e, b, c), g]
    Q = SRJ.reshape(m, m, m, m).transpose(0, 2, 3, 1).reshape(m**3, m) @ J_ad  # [(e, c, g), f]
    F = index_pairs(m)[2]
    return F.T @ (Q.reshape(m * m, m * m) @ F)


def holomorphic_quotient(Q_pairs: np.ndarray, P: np.ndarray, norm_sq: np.ndarray) -> np.ndarray:
    """``Pᵀ Q_pairs P / <X, X>²`` per direction."""
    return np.einsum("...k,...k->...", P @ Q_pairs, P) / (norm_sq * norm_sq)


def holomorphic_sectional_curvature(
    R_ad: np.ndarray, metric_ad: np.ndarray, J_ad: np.ndarray, X_ad: np.ndarray
) -> np.ndarray:
    """<K(X, JX) JX, X> / <X, X>^2 for adapted-frame directions ``X_ad`` (..., m)."""
    X = np.asarray(X_ad)
    norm_sq = np.einsum("...a,...a->...", X @ metric_ad, X)
    if np.any(norm_sq <= 0.0):
        raise DomainError("holomorphic sectional curvature needs a nonzero direction")
    return holomorphic_quotient(folded_quadratic_form(R_ad, metric_ad, J_ad), pair_products(X), norm_sq)
