"""Certification battery: every identity over a shared set of sampled points.

``CHECKS`` is the registry: one row per check, in report order, holding its
name, default tolerance, whether it needs the integrable (Kähler) profile,
and whether it passes by exceeding its tolerance instead of staying below.

``run_verify`` works in three steps.  ``evaluate_point`` computes every
per-point check value at one sampled point (the integrable-only layers only
for the Kähler profile); each layer returns a float or a tuple of floats,
unpacked straight into check names.  ``_worst_over_points`` keeps, for each
check, the largest value and the first point that reached it; the one
cross-point value, ``hol_sect_nonconstancy``, is added after it.  A final loop over
``CHECKS`` builds one report row per check.  Checks are independent: a
failing identity never aborts the others.  In offset (non-integrable) mode
the integrable-only rows are skipped with a reason, and the Nijenhuis
vanishing check is expected to fail — that failure is the negative test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import base_geometry, complex_structure, connection, curvature, lifted_metric
from .base_geometry import ModelParams
from .frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_transform,
    geometry_at,
    point_geometry,
    verify_brackets,
)
from .lifted_metric import LiftProfile
from .report import CheckResult, SweepResult, VerifyReport, relative_spread
from .sampling import sample_chart_points, sample_directions, sample_points


class ConfigError(ValueError):
    """Invalid run configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class Check:
    """One registry row: a named identity and how its worst value is judged."""

    name: str
    tolerance: float
    integrable_only: bool = False  # skipped unless the profile is Kähler
    lower_bound: bool = False  # passes when the value EXCEEDS the tolerance

    def passes(self, value: float, tol: float) -> bool:
        return value > tol if self.lower_bound else value <= tol


#: The check registry, in report order.
CHECKS: tuple[Check, ...] = (
    Check("base_metric_inverse", 1e-12),
    Check("base_christoffel_fd", 1e-6),
    Check("base_riemann_fd", 1e-6),
    Check("base_constant_curvature", 1e-10),
    Check("base_bianchi", 1e-10),
    Check("base_positive_definite", 0.0),
    Check("bracket_vert_vert", 1e-6),
    Check("bracket_mixed", 1e-6),
    Check("bracket_horiz_horiz", 1e-6),
    Check("frame_dual_pairing", 1e-12),
    Check("frame_roundtrip", 1e-12),
    Check("energy_frame_derivative", 1e-6),
    Check("lifted_inverse_pair", 1e-12),
    Check("lifted_positive_definite", 0.0),
    Check("lifted_orthogonality", 1e-12),
    Check("full_metric_blocks", 1e-12),
    Check("lifted_kahler_identity", 1e-14, integrable_only=True),
    Check("lifted_w_consistency", 1e-12, integrable_only=True),
    Check("j_squared", 1e-12),
    Check("hermitian", 1e-12),
    Check("fundamental_form_blocks", 1e-12),
    Check("fundamental_form_closed", 1e-8),
    Check("nijenhuis_closed_form", 1e-12),
    Check("nijenhuis_fd_match", 1e-5),
    Check("connection_match", 1e-5, integrable_only=True),
    Check("connection_nabla_g", 1e-5, integrable_only=True),
    Check("connection_torsion", 1e-12, integrable_only=True),
    Check("mtensor_parallel", 1e-6, integrable_only=True),
    Check("curvature_match", 1e-4, integrable_only=True),
    Check("curvature_antisymmetry", 1e-12, integrable_only=True),
    Check("curvature_bianchi", 1e-6, integrable_only=True),
    Check("curvature_pair_skew", 1e-6, integrable_only=True),
    Check("curvature_j_invariance", 1e-5, integrable_only=True),
    Check("einstein_identity", 1e-5, integrable_only=True),
    Check("ricci_mixed_zero", 1e-5, integrable_only=True),
    Check("local_symmetry", 1e-4, integrable_only=True),
    Check("parallel_hhh_horizontal", 1e-4, integrable_only=True),
    Check("parallel_hhh_vertical", 1e-4, integrable_only=True),
    Check("parallel_vvh_horizontal", 1e-4, integrable_only=True),
    Check("parallel_vvh_vertical", 1e-4, integrable_only=True),
    Check("parallel_vhh_horizontal", 1e-4, integrable_only=True),
    Check("parallel_vhh_vertical", 1e-4, integrable_only=True),
    Check("parallel_vhv_horizontal", 1e-4, integrable_only=True),
    Check("parallel_vhv_vertical", 1e-4, integrable_only=True),
    Check("hol_sect_scale_invariance", 1e-10, integrable_only=True),
    Check("hol_sect_nonconstancy", 1e-3, integrable_only=True, lower_bound=True),
)

#: Default tolerance of every check, in report order (the ``--tol`` keys).
DEFAULT_TOLERANCES: dict[str, float] = {check.name: check.tolerance for check in CHECKS}

_SKIP_REASON = "requires the integrable lift profile"

#: A per-point check value, or a (value, detail) pair for rows with a detail.
Value = float | tuple[float, str]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for a verify or sweep run."""

    params: ModelParams
    num_points: int = 10
    num_directions: int = 100
    seed: int = 7
    custom_v_offset: float | None = None
    tolerance_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_int(self.num_points) or self.num_points < 1:
            raise ConfigError("num_points must be a positive integer")
        if not _is_int(self.num_directions) or self.num_directions < 1:
            raise ConfigError("num_directions must be a positive integer")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.custom_v_offset is not None and not math.isfinite(self.custom_v_offset):
            raise ConfigError("custom_v_offset must be a finite real")
        for name, value in self.tolerance_overrides.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown check name in tolerance override: {name!r}")
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                raise ConfigError(f"tolerance for {name!r} must be a finite non-negative real")

    def require_admissible(self) -> None:
        violation = self.params.admissibility_violation()
        if violation is not None:
            raise ConfigError(violation)

    def tolerance(self, name: str) -> float:
        return self.tolerance_overrides.get(name, DEFAULT_TOLERANCES[name])

    def profile(self) -> LiftProfile:
        return LiftProfile(self.custom_v_offset)

    def as_dict(self) -> dict[str, Any]:
        return {
            "dim": self.params.dim,
            "curvature": float(self.params.curvature),
            "lift_const": float(self.params.lift_const),
            "num_points": self.num_points,
            "num_directions": self.num_directions,
            "seed": self.seed,
            "custom_v_offset": (
                None if self.custom_v_offset is None else float(self.custom_v_offset)
            ),
            "tolerance_overrides": {
                k: float(v) for k, v in sorted(self.tolerance_overrides.items())
            },
        }


def _max_abs(array: np.ndarray) -> float:
    return float(np.max(np.abs(array)))


def _positive_definite_residual(matrix: np.ndarray) -> float:
    """0.0 when strictly positive definite, else the worst eigenvalue defect."""
    smallest = float(np.min(np.linalg.eigvalsh(matrix)))
    return 0.0 if smallest > 0.0 else abs(smallest) + np.finfo(float).tiny


def evaluate_point(
    params: ModelParams, pt: BundlePoint, profile: LiftProfile, directions: np.ndarray
) -> tuple[dict[str, Value], np.ndarray | None]:
    """Every per-point check value at ``pt``, keyed by check name.

    The point geometry, the lifted blocks, the adapted and coordinate metric,
    the adapted structure and, for the Kähler profile, the closed connection ``W`` and the closed
    adapted curvature are built once here and handed to every layer.  The
    integrable-only layers run only for the Kähler profile.  The second item
    holds the holomorphic sectional curvatures over ``directions``
    (None for any other profile), for the cross-point nonconstancy check.
    """
    n = params.dim
    geo = point_geometry(params, pt)
    base = geo.base
    data = lifted_metric.components_from_geometry(geo, profile)
    values: dict[str, Value] = {}

    # Base chart: closed forms against their own fd recomputation.
    base_field = base_geometry.metric_field(params)
    values["base_metric_inverse"] = _max_abs(base.g @ base.g_inv - np.eye(n))
    base_jet, riem_fd = curvature.curvature_from_metric_field(base_field, pt.x)
    values["base_christoffel_fd"] = _max_abs(base.gamma - base_jet.christoffel)
    values["base_riemann_fd"] = _max_abs(base.riem - riem_fd)
    values["base_constant_curvature"] = base_geometry.verify_constant_curvature(base, riem_fd)
    values["base_bianchi"] = base_geometry.first_bianchi_residual(base.riem)
    values["base_positive_definite"] = _positive_definite_residual(base.g)

    # Adapted frame: bracket table, duality, energy derivatives.
    values["bracket_vert_vert"], values["bracket_mixed"], values["bracket_horiz_horiz"] = verify_brackets(geo)
    values["frame_dual_pairing"] = geo.frame.dual_pairing_residual()
    values["energy_frame_derivative"] = max(energy_frame_derivatives(geo))

    # Lifted metric blocks (defined for every profile).  The coordinate
    # metric is the block formula; reading it back through the generic
    # frame transform cross-checks the two.
    S_ad = lifted_metric.adapted_metric_matrix(data)
    S_coord = lifted_metric.coordinate_metric(geo, data)
    back = frame_transform(S_coord, "dd", geo.frame, to="adapted")
    values["frame_roundtrip"] = _max_abs(back - S_ad)
    values["lifted_inverse_pair"] = _max_abs(data.G @ data.H - np.eye(n))
    values["lifted_positive_definite"] = max(
        _positive_definite_residual(data.G), _positive_definite_residual(data.H)
    )
    values["lifted_orthogonality"] = max(_max_abs(back[:n, n:]), _max_abs(back[n:, :n]))
    values["full_metric_blocks"] = max(
        _max_abs(back[:n, :n] - data.G), _max_abs(back[n:, n:] - data.H)
    )

    # Almost complex structure and fundamental form, in coordinates.
    J_ad = complex_structure.adapted_j_matrix(data)
    J_coord = frame_transform(J_ad, "ud", geo.frame, to="coordinate")
    values["j_squared"] = _max_abs(J_coord @ J_coord + np.eye(2 * n))
    values["hermitian"] = _max_abs(J_coord.T @ S_coord @ J_coord - S_coord)
    values["fundamental_form_blocks"] = complex_structure.fundamental_form_block_residual(S_ad @ J_ad)
    values["fundamental_form_closed"] = complex_structure.fundamental_form(geo, profile)

    # Integrability dichotomy.
    closed_n = complex_structure.nijenhuis_closed_form(geo, data)
    values["nijenhuis_closed_form"] = _max_abs(closed_n)
    fd_n, off_distribution = complex_structure.nijenhuis_fd_full(geo, profile)
    values["nijenhuis_fd_match"] = max(_max_abs(closed_n - fd_n), off_distribution)

    if not profile.is_kahler:
        return values, None

    values["lifted_kahler_identity"] = lifted_metric.kahler_identity_residual(params, data)
    values["lifted_w_consistency"] = lifted_metric.w_consistency_residual(params, data)

    # Levi-Civita connection: closed forms against the Koszul oracle.
    jet, R_oracle_coord = curvature.curvature_oracle_coordinates(geo)
    W = connection.coefficients_from_geometry(geo, data)
    values["connection_match"], values["connection_nabla_g"], values["connection_torsion"] = (
        connection.verify_connection(geo, W, jet)
    )
    values["mtensor_parallel"] = max(connection.mtensor_parallel_residuals(geo))

    # Curvature: closed blocks against the curvature oracle; identity
    # battery on the oracle output so it stands on its own.
    R_closed_ad = curvature.assemble_adapted_curvature(curvature.curvature_blocks(geo, data))
    R_oracle_ad = frame_transform(R_oracle_coord, "uddd", geo.frame, to="adapted")
    sectors = curvature.sector_residuals(R_closed_ad, R_oracle_ad, n)
    values["curvature_match"] = (
        max(sectors.values()),
        "per-family residuals: " + ", ".join(f"{k}={v:.3e}" for k, v in sectors.items()),
    )
    values["curvature_antisymmetry"] = curvature.direction_antisymmetry_residual(R_closed_ad)
    values["curvature_bianchi"] = base_geometry.first_bianchi_residual(R_oracle_coord)
    values["curvature_pair_skew"] = curvature.pair_skew_residual(R_oracle_coord, S_coord)
    values["curvature_j_invariance"] = curvature.j_invariance_residual(R_oracle_ad, S_ad, J_ad)
    values["einstein_identity"], values["ricci_mixed_zero"] = curvature.einstein_residuals(
        geo, S_coord, R_oracle_coord
    )
    values.update(curvature.parallel_block_residuals(geo, W))

    hol, values["hol_sect_scale_invariance"] = curvature.holomorphic_sample(
        R_closed_ad, S_ad, J_ad, directions
    )
    return values, hol


def _worst_over_points(
    per_point: list[dict[str, Value]],
) -> dict[str, tuple[float, int, str | None]]:
    """Per check: the largest value over the points, its point, its detail.

    Ties keep the first point that reached the value.
    """
    worst: dict[str, tuple[float, int, str | None]] = {}
    for idx, values in enumerate(per_point):
        for name, entry in values.items():
            value, detail = entry if isinstance(entry, tuple) else (entry, None)
            value = float(value)
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, idx, detail)
    return worst


def run_verify(cfg: RunConfig) -> VerifyReport:
    cfg.require_admissible()
    params = cfg.params
    profile = cfg.profile()
    points = sample_points(params, cfg.num_points, cfg.seed)
    directions = sample_directions(params, cfg.num_directions, cfg.seed)

    evaluated = [evaluate_point(params, pt, profile, directions) for pt in points]
    worst = _worst_over_points([values for values, _ in evaluated])
    if profile.is_kahler:
        stacked = np.stack([hol for _, hol in evaluated])
        lo, hi = float(np.min(stacked)), float(np.max(stacked))
        peak_point = int(np.unravel_index(int(np.argmax(stacked)), stacked.shape)[0])
        worst["hol_sect_nonconstancy"] = (
            relative_spread(lo, hi), peak_point, f"min={lo:.6g}, max={hi:.6g}"
        )

    report = VerifyReport(config=cfg.as_dict())
    for check in CHECKS:
        tol = cfg.tolerance(check.name)
        if check.integrable_only and not profile.is_kahler:
            report.checks.append(
                CheckResult(name=check.name, tolerance=tol, status="skipped", reason=_SKIP_REASON)
            )
            continue
        if check.name not in worst:
            raise RuntimeError(f"check {check.name!r} should have run but produced no value")
        value, point_id, detail = worst[check.name]
        report.checks.append(
            CheckResult(
                name=check.name,
                tolerance=tol,
                max_residual=value,
                passed=check.passes(value, tol),
                worst_point_id=point_id,
                detail=detail,
            )
        )
    return report


def _sweep_values(
    params: ModelParams, xs: np.ndarray, ps: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Energy densities ``(points,)`` and curvatures ``(points, directions)``."""
    geo = geometry_at(params, xs, ps)
    data = lifted_metric.components_from_geometry(geo)
    R_ad = curvature.assemble_adapted_curvature(curvature.curvature_blocks(geo, data))
    S_ad = lifted_metric.adapted_metric_matrix(data)
    J_ad = complex_structure.adapted_j_matrix(data)
    values = np.empty((len(xs), len(directions)))
    for idx in range(len(xs)):
        values[idx] = curvature.holomorphic_sectional_curvature(R_ad[idx], S_ad[idx], J_ad[idx], directions)
    return geo.t, values


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Holomorphic sectional curvature over the sampled (point, direction) grid.

    Every closed form is evaluated once, on the stack of all sampled points:
    one ``geometry_at`` on the ``(points, n)`` arrays of
    ``sample_chart_points``, then the lifted blocks, the curvature blocks
    and the adapted curvature, metric and structure.  Only the quadratic
    form runs point by point (``holomorphic_sectional_curvature`` over the
    whole batch of directions), so no ``(points, directions, m²)`` product
    is ever held.  The result keeps the two arrays as they are: no
    ``BundlePoint`` and no row object is built.  A sampled point outside the
    tube is caught by the tube guard of ``components_from_geometry``, and a
    non-finite value by ``SweepResult.to_csv``.
    """
    cfg.require_admissible()
    if cfg.custom_v_offset is not None:
        raise ConfigError("sweep requires the integrable lift profile")
    params = cfg.params
    xs, ps = sample_chart_points(params, cfg.num_points, cfg.seed)
    directions = sample_directions(params, cfg.num_directions, cfg.seed)
    t, values = _sweep_values(params, xs, ps, directions)
    return SweepResult(t=t, values=values)
