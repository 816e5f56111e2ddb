"""Certification battery: every identity over a shared set of sampled points.

``CHECKS`` is the registry: one row per check, in report order, holding its
name, default tolerance, whether it needs the integrable (Kähler) profile,
and whether it passes by exceeding its tolerance instead of staying below.

``run_verify`` works in three steps.  It validates the sampled points as
one stacked ``BundlePoint`` and splits them into ``fd.tiles`` by the
battery's bytes per point (``tile_point_bytes``: a small n = 3 or 4 run is
one tile, an n = 5 point a tile of its own).  ``evaluate_points`` computes
every per-point check value over one tile, one column per check: every
layer, the integrable-only ones (the holomorphic sample among them) for
the Kähler profile only, runs once per tile, on stacks, and returns one
value per point (the largest over that point's own components, so a
point's value does not depend on its tile); no layer runs point by point.
Each layer returns an array of one float per point or a tuple of them,
unpacked straight into check names.  ``_worst_over_points`` keeps, for
each check, the worst value and the first point that reached it: the
first non-finite value if any, else the largest.  The one cross-point
row, ``hol_sect_nonconstancy``, is added after it from the sampled
curvatures of every tile, which ``evaluate_points`` returns beside its
columns.  A final loop over ``CHECKS`` builds one report row per check.
Checks are independent: a failing identity never aborts the others.  In
offset (non-integrable) mode the integrable-only rows are skipped with a
reason, and the Nijenhuis vanishing check is expected to fail — that
failure is the negative test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import base_geometry, complex_structure, connection, curvature, lifted_metric
from .base_geometry import ModelParams
from .fd import max_abs, tiles
from .frames import (
    BundlePoint,
    energy_frame_derivatives,
    frame_transform,
    geometry_at,
    point_geometry,
    step_geometry,
    verify_brackets,
)
from .lifted_metric import LiftProfile
from .report import CheckResult, SweepResult, VerifyReport, relative_spread
from .sampling import sample_chart_points, sample_directions


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


_TINY = float(np.finfo(float).tiny)


def _positive_definite_residual(matrix: np.ndarray) -> np.ndarray:
    """Per point of a stack: 0.0 when strictly positive definite, else the worst eigenvalue defect."""
    smallest = np.linalg.eigvalsh(matrix).min(axis=-1)
    return np.where(smallest > 0.0, 0.0, np.abs(smallest) + _TINY)


def tile_point_bytes(n: int) -> int:
    """Bytes a verify tile holds per point: twenty complex (2n)^3 arrays, or one step family.

    The layers that run under every profile hold twenty complex (2n)^3
    arrays a point; the Kähler profile adds one curvature family at a time
    on the 2n step points, complex, with its Jacobian and frame derivative,
    2n n^4 32 bytes, the larger from n = 7 on.  The layers that tile their
    own stacks (the oracle's stencil, nabla K's odd sectors) hold a fixed
    working set on top, which this rule leaves out.  So seven points make a
    tile at n = 3, three at n = 4 and one from n = 5 on.
    """
    return max(20 * 16 * (2 * n) ** 3, 2 * n * n**4 * 32)


def evaluate_points(
    params: ModelParams, pts: BundlePoint, profile: LiftProfile, directions: np.ndarray
) -> tuple[dict[str, Sequence[Value]], np.ndarray | None]:
    """Every per-point check value at the stack of points ``pts``, one column per check name.

    Entry k of a column is the value at point k.  The geometry, the lifted
    blocks, the adapted and coordinate metric and the adapted structure
    are built once here, as stacks, and handed to every layer.  So are the
    step geometry at the 2n complex-step points of each point
    (``step_geometry``) and its lifted blocks, from which every
    complex-step layer reads its derivative.  Every layer is called once,
    on the stacks, and returns one value per point, the maximum over that
    point's own components; so entry k equals the value of a stack of point
    k alone, bit for bit, and a non-finite value stays at its point.

    The integrable-only layers run only for the Kähler profile: the closed
    connection ``W``, the curvature oracle (its stencil in tiles of (point,
    axis) items) and the connection rows, and ``parallel_block_residuals``,
    which builds the closed curvature families on the step stack one family
    at a time, takes each one's frame derivative and its two parallel rows
    and keeps only the real families ``T`` and their assembly, the closed
    adapted curvature that the curvature rows read.  ``local_symmetry`` is
    nabla K: on its even sectors the eight parallel rows, on its odd ones
    W's off-diagonal blocks on the assembly, in tiles of (point, horizontal
    direction) items.  Once the assembly is dropped, ``holomorphic_sample``
    takes ``T`` and the metric blocks at ``directions``: its per-point
    scale invariance is a column, and its ``(points, directions)``
    curvatures are the second item (None for any other profile), from which
    ``run_verify`` takes ``hol_sect_nonconstancy`` across tiles.
    """
    n = params.dim
    geo = point_geometry(params, pts)
    base = geo.base
    data = lifted_metric.components_from_geometry(geo, profile)
    step_geo = step_geometry(geo)
    step_data = lifted_metric.components_from_geometry(step_geo, profile)
    values: dict[str, Sequence[Value]] = {}

    # Base chart: closed forms against their own fd recomputation.
    base_field = base_geometry.metric_field(params)
    values["base_metric_inverse"] = max_abs(base.g @ base.g_inv - np.eye(n), 1)
    base_jet, riem_fd = curvature.curvature_from_metric_field(base_field, pts.x)
    values["base_christoffel_fd"] = max_abs(base.gamma - base_jet.christoffel, 1)
    values["base_riemann_fd"] = max_abs(base.riem - riem_fd, 1)
    values["base_constant_curvature"] = base_geometry.verify_constant_curvature(base, riem_fd)
    values["base_bianchi"] = base_geometry.first_bianchi_residual(base.riem)
    values["base_positive_definite"] = _positive_definite_residual(base.g)

    # Adapted frame: bracket table, duality, energy derivatives.
    values["bracket_vert_vert"], values["bracket_mixed"], values["bracket_horiz_horiz"] = verify_brackets(
        geo, step_geo
    )
    values["frame_dual_pairing"] = geo.dual_pairing_residual()
    values["energy_frame_derivative"] = np.maximum(*energy_frame_derivatives(geo, step_geo))

    # Lifted metric blocks (defined for every profile).  The coordinate
    # metric is the block formula; reading it back through the generic
    # frame transform cross-checks the two.
    S_ad = lifted_metric.adapted_metric_matrix(data)
    S_coord = lifted_metric.coordinate_metric(geo, data)
    back = frame_transform(S_coord, "dd", geo, to="adapted")
    values["frame_roundtrip"] = max_abs(back - S_ad, 1)
    values["lifted_inverse_pair"] = max_abs(data.G @ data.H - np.eye(n), 1)
    values["lifted_positive_definite"] = np.maximum(
        _positive_definite_residual(data.G), _positive_definite_residual(data.H)
    )
    values["lifted_orthogonality"] = np.maximum(max_abs(back[:, :n, n:], 1), max_abs(back[:, n:, :n], 1))
    values["full_metric_blocks"] = np.maximum(
        max_abs(back[:, :n, :n] - data.G, 1), max_abs(back[:, n:, n:] - data.H, 1)
    )

    # Almost complex structure and fundamental form, in coordinates.
    J_ad = complex_structure.adapted_j_matrix(data)
    J_coord = frame_transform(J_ad, "ud", geo, to="coordinate")
    values["j_squared"] = max_abs(J_coord @ J_coord + np.eye(2 * n), 1)
    values["hermitian"] = max_abs(np.swapaxes(J_coord, -1, -2) @ S_coord @ J_coord - S_coord, 1)
    values["fundamental_form_blocks"] = complex_structure.fundamental_form_block_residual(S_ad @ J_ad)
    values["fundamental_form_closed"] = complex_structure.fundamental_form(step_geo, step_data)

    # Integrability dichotomy.
    closed_n = complex_structure.nijenhuis_closed_form(geo, data)
    values["nijenhuis_closed_form"] = max_abs(closed_n, 1)
    fd_n, off_distribution = complex_structure.nijenhuis_fd_full(geo, step_geo, step_data)
    values["nijenhuis_fd_match"] = np.maximum(max_abs(closed_n - fd_n, 1), off_distribution)

    if not profile.is_kahler:
        return values, None

    values["lifted_kahler_identity"] = lifted_metric.kahler_identity_residual(params, data)
    values["lifted_w_consistency"] = lifted_metric.w_consistency_residual(params, data)

    # Levi-Civita connection: closed forms against the Koszul oracle.
    jet, R_oracle_coord = curvature.curvature_oracle_coordinates(geo, step_geo, step_data)
    W = connection.coefficients_from_geometry(geo, data)
    match, nabla_g, torsion = connection.verify_connection(geo, W, jet)
    values.update(connection_match=list(zip(*match)), connection_nabla_g=nabla_g, connection_torsion=torsion)
    values["mtensor_parallel"] = np.maximum(*connection.mtensor_parallel_residuals(geo, step_data))

    # Curvature: the identity battery on the oracle output, so that it stands on its own,
    # then the closed blocks; the oracle's tensors are dropped before the odd sectors' tiles.
    R_oracle_ad = frame_transform(R_oracle_coord, "uddd", geo, to="adapted")
    values["curvature_bianchi"] = base_geometry.first_bianchi_residual(R_oracle_coord)
    values["curvature_pair_skew"] = curvature.pair_skew_residual(R_oracle_coord, S_coord)
    values["curvature_j_invariance"] = curvature.j_invariance_residual(R_oracle_ad, S_ad, J_ad)
    values["einstein_identity"], values["ricci_mixed_zero"] = curvature.einstein_residuals(
        geo, S_coord, R_oracle_coord
    )
    del jet, R_oracle_coord
    T, R_closed_ad, parallel = curvature.parallel_block_residuals(geo, W, step_geo, step_data)
    sectors = curvature.sector_residuals(R_closed_ad, R_oracle_ad, n)
    del R_oracle_ad
    values["curvature_match"] = list(zip(np.maximum.reduce(list(sectors.values())), _family_details(sectors)))
    values["curvature_antisymmetry"] = curvature.direction_antisymmetry_residual(R_closed_ad)
    values.update(parallel)
    del R_closed_ad
    hol, values["hol_sect_scale_invariance"] = curvature.holomorphic_sample(T, data.G, data.H, directions)
    return values, hol


def _family_details(sectors: dict[str, np.ndarray]) -> list[str]:
    """``curvature_match``'s detail at each point: every family's residual there."""
    return ["per-family residuals: " + ", ".join(f"{k}={v:.3e}" for k, v in zip(sectors, row))
            for row in zip(*sectors.values())]


def _worst_over_points(
    columns: dict[str, Sequence[Value]],
) -> dict[str, tuple[float, int, str | None]]:
    """Per check: the worst value over the points, its point, its detail.

    ``columns`` holds each check's values, entry k at point k.  The worst
    value is the first non-finite one if any point has one, so that no
    point's NaN is outvoted by the others, and otherwise the largest; ties
    keep the first point that reached it.
    """
    worst: dict[str, tuple[float, int, str | None]] = {}
    for name, column in columns.items():
        for idx, entry in enumerate(column):
            value, detail = entry if isinstance(entry, tuple) else (entry, None)
            value = float(value)
            if not math.isfinite(value):
                worst[name] = (value, idx, detail)
                break
            if idx == 0 or value > worst[name][0]:
                worst[name] = (value, idx, detail)
    return worst


def run_verify(cfg: RunConfig) -> VerifyReport:
    """The certification report over the run's sampled points.

    The points are validated as one stacked ``BundlePoint`` and split into
    ``fd.tiles`` of ``fd.WORKING_SET`` at the battery's bytes per point
    (``tile_point_bytes``), and ``evaluate_points`` evaluates each tile,
    every layer once per tile, holomorphic sampling included.  Tile sizes
    follow from n and the point count alone.  ``hol_sect_nonconstancy``
    spans the curvatures of every tile.
    """
    cfg.require_admissible()
    params = cfg.params
    profile = cfg.profile()
    points = BundlePoint(*sample_chart_points(params, cfg.num_points, cfg.seed))
    directions = sample_directions(params, cfg.num_directions, cfg.seed)

    columns: dict[str, list[Value]] = {}
    curvatures = []
    for tile in tiles(cfg.num_points, tile_point_bytes(params.dim)):
        values, hol = evaluate_points(params, BundlePoint(points.x[tile], points.p[tile]), profile, directions)
        for name, column in values.items():
            columns.setdefault(name, []).extend(column)
        curvatures.append(hol)
    worst = _worst_over_points(columns)
    if profile.is_kahler:
        hol = np.concatenate(curvatures)  # (points, directions)
        lo, hi = float(np.min(hol)), float(np.max(hol))
        peak_point = int(np.unravel_index(int(np.argmax(hol)), hol.shape)[0])
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
    T = curvature.curvature_blocks(geo, data)
    return geo.t, curvature.holomorphic_sectional_curvature(T, data.G, data.H, directions)


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Holomorphic sectional curvature over the sampled (point, direction) grid.

    Every closed form is evaluated once, on the stack of all sampled points:
    one ``geometry_at`` on the ``(points, n)`` arrays of
    ``sample_chart_points``, then the lifted blocks and the curvature
    families.  ``curvature.holomorphic_sectional_curvature`` builds the
    holomorphic form of every point straight from the families and the
    metric blocks, with no assembled ``(2n)⁴`` tensor and no loop over the
    points, and takes all curvatures in one product with the directions'
    monomials.  The result keeps the two arrays as they are: no
    ``BundlePoint`` and no row object is built.  A sampled point outside the
    tube is caught by the tube guard of ``components_from_geometry``, a zero
    direction by ``holomorphic_sectional_curvature`` and a non-finite value
    by ``SweepResult.to_csv``.
    """
    cfg.require_admissible()
    if cfg.custom_v_offset is not None:
        raise ConfigError("sweep requires the integrable lift profile")
    params = cfg.params
    xs, ps = sample_chart_points(params, cfg.num_points, cfg.seed)
    directions = sample_directions(params, cfg.num_directions, cfg.seed)
    t, values = _sweep_values(params, xs, ps, directions)
    return SweepResult(t=t, values=values)
