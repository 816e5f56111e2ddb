"""Workload table, one timed pass, and the correctness gate.

A pass is what the workload's CLI invocations do at its stated size: per
config, the library call (``run_verify`` or ``run_sweep``) followed by
serialization of its output (``VerifyReport.to_json`` / ``SweepResult.to_csv``).
The gate compares every check row or sweep row with the outcome this file
expects, independently of the library's own registry tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import kahler_tube
from kahler_tube import ModelParams, RunConfig
from kahler_tube.lifted_metric import tube_check
from kahler_tube.sampling import sample_directions, sample_points

DIRECTIONS = 100

#: Known defect: above this share of the tube's energy range, t/t_max, the
#: stacked-fd curvature oracle's ``curvature_pair_skew`` residual nears its
#: 1e-6 tolerance and then fails, from about 0.91 at (3,2,0.5) and about
#: 0.945 at (3,1,1) and (4,1,1), while the sampler's window reaches 0.95.
#: Up to 0.86 every measured point kept a margin of 5x or more.  Integrable
#: verify workloads therefore certify only seeds whose points all lie below
#: it, and ``edge_headroom`` measures the defect at a point above it.
CERTIFIED_FRACTION = 0.85
#: Distance between the library seeds tried for one benchmark seed, so that
#: distinct benchmark seeds below it never share inputs.
SEED_STRIDE = 1_000_003
#: The edge point: the first seed's first point of (3,2,0.5) at or above
#: this fraction.
EDGE_PARAMS = ModelParams(3, 2.0, 0.5)
EDGE_FRACTION = 0.93

#: The 46 checks every verify report lists, in report order.
CHECK_NAMES = (
    "base_metric_inverse", "base_christoffel_fd", "base_riemann_fd",
    "base_constant_curvature", "base_bianchi", "base_positive_definite",
    "bracket_vert_vert", "bracket_mixed", "bracket_horiz_horiz",
    "frame_dual_pairing", "frame_roundtrip", "energy_frame_derivative",
    "lifted_inverse_pair", "lifted_positive_definite", "lifted_orthogonality",
    "full_metric_blocks", "lifted_kahler_identity", "lifted_w_consistency",
    "j_squared", "hermitian", "fundamental_form_blocks", "fundamental_form_closed",
    "nijenhuis_closed_form", "nijenhuis_fd_match",
    "connection_match", "connection_nabla_g", "connection_torsion", "mtensor_parallel",
    "curvature_match", "curvature_antisymmetry", "curvature_bianchi",
    "curvature_pair_skew", "curvature_j_invariance",
    "einstein_identity", "ricci_mixed_zero", "local_symmetry",
    "parallel_hhh_horizontal", "parallel_hhh_vertical",
    "parallel_vvh_horizontal", "parallel_vvh_vertical",
    "parallel_vhh_horizontal", "parallel_vhh_vertical",
    "parallel_vhv_horizontal", "parallel_vhv_vertical",
    "hol_sect_scale_invariance", "hol_sect_nonconstancy",
)

#: Checks whose closed forms presuppose the integrable profile: an offset
#: profile must report them as skipped.
INTEGRABLE_ONLY = frozenset(
    {
        "lifted_kahler_identity", "lifted_w_consistency",
        "connection_match", "connection_nabla_g", "connection_torsion", "mtensor_parallel",
        "einstein_identity", "ricci_mixed_zero", "local_symmetry",
        "hol_sect_scale_invariance", "hol_sect_nonconstancy",
    }
    | {name for name in CHECK_NAMES if name.startswith(("curvature_", "parallel_"))}
)

#: The one check that fails under an offset profile: the integrability
#: dichotomy made visible.
OFFSET_FAILS = frozenset({"nijenhuis_closed_form"})

#: Passes when the value exceeds the tolerance; every other check is an
#: upper bound on a residual.
LOWER_BOUND = "hol_sect_nonconstancy"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "sweep"
    configs: tuple[tuple[int, float, float], ...]  # (dim, curvature, lift_const)
    points: int  # tube points per config in one pass
    offset: float | None = None


#: Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-matrix", "verify", ((3, 1.0, 1.0), (3, 2.0, 0.5), (4, 1.0, 1.0)), 2),
        Workload("verify-n5", "verify", ((5, 1.0, 1.0),), 1),
        Workload("sweep", "sweep", ((3, 1.0, 1.0),), 100),
        Workload("verify-offset", "verify", ((3, 1.0, 1.0),), 4, offset=0.1),
    )
}


def energy_fraction(params: ModelParams, point) -> float:
    """t/t_max of a tube point: its momentum norm over the tube bound."""
    check = tube_check(params, point)
    return check.momentum_norm_sq / check.bound


def _certified(configs: list[RunConfig]) -> bool:
    return all(
        energy_fraction(cfg.params, point) < CERTIFIED_FRACTION
        for cfg in configs
        for point in sample_points(cfg.params, cfg.num_points, cfg.seed)
    )


def build_configs(
    workload: Workload,
    seed: int,
    points: int | None = None,
    tolerance_overrides: dict[str, float] | None = None,
) -> list[RunConfig]:
    """The RunConfigs of one pass.

    The library's sampling seed is ``seed``, except on integrable verify
    workloads when a sampled point lies at or above ``CERTIFIED_FRACTION``:
    then it is the first of ``seed + k * SEED_STRIDE`` whose points all lie
    below it.
    """

    def configs(library_seed: int) -> list[RunConfig]:
        return [
            RunConfig(
                ModelParams(dim, curvature, lift),
                num_points=points or workload.points,
                num_directions=DIRECTIONS,
                seed=library_seed,
                custom_v_offset=workload.offset,
                tolerance_overrides=dict(tolerance_overrides or {}),
            )
            for dim, curvature, lift in workload.configs
        ]

    if workload.kind != "verify" or workload.offset is not None:
        return configs(seed)
    for k in itertools.count():
        candidate = configs(seed + k * SEED_STRIDE)
        if _certified(candidate):
            return candidate


def draw_samples(configs: list[RunConfig]) -> None:
    """Sample every config's tube points and directions, as a CLI run does."""
    for cfg in configs:
        sample_points(cfg.params, cfg.num_points, cfg.seed)
        sample_directions(cfg.params, cfg.num_directions, cfg.seed)


def run_one(workload: Workload, cfg: RunConfig) -> tuple:
    """The timed work for one config: the library call and serialization.

    Returns (result, text); an exception raised by the library is returned
    in place of the result so the gate can count it.
    """
    # Looked up on the package at call time, so a traced pass sees the
    # wrapped function.
    call = kahler_tube.run_verify if workload.kind == "verify" else kahler_tube.run_sweep
    try:
        result = call(cfg)
        text = result.to_json() if workload.kind == "verify" else result.to_csv()
    except Exception as exc:  # the gate counts a raising call as failed
        return exc, None
    return result, text


@dataclass
class Verdict:
    """Gate outcome of one pass."""

    attempted: int = 0
    failed: int = 0
    headroom: float = math.inf  # smallest log10 margin over checks expected to pass
    mismatches: list[str] = field(default_factory=list)


def _expected(name: str, offset: float | None) -> str:
    if offset is None:
        return "pass"
    if name in INTEGRABLE_ONLY:
        return "skipped"
    return "fail" if name in OFFSET_FAILS else "pass"


def _margin(name: str, residual: float, tolerance: float) -> float:
    if name == LOWER_BOUND:
        return math.log10(residual / tolerance) if residual > 0.0 else -math.inf
    if residual == 0.0 or tolerance == 0.0:
        return math.inf  # exact checks (zero residual, or a strict sign test)
    return math.log10(tolerance / residual)


def _gate_verify(workload: Workload, report, verdict: Verdict) -> None:
    mismatches = verdict.mismatches
    verdict.attempted += len(CHECK_NAMES) + 1
    if isinstance(report, Exception):
        verdict.failed += len(CHECK_NAMES) + 1
        mismatches.append(f"raised {type(report).__name__}: {report}")
        return
    rows = {row.name: row for row in report.checks}
    for name in CHECK_NAMES:
        row = rows.get(name)
        if row is None:
            outcome = "missing"
        elif row.status == "skipped":
            outcome = "skipped"
        elif row.status == "ran":
            outcome = "pass" if row.passed else "fail"
        else:
            outcome = row.status
        expected = _expected(name, workload.offset)
        if outcome != expected:
            verdict.failed += 1
            mismatches.append(f"{name}: {outcome}, expected {expected}")
        elif expected == "pass":
            verdict.headroom = min(
                verdict.headroom, _margin(name, row.max_residual, row.tolerance)
            )
    extra = sorted(set(rows) - set(CHECK_NAMES))
    verdict.attempted += len(extra)
    verdict.failed += len(extra)
    mismatches.extend(f"{name}: unexpected check" for name in extra)
    expected_verdict = "PASS" if workload.offset is None else "FAIL"
    if report.verdict != expected_verdict:
        verdict.failed += 1
        mismatches.append(f"verdict {report.verdict}, expected {expected_verdict}")


def _gate_sweep(cfg: RunConfig, sweep, csv: str | None, verdict: Verdict) -> None:
    expected_rows = cfg.num_points * cfg.num_directions
    # One outcome per expected row, one for the spread, one for the CSV layout.
    verdict.attempted += expected_rows + 2
    mismatches = verdict.mismatches
    if isinstance(sweep, Exception):
        verdict.failed += expected_rows + 2
        mismatches.append(f"raised {type(sweep).__name__}: {sweep}")
        return
    rows = sweep.rows
    bad_rows = abs(len(rows) - expected_rows) + sum(
        1 for r in rows[:expected_rows] if not (math.isfinite(r.value) and math.isfinite(r.t))
    )
    if bad_rows:
        mismatches.append(f"{bad_rows} sweep rows missing, extra or not finite")
    tol = cfg.tolerance(LOWER_BOUND)
    spread = sweep.relative_spread
    spread_ok = math.isfinite(spread) and spread > tol
    if not spread_ok:
        mismatches.append(f"relative spread {spread} does not exceed {tol}")
    lines = csv.splitlines()
    csv_ok = len(lines) == len(rows) + 2 and lines[-1].startswith("#summary,")
    if not csv_ok:
        mismatches.append("CSV is not a header, one line per row and a summary")
    verdict.failed += bad_rows + (not spread_ok) + (not csv_ok)
    if spread_ok:
        verdict.headroom = min(verdict.headroom, _margin(LOWER_BOUND, spread, tol))


def edge_headroom() -> tuple[float, dict]:
    """The known defect, measured: ``run_verify`` at the edge point.

    Returns the smallest ``log10(tolerance / max_residual)`` over the checks
    that ran, negative while any of them fails, and a description of the
    point.  It is reported, not gated.
    """
    seed = next(
        s for s in itertools.count()
        if energy_fraction(EDGE_PARAMS, sample_points(EDGE_PARAMS, 1, s)[0]) >= EDGE_FRACTION
    )
    cfg = RunConfig(EDGE_PARAMS, num_points=1, num_directions=DIRECTIONS, seed=seed)
    report = kahler_tube.run_verify(cfg)
    ran = [row for row in report.checks if row.status == "ran"]
    headroom = min(_margin(row.name, row.max_residual, row.tolerance) for row in ran)
    point = sample_points(EDGE_PARAMS, 1, seed)[0]
    return headroom, {
        "config": [EDGE_PARAMS.dim, EDGE_PARAMS.curvature, EDGE_PARAMS.lift_const],
        "seed": seed,
        "t_fraction": energy_fraction(EDGE_PARAMS, point),
        "verdict": report.verdict,
        "failing": [row.name for row in ran if not row.passed],
    }


def gate(workload: Workload, configs: list[RunConfig], outputs: list) -> Verdict:
    verdict = Verdict()
    for cfg, (result, text) in zip(configs, outputs):
        if workload.kind == "verify":
            _gate_verify(workload, result, verdict)
        else:
            _gate_sweep(cfg, result, text, verdict)
    return verdict
