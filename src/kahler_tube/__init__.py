"""Numerical certification of a Kähler–Einstein structure on a cotangent tube.

The package builds, over a constant-positive-curvature base in a single
conformal chart, the lifted metric/complex-structure pair on a tube in the
punctured cotangent bundle, and checks every structural identity (metric
compatibility, integrability, connection and curvature closed forms, the
Einstein equation, parallel curvature, non-constant holomorphic sectional
curvature) against independent oracles: complex-step derivatives of the
analytic fields, plus one central-difference Jacobian per curvature oracle,
of the complex-step Christoffel field.

Entry points: :func:`run_verify` / :func:`run_sweep` (library),
``kahler-tube`` (console script).
"""

from .base_geometry import DomainError, ModelParams, metric_at
from .checks import (
    DEFAULT_TOLERANCES,
    ConfigError,
    RunConfig,
    run_sweep,
    run_verify,
)
from .frames import BundlePoint, frame_transform, geometry_at, point_geometry
from .lifted_metric import (
    KAHLER,
    LiftProfile,
    TubeCheck,
    tube_check,
)
from .report import SweepResult, VerifyReport

__all__ = [
    "BundlePoint",
    "ConfigError",
    "DEFAULT_TOLERANCES",
    "DomainError",
    "KAHLER",
    "LiftProfile",
    "ModelParams",
    "RunConfig",
    "SweepResult",
    "TubeCheck",
    "VerifyReport",
    "frame_transform",
    "geometry_at",
    "metric_at",
    "point_geometry",
    "run_sweep",
    "run_verify",
    "tube_check",
]

__version__ = "1.0.0"
