"""Span tracing of kahler_tube's public functions, installed from outside.

``LAYER_FUNCTIONS`` is the one table of (module, public function) pairs that
the traced run measures.  ``Tracer.installed()`` replaces each function in
every kahler_tube module namespace that binds it (``from .fd import
field_jacobian`` makes ``connection.field_jacobian`` a binding of its own),
records one span per call, and restores the originals on exit.  A function
missing from its module is listed in ``Tracer.unmeasured`` instead of
raising, so a later refactor that renames it shows up as unmeasured.

Evaluation counts are in points evaluated: the leading batch size of the
point argument, 1 for a single point, so a batched evaluator reports in
the same unit as the scalar one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from typing import Callable

import numpy as np

#: module -> public functions wrapped in the traced run.  A ``Class.method``
#: entry wraps the method on its class.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "sampling": ("sample_base_coordinates", "sample_points", "sample_directions"),
    "base_geometry": ("metric_at", "verify_constant_curvature", "first_bianchi_residual"),
    "frames": (
        "geometry_at", "point_geometry", "frame_transform",
        "verify_brackets", "energy_frame_derivatives",
    ),
    "lifted_metric": ("components_from_geometry", "kahler_identity_residual", "w_consistency_residual"),
    "fd": (
        "directional_derivative", "partial_derivative", "field_jacobian",
        "lie_bracket", "exterior_derivative_two_form",
    ),
    "connection": (
        "koszul_oracle", "verify_connection", "mtensor_parallel_residuals",
        "coefficients_closed_form", "connection_to_adapted",
    ),
    "complex_structure": (
        "j_matrix", "fundamental_form", "fundamental_form_block_residual",
        "nijenhuis_closed_form", "nijenhuis_fd_full",
    ),
    "curvature": (
        "curvature_from_metric_field", "curvature_oracle_coordinates",
        "curvature_blocks_closed_form", "assemble_adapted_curvature", "sector_residuals",
        "einstein_residuals", "covariant_derivative_residual",
        "parallel_block_residuals", "holomorphic_sample",
    ),
    "checks": ("run_verify", "run_sweep"),
    "report": ("VerifyReport.to_json", "SweepResult.to_csv"),
}

#: Function -> name of the argument holding the evaluated point(s).
POINT_ARGUMENT = {
    "base_geometry.metric_at": "x",
    "frames.geometry_at": "x",
    "lifted_metric.components_from_geometry": "geo",
}

PACKAGE = "kahler_tube"


def batch_size(value) -> int:
    """Points in a point argument: 1 for one point, the leading sizes for a batch."""
    value = getattr(value, "x", value)
    shape = np.shape(value)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    """Spans of one traced pass: name, start, end, parent, points evaluated."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, points]
        self.stack: list[int] = []
        self.field_evals = 0
        self.unmeasured: list[str] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, point_pos: int | None, point_name: str | None):
        counts_fields = name.startswith("fd.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_fields:
                args = tuple(self._counted(a) for a in args)
                kwargs = {k: self._counted(v) for k, v in kwargs.items()}
            points = 0
            if point_name is not None:
                points = batch_size(args[point_pos] if len(args) > point_pos else kwargs[point_name])
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, points]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def _counted(self, value):
        """Wrap a field callable handed to fd so its evaluations are counted."""
        if not callable(value) or isinstance(value, type) or getattr(value, "_counted", False):
            return value

        def field(z, *args, **kwargs):
            self.field_evals += batch_size(z)
            return value(z, *args, **kwargs)

        field._counted = True
        return field

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every table function in every namespace binding it; undo on exit."""
        package_modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        undo: list[tuple[object, str, object]] = []
        self.unmeasured = []
        try:
            for module_name, functions in LAYER_FUNCTIONS.items():
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
                for qualname in functions:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(home, owner_name, None) if owner_name else home
                    original = getattr(owner, attr, None) if owner is not None else None
                    if not callable(original):
                        self.unmeasured.append(f"{module_name}.{qualname}")
                        continue
                    name = f"{module_name}.{qualname}"
                    point_name = POINT_ARGUMENT.get(name)
                    point_pos = None
                    if point_name is not None:
                        point_pos = list(inspect.signature(original).parameters).index(point_name)
                    wrapper = self._span(name, original, point_pos, point_name)
                    targets = [owner] if owner_name else package_modules
                    for target in targets:
                        for key, value in list(vars(target).items()):
                            if value is original:
                                undo.append((target, key, value))
                                setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def has_ancestor(self, index: int, names: frozenset[str]) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(tracer: Tracer, points: int, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass of ``points`` tube points.

    ``*.ms_per_point`` is the inclusive time of the outermost calls of the
    named function divided by the pass's points; ``*.self_ms``, ``*.evals``,
    ``*.calls`` and ``*.ms`` are totals over the pass.
    """
    spans = tracer.spans
    own = tracer.self_times()
    self_ms: dict[str, float] = {}
    evals: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        self_ms[s[0]] = self_ms.get(s[0], 0.0) + 1e3 * t
        evals[s[0]] = evals.get(s[0], 0) + s[4]
        calls[s[0]] = calls.get(s[0], 0) + 1

    def inclusive_ms(names: set[str], outside: set[str] = frozenset()) -> float:
        """Inclusive time of calls to ``names`` not nested in ``names | outside``."""
        stop = frozenset(names | outside)
        return 1e3 * sum(
            s[2] - s[1]
            for i, s in enumerate(spans)
            if s[0] in names and not tracer.has_ancestor(i, stop)
        )

    def module_self(module: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(module + "."))

    def per_point(name: str, outside: set[str] = frozenset()) -> float:
        return inclusive_ms({name}, outside) / points

    out = {
        "sampling.ms": inclusive_ms({f"sampling.{f}" for f in LAYER_FUNCTIONS["sampling"]}),
        "base_geometry.metric_at.evals": evals.get("base_geometry.metric_at", 0),
        "base_geometry.metric_at.self_ms": self_ms.get("base_geometry.metric_at", 0.0),
        "frames.geometry_at.evals": evals.get("frames.geometry_at", 0),
        "frames.geometry_at.self_ms": self_ms.get("frames.geometry_at", 0.0),
        "frames.frame_transform.calls": calls.get("frames.frame_transform", 0),
        "frames.frame_transform.self_ms": self_ms.get("frames.frame_transform", 0.0),
        "frames.verify_brackets.ms_per_point": per_point("frames.verify_brackets"),
        "lifted_metric.components_from_geometry.evals":
            evals.get("lifted_metric.components_from_geometry", 0),
        "lifted_metric.components_from_geometry.self_ms":
            self_ms.get("lifted_metric.components_from_geometry", 0.0),
        "fd.field_evals": tracer.field_evals,
        "fd.directional_derivative.calls": calls.get("fd.directional_derivative", 0),
        "fd.self_ms": module_self("fd"),
        "connection.koszul_oracle.calls": calls.get("connection.koszul_oracle", 0),
        "connection.verify_connection.ms_per_point": per_point("connection.verify_connection"),
        "connection.mtensor_parallel.ms_per_point":
            per_point("connection.mtensor_parallel_residuals"),
        "complex_structure.nijenhuis_fd.ms_per_point":
            per_point("complex_structure.nijenhuis_fd_full"),
        "complex_structure.fundamental_form.ms_per_point":
            per_point("complex_structure.fundamental_form"),
        "curvature.oracle.ms_per_point": per_point("curvature.curvature_oracle_coordinates"),
        # The base-chart Riemann check calls the same fd routine directly.
        "curvature.base_riemann_fd.ms_per_point": per_point(
            "curvature.curvature_from_metric_field",
            {"curvature.curvature_oracle_coordinates", "curvature.covariant_derivative_residual"},
        ),
        "curvature.local_symmetry.ms_per_point":
            per_point("curvature.covariant_derivative_residual"),
        "curvature.parallel_blocks.ms_per_point": per_point("curvature.parallel_block_residuals"),
        "curvature.holomorphic_sample.ms_per_point": per_point("curvature.holomorphic_sample"),
        "checks.run_verify.self_ms": self_ms.get("checks.run_verify", 0.0),
        "checks.run_sweep.self_ms": self_ms.get("checks.run_sweep", 0.0),
        "report.serialize_ms": module_self("report"),
    }
    for module in ("sampling", "base_geometry", "frames", "lifted_metric",
                   "connection", "complex_structure", "curvature"):
        out[f"{module}.self_ms"] = module_self(module)
    out["trace.self_coverage"] = 1e-3 * sum(self_ms.values()) / wall
    out["trace.unmeasured"] = len(tracer.unmeasured)
    return out
