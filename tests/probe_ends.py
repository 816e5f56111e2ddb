"""Tube-ends probe: how each check fares at explicit points near both ends of the tube.

Not a test (pytest collects only ``test_*.py``).  For (3,1,1), (3,2,0.5) and
(4,1,1) and each energy fraction ``t/t_max`` in ``FRACTIONS`` (``t_max =
2c/A²``) it evaluates the battery (``evaluate_points``) on two explicit
points of that energy: the chart origin and a fixed point off it, each with
a fixed momentum direction scaled to the energy.  The tangent directions are
the 2n unit vectors and their pairwise sums.  Nothing is sampled, so the
table does not move when the sampler's stream does.

It prints, per configuration, each thresholded row's worst
``max_residual / tolerance`` over the two points at each fraction (the 43
rows with a positive upper tolerance), then one line for each row that
fails, the three untabled rows included, and for each fraction whose
evaluation raises ``DomainError``.  BLAS and OpenMP pools are pinned to
one thread unless the environment already sets them.  Run it from the
repository root:

    PYTHONPATH=src python tests/probe_ends.py
"""

import argparse
import itertools
import math
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from kahler_tube.base_geometry import DomainError, ModelParams, metric_at  # noqa: E402
from kahler_tube.checks import CHECKS, evaluate_points  # noqa: E402
from kahler_tube.frames import BundlePoint  # noqa: E402
from kahler_tube.lifted_metric import KAHLER  # noqa: E402
from kahler_tube.report import relative_spread  # noqa: E402

CONFIGS = (ModelParams(3, 1.0, 1.0), ModelParams(3, 2.0, 0.5), ModelParams(4, 1.0, 1.0))

FRACTIONS = (1e-3, 0.01, 0.5, 0.99, 0.999, 0.9999)

#: The rows that pass by staying at or below a positive tolerance.
THRESHOLDED = tuple(check.name for check in CHECKS if not check.lower_bound and check.tolerance > 0.0)


def ends_points(params: ModelParams, fraction: float) -> BundlePoint:
    """The origin and ``0.4 (1, -1, 1, …)/√n``, each with momentum along ``(1, 2, …, n)`` at ``t = fraction · t_max``."""
    n = params.dim
    xs = np.stack([np.zeros(n), 0.4 * (-1.0) ** np.arange(n) / math.sqrt(n)])
    xi = np.broadcast_to(np.arange(1.0, n + 1.0), (2, n))
    t = fraction * 2.0 * params.curvature / params.lift_const**2
    g_inv_xi = np.einsum("kij,kj->ki", metric_at(params, xs).g_inv, xi)
    return BundlePoint(xs, xi * np.sqrt(2.0 * t / np.einsum("ki,ki->k", xi, g_inv_xi))[:, None])


def ends_directions(m: int) -> np.ndarray:
    """The ``m`` unit vectors of the adapted frame and their pairwise sums, as rows."""
    eye = np.eye(m)
    return np.concatenate([eye, [eye[i] + eye[j] for i, j in itertools.combinations(range(m), 2)]])


def worst_values(params: ModelParams, fraction: float) -> dict[str, float]:
    """Every check's worst value over the two points, a NaN first; raises the battery's ``DomainError``."""
    columns, hol = evaluate_points(params, ends_points(params, fraction), KAHLER, ends_directions(2 * params.dim))
    worst = {}
    for name, column in columns.items():
        values = [float(entry[0] if isinstance(entry, tuple) else entry) for entry in column]
        worst[name] = next((v for v in values if not math.isfinite(v)), max(values))
    worst["hol_sect_nonconstancy"] = relative_spread(float(np.min(hol)), float(np.max(hol)))
    return worst


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    failures = []
    for params in CONFIGS:
        label = f"({params.dim},{params.curvature:g},{params.lift_const:g})"
        cells = {name: [] for name in THRESHOLDED}
        for fraction in FRACTIONS:
            try:
                worst = worst_values(params, fraction)
            except DomainError as exc:
                failures.append(f"{label} t/t_max={fraction:g}: raises DomainError: {exc}")
                for column in cells.values():
                    column.append("raises")
                continue
            for check in CHECKS:
                if check.name in cells:
                    cells[check.name].append(f"{worst[check.name] / check.tolerance:.3g}")
                if not check.passes(worst[check.name], check.tolerance):
                    failures.append(
                        f"{label} t/t_max={fraction:g}: {check.name} {worst[check.name]:.3g} (tolerance {check.tolerance:g})"
                    )
        print(f"{label}: worst residual / tolerance")
        print("| check | " + " | ".join(f"{f:g}" for f in FRACTIONS) + " |")
        print("| --- |" + " --- |" * len(FRACTIONS))
        for name, column in cells.items():
            print(f"| {name} | " + " | ".join(column) + " |")
        print()
    print(f"{len(failures)} failing rows or raising evaluations")
    for line in failures:
        print(line)


if __name__ == "__main__":
    main()
