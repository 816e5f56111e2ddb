"""Slack probe: how close each thresholded check comes to its tolerance.

Not a test (pytest collects only ``test_*.py``).  It runs ``run_verify`` at
(3,1,1), (3,2,0.5) and (4,1,1) × 10 points for every seed in ``--seeds``
(default 0 to 59) and prints, for each row with a positive upper tolerance
(43 of the battery's 46: not the lower-bound row ``hol_sect_nonconstancy``
nor the two positive-definiteness rows at tolerance 0), the worst
``max_residual / tolerance`` over all runs, largest first, with the config
and seed that reached it.  A ratio above 1 is a failing row; the first line
counts them.  BLAS and OpenMP pools are pinned to one thread unless the
environment already sets them.  Run it from the repository root:

    PYTHONPATH=src python tests/probe_slack.py
"""

import argparse
import math
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from kahler_tube.base_geometry import ModelParams  # noqa: E402
from kahler_tube.checks import CHECKS, RunConfig, run_verify  # noqa: E402

CONFIGS = (ModelParams(3, 1.0, 1.0), ModelParams(3, 2.0, 0.5), ModelParams(4, 1.0, 1.0))

#: The rows that pass by staying at or below a positive tolerance.
THRESHOLDED = tuple(check.name for check in CHECKS if not check.lower_bound and check.tolerance > 0.0)


def worst_ratios(seeds: list[int], points: int) -> dict[str, tuple[float, str]]:
    """Each thresholded row's worst ``max_residual / tolerance`` and the run that reached it."""
    worst = {name: (0.0, "") for name in THRESHOLDED}
    for params in CONFIGS:
        label = f"({params.dim},{params.curvature:g},{params.lift_const:g})"
        for seed in seeds:
            for row in run_verify(RunConfig(params, num_points=points, seed=seed)).checks:
                if row.name in worst:
                    ratio = row.max_residual / row.tolerance
                    if not ratio <= worst[row.name][0]:  # a NaN ratio is kept
                        worst[row.name] = (ratio, f"{label} seed {seed}")
    return worst


def _largest_first(item: tuple[str, tuple[float, str]]) -> float:
    ratio = item[1][0]
    return -math.inf if math.isnan(ratio) else -ratio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=[0, 60], metavar=("FIRST", "STOP"))
    parser.add_argument("--points", type=int, default=10)
    args = parser.parse_args()
    worst = worst_ratios(list(range(*args.seeds)), args.points)
    failing = sum(not ratio <= 1.0 for ratio, _ in worst.values())
    print(f"{failing} of {len(worst)} thresholded rows fail")
    print("| check | worst residual / tolerance | reached at |")
    print("| --- | --- | --- |")
    for name, (ratio, where) in sorted(worst.items(), key=_largest_first):
        print(f"| {name} | {ratio:.3g} | {where} |")


if __name__ == "__main__":
    main()
