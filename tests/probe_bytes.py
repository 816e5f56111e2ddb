"""Byte probe: one sha256 per verify report and sweep CSV, for byte-identity claims.

Not a test (pytest collects only ``test_*.py``).  At each seed it prints the
sha256 of:

- ``run_verify(...).to_json()`` at (3,1,1), (3,2,0.5) and (4,1,1) × 10
  points and at (5,1,1) × 3 points;
- ``run_verify(...).to_json()`` at (3,1,1) × 4 points with
  ``custom_v_offset=0.1``;
- ``run_sweep(...).to_csv()`` at (3,1,1), 100 points × 100 directions.

Two trees produce the same outputs exactly when they print the same lines.
BLAS and OpenMP pools are pinned to one thread unless the environment
already sets them.  Run it from the repository root:

    PYTHONPATH=src python tests/probe_bytes.py --seeds 1 7

Reports are byte-identical on one machine only: numpy may dispatch another
SIMD kernel for a transcendental ufunc elsewhere.
"""

import argparse
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib  # noqa: E402

from kahler_tube.base_geometry import ModelParams  # noqa: E402
from kahler_tube.checks import RunConfig, run_sweep, run_verify  # noqa: E402

#: (label, configuration keywords, sweep?) for every probed output.
OUTPUTS = (
    ("verify (3,1,1) x10", dict(params=ModelParams(3, 1.0, 1.0), num_points=10), False),
    ("verify (3,2,0.5) x10", dict(params=ModelParams(3, 2.0, 0.5), num_points=10), False),
    ("verify (4,1,1) x10", dict(params=ModelParams(4, 1.0, 1.0), num_points=10), False),
    ("verify (5,1,1) x3", dict(params=ModelParams(5, 1.0, 1.0), num_points=3), False),
    ("verify (3,1,1) x4 offset 0.1", dict(params=ModelParams(3), num_points=4, custom_v_offset=0.1), False),
    ("sweep (3,1,1) 100x100", dict(params=ModelParams(3), num_points=100, num_directions=100), True),
)


def digest(config: dict, seed: int, sweep: bool) -> str:
    """sha256 of the output that ``config`` at ``seed`` writes."""
    cfg = RunConfig(seed=seed, **config)
    text = run_sweep(cfg).to_csv() if sweep else run_verify(cfg).to_json()
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args()
    for seed in args.seeds:
        for label, config, sweep in OUTPUTS:
            print(f"seed {seed}  {label:<30} {digest(config, seed, sweep)}", flush=True)


if __name__ == "__main__":
    main()
