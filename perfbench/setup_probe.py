"""Time one fresh-process set-up: import kahler_tube, build the configs, sample.

Prints the elapsed seconds.  ``run.py`` starts this file several times, one
process after another, and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload verify-matrix --seed 1
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from threads import pin_threads  # noqa: E402

pin_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports kahler_tube and numpy)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points", type=int, default=None)
    args = parser.parse_args()
    configs = workloads.build_configs(workloads.WORKLOADS[args.workload], args.seed, args.points)
    workloads.draw_samples(configs)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
