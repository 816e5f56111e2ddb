"""Scale probe: time, memory and page faults of one warm verify point at growing n.

Not a test (pytest collects only ``test_*.py``).  For each ``(n, 1, 1)`` it
runs ``run_verify`` on one point once to warm up, then prints per warm point:

- the median wall time over ``--repeats`` runs, in ms;
- the tracemalloc peak of one run, in MB;
- the minor page faults (``ru_minflt``) of one run.

BLAS and OpenMP pools are pinned to one thread unless the environment
already sets them, so the figures do not depend on the pool size.  Run it
from the repository root:

    PYTHONPATH=src python tests/probe_scale.py --dims 5 8 12 16 --seed 7

At n = 16 one point takes about a second and 120 MB.
"""

import argparse
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

from kahler_tube.base_geometry import ModelParams  # noqa: E402
from kahler_tube.checks import RunConfig, run_verify  # noqa: E402


def probe(dim: int, seed: int, repeats: int) -> tuple[float, float, int]:
    """``(median ms, tracemalloc peak MB, minor faults)`` of one warm ``(dim, 1, 1)`` verify point."""
    cfg = RunConfig(ModelParams(dim), num_points=1, seed=seed)
    run_verify(cfg)  # warm caches and the allocator
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_verify(cfg)
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_verify(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        run_verify(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * statistics.median(times), peak / 1e6, faults


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[5, 8, 12, 16])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print("| n | ms/point | tracemalloc peak (MB) | minor faults |")
    print("| --- | --- | --- | --- |")
    for dim in args.dims:
        ms, peak, faults = probe(dim, args.seed, args.repeats)
        print(f"| {dim} | {ms:.1f} | {peak:.3f} | {faults} |", flush=True)


if __name__ == "__main__":
    main()
