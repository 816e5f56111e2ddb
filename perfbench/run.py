"""Certification benchmark for kahler_tube.

    python3 perfbench/run.py --workload verify-matrix --seed 1 --seconds 25 --trace 0

Runs one workload of ``workloads.WORKLOADS`` through the public library
calls for ``--seconds`` seconds, gates every output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``spans.py`` with ``--trace 1``.  The line before it records the
machine and the raw per-pass figures.  Run from the repository root; the
library is imported from ``src/``.

Exit status: 0 when every output matched its expected outcome, 1 on any
mismatch, 2 when the kahler_tube sources are missing or an argument is
invalid.
"""

from __future__ import annotations

import time

from threads import THREAD_VARIABLES, pin_threads

pin_threads()  # before numpy is imported anywhere in this process

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Timed passes per run at least, after the warm-up pass.
MIN_PASSES = 5
#: Traced passes per traced run at least, each paired with an untraced one.
MIN_TRACED_PASSES = 2
#: Fresh processes whose set-up is timed for ``setup_s``.
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "pairs_per_s": "1/s",
    "agreement_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".ms_per_point"):
        return "ms/point"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    if name.endswith("_log10"):
        return "log10"
    return "count"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--points", type=int, default=None,
        help="tube points per config in one pass (default: the workload's stated size)",
    )
    parser.add_argument(
        "--tol", action="append", default=[], metavar="CHECK=VALUE",
        help="tolerance override passed to RunConfig (repeatable); for planting failures",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.points is not None and args.points < 1:
        parser.error("--points must be positive")
    overrides = {}
    for text in args.tol:
        name, _, value = text.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError:
            parser.error(f"--tol expects CHECK=VALUE, got {text!r}")
    args.tol = overrides
    return args


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARIABLES},
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1], "q3": q[2],
            "max": max(values)}


def probe_setup(args) -> float:
    """Set-up seconds of one fresh process (see setup_probe.py), host-normalised."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.points is not None:
        cmd += ["--points", str(args.points)]
    clock = Clock()
    with clock.block():
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
    return float(done.stdout.strip().splitlines()[-1]) * clock.scale


class Run:
    """One benchmark run: the seed's inputs, passed through the library again
    and again, every pass gated."""

    def __init__(self, workloads, workload, args) -> None:
        self.w = workloads
        self.workload = workload
        self.configs = workloads.build_configs(workload, args.seed, args.points, args.tol)
        self.points = sum(cfg.num_points for cfg in self.configs)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.headroom = math.inf
        self.mismatches: list[str] = []

    def timed_pass(self, tracer=None) -> Clock:
        """Time one pass (traced when a tracer is given) and gate its outputs."""
        clock = Clock()
        outputs = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            for cfg in self.configs:
                with clock.block():
                    outputs.append(self.w.run_one(self.workload, cfg))
        verdict = self.w.gate(self.workload, self.configs, outputs)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.headroom = min(self.headroom, verdict.headroom)
        self.mismatches.extend(f"pass {self.passes}: {m}" for m in verdict.mismatches)
        self.passes += 1
        return clock


def end_to_end(run: Run, args) -> tuple[dict, dict]:
    """Timed passes until ``--seconds`` is spent, with set-up probes in between.

    Times are in nominal-host seconds (reference.py).  Set-up probes are
    spread over the run rather than bunched at one end.
    """
    deadline = time.perf_counter() + args.seconds
    run.timed_pass()  # warm-up: first-call costs are not what a pass measures
    passes: list[Clock] = []
    setup: list[float] = []
    while True:
        passes.append(run.timed_pass())
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args))
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + typical > deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))
    seconds = statistics.median(p.seconds for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": run.points / seconds,
        "pairs_per_s": run.points * run.w.DIRECTIONS / seconds,
        "agreement_ratio": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"points_per_pass": run.points,
              "pass_s": quartiles([p.seconds for p in passes]),
              "pass_wall_s": quartiles([p.wall for p in passes]),
              "host_scale": quartiles([p.scale for p in passes]),
              "setup_s": quartiles(setup)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, detail


def per_layer(run: Run, args, spans) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; each layer figure is the median
    over the traced passes, its times in nominal-host milliseconds.  The
    edge point of the known defect (workloads.edge_headroom) is measured
    once, untimed."""
    edge, edge_point = run.w.edge_headroom()
    deadline = time.perf_counter() + args.seconds
    run.timed_pass()  # warm-up
    plain: list[Clock] = []
    traced: list[Clock] = []
    layers: list[dict] = []
    unmeasured: list[str] = []
    while True:
        plain.append(run.timed_pass())
        tracer = spans.Tracer()
        clock = run.timed_pass(tracer)
        traced.append(clock)
        figures = spans.layer_metrics(tracer, run.points, clock.wall)
        layers.append({k: v * clock.scale if layer_unit(k).startswith("ms") else v
                       for k, v in figures.items()})
        unmeasured = tracer.unmeasured
        pair = statistics.median(p.wall for p in plain) + statistics.median(p.wall for p in traced)
        if len(traced) >= MIN_TRACED_PASSES and time.perf_counter() + pair > deadline:
            break
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                       / statistics.median(p.seconds for p in plain))
    metrics["checks.min_headroom_log10"] = run.headroom if math.isfinite(run.headroom) else 0.0
    metrics["checks.edge_headroom_log10"] = edge
    detail = {"points_per_pass": run.points, "edge": edge_point,
              "plain_s": quartiles([p.seconds for p in plain]),
              "traced_s": quartiles([p.seconds for p in traced]),
              "unmeasured": unmeasured}
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, detail


def main(argv=None) -> int:
    if not (SRC / "kahler_tube" / "__init__.py").is_file():
        print(f"perfbench: no kahler_tube package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kahler_tube

    if Path(kahler_tube.__file__).resolve().parent != (SRC / "kahler_tube").resolve():
        print(f"perfbench: imported kahler_tube from {kahler_tube.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    try:
        run = Run(workloads, workloads.WORKLOADS[args.workload], args)
    except kahler_tube.ConfigError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, detail = per_layer(run, args, spans)
    else:
        metrics, detail = end_to_end(run, args)
    detail.update(workload=args.workload, seed=args.seed, passes=run.passes,
                  mismatches=run.mismatches[:20], machine=machine())
    print(json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
