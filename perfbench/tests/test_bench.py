"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Every workload, run at a tiny size, emits every metric BENCHMARK.json
names; the correctness gate catches a planted failure; integrable verify
workloads sample below the known defect; the tracer wraps every binding of
a table function and reports a missing one as unmeasured.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def tiny(workload: str, trace: int, *extra: str) -> tuple[int, dict | None, str]:
    return run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--points", "1", *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload: str, trace: int) -> None:
    code, result, stderr = tiny(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        # Self times partition the traced pass: nothing outside a span but
        # the benchmark's own loop.
        assert 0.9 < result["metrics"]["trace.self_coverage"]["value"] <= 1.0
        assert result["metrics"]["trace.unmeasured"]["value"] == 0


@pytest.mark.parametrize(
    "workload, override",
    [
        ("verify-matrix", "einstein_identity=1e-30"),
        ("verify-offset", "fundamental_form_closed=1e-30"),
        ("sweep", "hol_sect_nonconstancy=10"),
    ],
)
def test_gate_catches_planted_failure(workload: str, override: str) -> None:
    code, result, _ = tiny(workload, 0, "--tol", override)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0  # failed_ratio
    assert result["metrics"]["agreement_ratio"]["value"] < 1.0


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None


@pytest.fixture()
def bench_path() -> None:
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


@pytest.fixture()
def spans_module(bench_path):
    import spans

    return spans


def test_integrable_verify_seeds_sample_below_the_known_defect(bench_path) -> None:
    import workloads as w
    from kahler_tube.sampling import sample_points

    # Seed 16 samples (3,2,0.5) at t/t_max = 0.945, where curvature_pair_skew fails.
    configs = w.build_configs(w.WORKLOADS["verify-matrix"], 16)
    assert configs[0].seed != 16 and (configs[0].seed - 16) % w.SEED_STRIDE == 0
    assert all(
        w.energy_fraction(cfg.params, pt) < w.CERTIFIED_FRACTION
        for cfg in configs
        for pt in sample_points(cfg.params, cfg.num_points, cfg.seed)
    )
    for name in ("verify-offset", "sweep"):
        assert w.build_configs(w.WORKLOADS[name], 16)[0].seed == 16


def test_tracer_wraps_every_binding_and_restores(spans_module) -> None:
    import numpy as np

    from kahler_tube import ModelParams, base_geometry, connection, fd

    original = fd.field_jacobian
    params = ModelParams(dim=3)
    tracer = spans_module.Tracer()
    with tracer.installed():
        assert connection.field_jacobian is fd.field_jacobian
        assert fd.field_jacobian is not original
        connection.koszul_oracle(base_geometry.metric_field(params), np.array([0.1, 0.2, 0.3]))
    assert connection.field_jacobian is original and fd.field_jacobian is original

    names = [s[0] for s in tracer.spans]
    assert names[0] == "connection.koszul_oracle"
    assert "fd.field_jacobian" in names and "base_geometry.metric_at" in names
    # 3 axes x 2 Richardson levels x 2 sides, plus the oracle's own evaluation.
    assert tracer.field_evals == 12
    assert names.count("base_geometry.metric_at") == 13
    root = tracer.spans[0]
    assert sum(tracer.self_times()) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_missing_function_is_unmeasured(spans_module, monkeypatch) -> None:
    table = dict(spans_module.LAYER_FUNCTIONS)
    table["fd"] = (*table["fd"], "no_such_function")
    monkeypatch.setattr(spans_module, "LAYER_FUNCTIONS", table)
    tracer = spans_module.Tracer()
    with tracer.installed():
        pass
    assert tracer.unmeasured == ["fd.no_such_function"]
