"""Import footprint: a verify and a sweep load no module they do not use.

``numpy.random`` alone pulls in eight extension modules and, through
``secrets``, ``hashlib`` and OpenSSL's ``_hashlib``: several megabytes of
resident memory and milliseconds of start-up in every process.  The sampler
draws from the standard library's ``random``, which numpy imports anyway.
The gate reads ``sys.modules`` in a fresh interpreter, not a memory figure,
so it is deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import kahler_tube
from kahler_tube.base_geometry import ModelParams
from kahler_tube.checks import RunConfig, run_sweep, run_verify
run_verify(RunConfig(ModelParams(3, 1.0, 1.0), num_points=1, seed=1))
run_sweep(RunConfig(ModelParams(3, 1.0, 1.0), num_points=2, num_directions=3, seed=1))
print(json.dumps(sorted(sys.modules)))
"""

#: Modules that a verify and a sweep must not load.
ABSENT = ("numpy.random", "secrets", "hashlib", "_hashlib")


def test_a_verify_and_a_sweep_load_no_numpy_random_nor_hashlib() -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(result.stdout))
    assert "kahler_tube.sampling" in loaded
    assert [name for name in ABSENT if name in loaded] == []
