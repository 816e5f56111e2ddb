"""Name gate: every function the benchmark traces is a package attribute.

``perfbench/spans.py`` wraps the functions of its ``LAYER_FUNCTIONS`` table
by name, and a name that no longer resolves is silently reported as
unmeasured (``trace.unmeasured``), so a rename loses its layer's figures
without a failure.  The table is read from its file here, unedited.  Seven
names in it are stale: their functions were deleted from the package, and
they are listed below so that the list can only shrink.  A stale name that
resolves again fails the gate too, and must leave the list.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: Traced names whose functions are gone from the package.
STALE = (
    "fd.directional_derivative",
    "fd.partial_derivative",
    "fd.lie_bracket",
    "fd.exterior_derivative_two_form",
    "complex_structure.j_matrix",
    "curvature.curvature_blocks_closed_form",
    "connection.coefficients_closed_form",
)


def _traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [f"{module}.{name}" for module, names in spans.LAYER_FUNCTIONS.items() for name in names]


def _resolves(name: str) -> bool:
    module, _, path = name.partition(".")
    target = importlib.import_module(f"kahler_tube.{module}")
    for attr in path.split("."):
        target = getattr(target, attr, None)
        if target is None:
            return False
    return callable(target)


NAMES = _traced_names()


@pytest.mark.parametrize("name", [name for name in NAMES if name not in STALE])
def test_traced_name_resolves(name: str) -> None:
    assert _resolves(name)


@pytest.mark.parametrize("name", STALE)
def test_stale_traced_name_is_still_missing(name: str) -> None:
    assert name in NAMES
    assert not _resolves(name), f"{name} resolves again: drop it from STALE"
