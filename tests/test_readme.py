"""README.md: the python blocks of "Library use" run, in order, as one session."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order() -> None:
    # Later blocks read names (np, params, BundlePoint, pt) that earlier
    # blocks define, so they share one namespace, as in a notebook.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 4
    namespace: dict = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)
