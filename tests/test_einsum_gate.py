"""Contraction gate: no einsum with three or more operands.

Without ``optimize``, ``np.einsum`` evaluates every operand in one nested
loop over all indices, so ``"abcd,bz,ae,ew->wzcd"`` costs ``m⁸`` where
three pairwise contractions cost ``m⁵``.  Outer products that sum no index
(``"...i,...j,...h->...ijh"``) loop over the output only, but that loop is
still slow: a four-operand outer product on the ``(10, 5, 5, 5, 5)`` complex
step stack of the curvature families took about 222 µs where the same
product by broadcasting took about 20 µs.  So the gate fails on any einsum
in the package with three or more operands, unless the call passes
``optimize=``; write a contraction as pairwise steps and an outer product
by broadcasting.  Pure ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kahler_tube"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_einsum(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "einsum") or (
        isinstance(func, ast.Name) and func.id == "einsum"
    )


def multi_operand_einsums(source: str) -> list[str]:
    """Einsum calls with three or more operands, unoptimized."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_einsum(node.func)) or len(node.args) < 4:
            continue
        if any(keyword.arg == "optimize" for keyword in node.keywords):
            continue
        spec = node.args[0]
        literal = isinstance(spec, ast.Constant) and isinstance(spec.value, str)
        flagged.append(f"{spec.value if literal else '<non-literal subscripts>'} (line {node.lineno})")
    return flagged


def test_gate_flags_a_multi_operand_contraction() -> None:
    source = (
        "import numpy as np\n"
        "a = np.einsum('abcd,bz,ae,ew->wzcd', R, J, S, J)\n"
        "b = np.einsum('...i,...j,...h,...k->...ijkh', x, y, z, w)\n"
        "c = np.einsum('...a,ab,...b->...', X, S, X)\n"
        "d = np.einsum('ij,jk,kl->il', A, B, C, optimize=True)\n"
        "e = np.einsum('ij,jk->ik', A, B)\n"
        "f = np.einsum(spec, A, B, C)\n"
        "g = np.einsum(f'{s},...j', A, B)\n"
        "h = np.einsum('i,i,i', x, y, z)\n"
        "k = np.einsum('i,j,k', x, y, z)\n"
    )
    assert multi_operand_einsums(source) == [
        "abcd,bz,ae,ew->wzcd (line 2)",
        "...i,...j,...h,...k->...ijkh (line 3)",
        "...a,ab,...b->... (line 4)",
        "<non-literal subscripts> (line 7)",
        "i,i,i (line 9)",
        "i,j,k (line 10)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_multi_operand_contractions(path: Path) -> None:
    assert multi_operand_einsums(path.read_text(encoding="utf-8")) == []
