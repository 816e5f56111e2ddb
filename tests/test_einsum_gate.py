"""Contraction gate: no multi-operand einsum that sums an index.

Without ``optimize``, ``np.einsum`` evaluates every operand in one nested
loop over all indices, so ``"abcd,bz,ae,ew->wzcd"`` costs ``m⁸`` where
three pairwise contractions cost ``m⁵``.  The gate fails on any einsum in
the package with three or more operands and an index summed away, unless
the call passes ``optimize=``.  Outer products with three or more operands
and no summed index (``"...i,...j,...h->...ijh"``) loop over the output
only and stay allowed.  A subscript that is not a string literal cannot be
checked, so a three-operand call with one is flagged too.  Pure ``ast``.
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


def _sums_an_index(subscripts: str) -> bool:
    spec = subscripts.replace("...", "").replace(" ", "")
    inputs, arrow, output = spec.partition("->")
    letters = inputs.replace(",", "")
    if not arrow:  # implicit mode: the output keeps the letters seen once
        output = "".join(c for c in letters if letters.count(c) == 1)
    return any(c not in output for c in letters)


def multi_operand_contractions(source: str) -> list[str]:
    """Einsum calls with three or more operands that sum an index, unoptimized."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_einsum(node.func)) or len(node.args) < 4:
            continue
        if any(keyword.arg == "optimize" for keyword in node.keywords):
            continue
        spec = node.args[0]
        if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
            if not _sums_an_index(spec.value):
                continue
            label = spec.value
        else:
            label = "<non-literal subscripts>"
        flagged.append(f"{label} (line {node.lineno})")
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
    assert multi_operand_contractions(source) == [
        "abcd,bz,ae,ew->wzcd (line 2)",
        "...a,ab,...b->... (line 4)",
        "<non-literal subscripts> (line 7)",
        "i,i,i (line 9)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_multi_operand_contractions(path: Path) -> None:
    assert multi_operand_contractions(path.read_text(encoding="utf-8")) == []
