"""Dead-code gate: every module-level import and definition is used.

A name imported at module level must be referenced in the module or listed
in its ``__all__`` (which is how ``__init__.py`` re-exports).  A private
module-level definition (a ``_name`` function, class or assignment) must be
referenced in its own module, and no module imports a private name from
another package module: what two modules share is public.  A public
module-level function or class must be referenced by some package module,
by name or as an attribute, or be listed in the package ``__all__``.  A
public method or property of a package class must be read as an attribute
somewhere in the package or in ``perfbench``.  No public ``verify_*``,
``nijenhuis_*``, ``*_residual`` or ``*_residuals`` function, nor one listed
in ``NAMED_RESIDUALS``, is annotated to return a package-defined class: the
layers hand the battery plain floats, arrays and tuples of them.  Pure
``ast``, so the gate needs no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kahler_tube"
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))

#: Residual layers whose names the return-type rule's patterns miss.  The
#: benchmark traces ``complex_structure.fundamental_form`` by that name, so
#: its rename to a ``*_residual`` name waits for the next benchmark change.
NAMED_RESIDUALS = frozenset({"fundamental_form"})


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level imported name -> line number (``__future__`` excluded)."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return [
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used and name not in exported
    ]


def unused_private_definitions(source: str) -> list[str]:
    tree = ast.parse(source)
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        defined[name.id] = node.lineno
    return [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


def unreferenced_public_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Public module-level functions and classes that no module references.

    ``sources`` maps module names to their text.  A definition counts as
    referenced when any of the modules loads its name or an attribute of
    that name; ``exported`` names the public API kept for library users.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced | exported
    ]


def unread_public_members(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public methods and properties of ``sources``' classes that no reader reads.

    ``sources`` maps module names to their text; ``readers`` are the texts
    searched for an attribute load of each member's name.
    """
    read = {
        node.attr
        for reader in readers
        for node in ast.walk(ast.parse(reader))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{cls.name}.{member.name} (line {member.lineno})"
        for module, source in sources.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and member.name not in read
    ]


def private_package_imports(source: str) -> list[str]:
    """Private names imported from another package module, at any depth."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def record_returning_residuals(sources: dict[str, str]) -> list[str]:
    """Public verify/residual/Nijenhuis functions whose return annotation names a package class.

    ``sources`` maps module names to their text; a package class is a
    module-level class definition in any of them.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and (
            node.name.startswith(("verify_", "nijenhuis_"))
            or node.name.endswith(("_residual", "_residuals"))
            or node.name in NAMED_RESIDUALS
        )
        and node.returns is not None
        and any(isinstance(name, ast.Name) and name.id in classes for name in ast.walk(node.returns))
    ]


def test_gate_flags_an_unused_import() -> None:
    source = "import numpy as np\nfrom typing import Callable, Any\n\nx: Any = np.pi\n"
    assert unused_imports(source) == ["Callable (line 2)"]
    assert unused_imports("from .fd import Derivative\n__all__ = ['Derivative']\n") == []


def test_gate_flags_an_unused_private_definition() -> None:
    source = (
        "import numpy as np\n"
        "_EPS = 1e-12\n"
        "_ORPHAN: float = 2.0\n"
        "__version__ = '1'\n"
        "def _nijenhuis_core(x):\n    return x\n"
        "class _Cache:\n    pass\n"
        "def _used():\n    return _EPS\n"
        "def public():\n    return _used()\n"
    )
    assert unused_private_definitions(source) == [
        "_ORPHAN (line 3)", "_nijenhuis_core (line 5)", "_Cache (line 7)",
    ]


def test_gate_flags_a_private_package_import() -> None:
    source = (
        "from __future__ import annotations\n"
        "from numpy import _NoValue\n"
        "from .fd import _EPS, complex_jacobian\n"
        "from kahler_tube.connection import coefficients_from_geometry\n"
        "def public():\n"
        "    from kahler_tube.curvature import _blocks\n"
        "    from .frames import __doc__\n"
        "    return _EPS, _blocks\n"
    )
    assert private_package_imports(source) == ["_EPS (line 3)", "_blocks (line 6)"]


def test_gate_flags_an_unreferenced_public_definition() -> None:
    sources = {
        "geometry": (
            "def evaluate():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def dead():\n    return 2\n"
            "class Report:\n    pass\n"
            "class Orphan:\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "checks": "from . import geometry\nVALUE = geometry.evaluate()\ndead = 3\n",
    }
    assert unreferenced_public_definitions(sources, {"Report"}) == [
        "geometry.dead (line 5)", "geometry.Orphan (line 9)",
    ]


def test_gate_flags_an_unread_public_member() -> None:
    sources = {
        "params": (
            "class Params:\n"
            "    dim: int = 3\n"
            "    def __post_init__(self):\n        pass\n"
            "    @property\n    def admissible(self):\n        return True\n"
            "    def violation(self):\n        return None\n"
            "    def _helper(self):\n        return 1\n"
            "    def spread(self):\n        return 0.0\n"
            "def spread():\n    return 1.0\n"
        ),
    }
    readers = [
        sources["params"],
        "from .params import Params, spread\nP = Params()\nP.violation()\nspread()\n",
        "def run(p):\n    p.admissible = False\n",
    ]
    assert unread_public_members(sources, readers) == [
        "params.Params.admissible (line 6)", "params.Params.spread (line 12)",
    ]


def test_gate_flags_a_residual_returning_a_record() -> None:
    sources = {
        "records": "class Comparison:\n    pass\nclass NijenhuisData:\n    pass\n",
        "layers": (
            "from .records import Comparison, NijenhuisData\n"
            "def verify_pair(x) -> Comparison:\n    return Comparison()\n"
            "def torsion_residual(x) -> float:\n    return 0.0\n"
            "def block_residuals(x) -> tuple[Comparison, float]:\n    return Comparison(), 0.0\n"
            "def _worst_residual(x) -> Comparison:\n    return Comparison()\n"
            "def compare(x) -> Comparison:\n    return Comparison()\n"
            "def verify_flat(x) -> tuple[tuple[float, str], float]:\n    return (0.0, ''), 0.0\n"
            "class Frame:\n"
            "    def pairing_residual(self) -> Frame:\n        return self\n"
            "def nijenhuis_closed_form(geo, data) -> NijenhuisData:\n    return NijenhuisData()\n"
            "def nijenhuis_fd_full(geo, profile) -> tuple[np.ndarray, float]:\n    return np.zeros(1), 0.0\n"
            "def fundamental_form(geo, data) -> Comparison:\n    return Comparison()\n"
            "def fundamental_form_closed(geo, data) -> Comparison:\n    return Comparison()\n"
        ),
    }
    assert record_returning_residuals(sources) == [
        "layers.verify_pair (line 2)",
        "layers.block_residuals (line 6)",
        "layers.nijenhuis_closed_form (line 17)",
        "layers.fundamental_form (line 21)",
        "layers.pairing_residual (line 15)",
    ]


def test_package_has_modules() -> None:
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path: Path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path: Path) -> None:
    assert unused_private_definitions(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_package_imports(path: Path) -> None:
    assert private_package_imports(path.read_text(encoding="utf-8")) == []


def test_no_unreferenced_public_definitions() -> None:
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    exported = _exported(ast.parse(sources["__init__"]))
    assert unreferenced_public_definitions(sources, exported) == []


def test_every_public_member_is_read() -> None:
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = list(sources.values()) + [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert unread_public_members(sources, readers) == []


def test_residual_functions_return_no_record() -> None:
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert record_returning_residuals(sources) == []
