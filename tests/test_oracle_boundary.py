"""Oracle-boundary gate: no oracle reaches a closed form under certification.

The finite-difference oracles certify the closed forms, so they must never
read one (the boundary is stated in ``kahler_tube.connection``'s module
docstring).  This gate follows, on the package source in pure ``ast``,
every chain of calls and attribute reads from the oracles' entry points
and fails if one reaches a closed form in ``FORBIDDEN``.

Resolution rules:

- In a function body a name resolves when it is loaded and not bound in the
  function (an argument, an assignment, a loop or comprehension target, a
  nested definition): to the module-level function, class or variable it
  names, directly or through a package import.  So the local ``gamma`` of
  ``curvature._koszul_curvature`` is never the property ``gamma``.
  Annotations in function bodies are not read.
- ``module.name`` on a package module resolves to that module's name; any
  other attribute read records its attribute name.
- A class is reached when a reached function names it (to construct it)
  or when an entry point's argument annotation names it (the objects an
  oracle is handed).  A reached class reaches its constructor
  (``__init__``, ``__post_init__``, class-level defaults) and only those of
  its properties and methods whose name some reached function reads as an
  attribute.  A reached module-level variable reaches what its value
  expression reaches.
"""

import ast
from collections import deque
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kahler_tube"

#: The oracles' entry points.
ENTRY_POINTS = (
    "curvature.curvature_from_metric_field",
    "curvature.curvature_oracle_coordinates",
    "connection.koszul_oracle",
    "connection.koszul_jet",
    "complex_structure.nijenhuis_fd_full",
    "base_geometry.metric_field",
    "lifted_metric.metric_field",
)

#: The closed forms under certification: functions and properties.
FORBIDDEN = frozenset({
    "curvature.curvature_blocks",
    "curvature.assemble_adapted_curvature",
    "connection.coefficients_from_geometry",
    "complex_structure.nijenhuis_closed_form",
    "curvature.holomorphic_form",
    "frames.frame_structure_functions",
    "base_geometry.BaseMetricData.gamma",
    "base_geometry.BaseMetricData.dgamma",
    "base_geometry.BaseMetricData.riem",
    "frames.PointGeometry.riem_p",
    "frames.PointGeometry.dM",
})

#: The object's own definition, which the oracles evaluate: the gate's
#: resolution must reach each of these, or it resolves too little.
DEFINITION = (
    "base_geometry.metric_at",
    "base_geometry.momentum_gamma",
    "lifted_metric.components_from_geometry",
    "lifted_metric.coordinate_metric",
    "frames.PointGeometry.M",
    "complex_structure.adapted_j_matrix",
)

_CONSTRUCTORS = ("__init__", "__post_init__", "__new__")


def _children(node: ast.AST):
    """Child nodes of ``node``, without annotations."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                yield item


def _walk(nodes):
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def _bound_names(nodes) -> set[str]:
    """Names bound anywhere in ``nodes``: arguments, stores, nested definitions, local imports."""
    bound = set()
    for node in _walk(nodes):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


class Package:
    """The symbol tables of a package's modules, from their sources."""

    def __init__(self, sources: dict[str, str]) -> None:
        # module -> name -> ("def", node) | ("class", node) | ("var", value) | ("import", module, name)
        # | ("module", module)
        self.symbols: dict[str, dict[str, tuple]] = {}
        for module, source in sources.items():
            table = self.symbols[module] = {}
            for node in ast.parse(source).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table[node.name] = ("def", node)
                elif isinstance(node, ast.ClassDef):
                    table[node.name] = ("class", node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            table[target.id] = ("var", node.value)
                elif isinstance(node, ast.ImportFrom) and self._package_module(node) is not None:
                    source_module = self._package_module(node)
                    for alias in node.names:
                        name = alias.asname or alias.name
                        if source_module == "" and alias.name in sources:
                            table[name] = ("module", alias.name)
                        else:
                            table[name] = ("import", source_module or "__init__", alias.name)

    @staticmethod
    def _package_module(node: ast.ImportFrom) -> str | None:
        """The package module an import reads from ("" for the package itself), None outside it."""
        if node.level:
            return node.module or ""
        if node.module == "kahler_tube":
            return ""
        if node.module and node.module.startswith("kahler_tube."):
            return node.module.removeprefix("kahler_tube.")
        return None

    def resolve(self, module: str, name: str) -> tuple[str, tuple] | None:
        """``(qualified name, symbol)`` of ``name`` in ``module``, following package imports."""
        symbol = self.symbols.get(module, {}).get(name)
        while symbol is not None and symbol[0] == "import":
            module, name = symbol[1], symbol[2]
            symbol = self.symbols.get(module, {}).get(name)
        return None if symbol is None else (f"{module}.{name}", symbol)

    def members(self, qualified: str) -> dict[str, ast.FunctionDef]:
        module, _, name = qualified.rpartition(".")
        node = self.symbols[module][name][1]
        return {item.name: item for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def reads(self, module: str, nodes) -> tuple[list[str], set[str]]:
        """The package objects ``nodes`` reach by name and the attribute names they read."""
        nodes = list(nodes)
        local = _bound_names(nodes)
        objects, attributes = [], set()
        for node in _walk(nodes):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
                found = self.resolve(module, node.id)
                if found is not None and found[1][0] != "module":
                    objects.append(found[0])
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                found = None
                if isinstance(owner, ast.Name) and owner.id not in local:
                    found = self.resolve(module, owner.id)
                if found is not None and found[1][0] == "module":
                    target = self.resolve(found[1][1], node.attr)
                    if target is not None:
                        objects.append(target[0])
                else:
                    attributes.add(node.attr)
        return objects, attributes

    def body(self, qualified: str) -> tuple[str, list[ast.AST]]:
        """The module and the nodes that reaching ``qualified`` evaluates."""
        module, _, name = qualified.partition(".")
        if "." in name:  # a class member
            owner, _, member = name.partition(".")
            node = self.members(f"{module}.{owner}")[member]
            return module, [node.args, *node.body]
        kind, node = self.symbols[module][name][:2]
        if kind == "def":
            return module, [node.args, *node.body]
        if kind == "var":
            return module, [node]
        # a class: its constructor, class-level values and package base classes
        nodes = list(node.bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name in _CONSTRUCTORS:
                    nodes += [item.args, *item.body]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)) and item.value is not None:
                nodes.append(item.value)
        return module, nodes

    def reach(self, entry_points) -> dict[str, str | None]:
        """Everything the entry points reach, each mapped to what first reached it."""
        parent: dict[str, str | None] = {entry: None for entry in entry_points}
        queue = deque(entry_points)
        classes: set[str] = set()
        readers: dict[str, str] = {}  # attribute name -> first reached object reading it

        def add(qualified: str, by: str) -> None:
            if qualified not in parent:
                parent[qualified] = by
                queue.append(qualified)

        for entry in entry_points:
            for qualified in self.argument_classes(entry):
                add(qualified, entry)

        while queue:
            current = queue.popleft()
            module, nodes = self.body(current)
            objects, attributes = self.reads(module, nodes)
            for qualified in objects:
                add(qualified, current)
            if self._is_class(current):
                classes.add(current)
                for member in self.members(current):
                    if member in readers:
                        add(f"{current}.{member}", readers[member])
            for attribute in attributes - readers.keys():
                readers[attribute] = current
                for owner in classes:
                    if attribute in self.members(owner):
                        add(f"{owner}.{attribute}", current)
        return parent

    def argument_classes(self, qualified: str) -> list[str]:
        """The package classes that the annotations of a function's arguments name."""
        module, _, name = qualified.partition(".")
        node = self.symbols[module][name][1]
        annotations = [arg.annotation for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        names = [n.id for a in annotations if a is not None for n in ast.walk(a) if isinstance(n, ast.Name)]
        found = [self.resolve(module, name) for name in names]
        return [f[0] for f in found if f is not None and f[1][0] == "class"]

    def _is_class(self, qualified: str) -> bool:
        module, _, name = qualified.partition(".")
        return "." not in name and self.symbols[module][name][0] == "class"


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def violations(sources: dict[str, str]) -> list[str]:
    """Each forbidden closed form that an entry point reaches, as its chain of reads."""
    parent = Package(sources).reach(ENTRY_POINTS)
    chains = []
    for target in sorted(FORBIDDEN & parent.keys()):
        chain = [target]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chains.append(" -> ".join(reversed(chain)))
    return chains


def test_no_oracle_reaches_a_closed_form() -> None:
    assert violations(package_sources()) == []


def test_the_oracles_reach_the_objects_definition() -> None:
    reached = Package(package_sources()).reach(ENTRY_POINTS)
    assert [name for name in DEFINITION if name not in reached] == []


def test_gate_flags_a_planted_call_of_curvature_blocks() -> None:
    # A later definition replaces an earlier one, as it does at import.
    sources = package_sources()
    sources["curvature"] += (
        "\n\ndef curvature_oracle_coordinates(geo, step_geo, step_data):\n"
        "    return curvature_blocks(step_geo, step_data)\n"
    )
    assert violations(sources) == [
        "curvature.curvature_oracle_coordinates -> curvature.curvature_blocks",
    ]


def test_gate_follows_chains_across_modules_properties_and_module_attributes() -> None:
    sources = package_sources()
    sources["lifted_metric"] += (
        "\n\ndef _leak(geo):\n"
        "    return geo.riem_p\n"
        "\n\ndef metric_field(params):\n"
        "    def field(z):\n"
        "        geo = geometry_at(params, z[..., :3], z[..., 3:])\n"
        "        return _leak(geo)\n"
        "    return field\n"
    )
    sources["complex_structure"] += (
        "\n\nfrom . import connection as _connection\n"
        "\n\ndef nijenhuis_fd_full(geo, step_geo, step_data):\n"
        "    return _connection.coefficients_from_geometry(geo, step_data)\n"
    )
    found = violations(sources)
    assert "complex_structure.nijenhuis_fd_full -> connection.coefficients_from_geometry" in found
    assert "lifted_metric.metric_field -> lifted_metric._leak -> frames.PointGeometry.riem_p" in found
    # the closed connection reads the base Christoffels in turn
    assert "complex_structure.nijenhuis_fd_full -> connection.coefficients_from_geometry" \
        " -> base_geometry.BaseMetricData.gamma" in found


def test_gate_ignores_local_names() -> None:
    # Locals named like closed forms are not closed forms.
    sources = package_sources()
    sources["connection"] += (
        "\n\ndef koszul_jet(values, batch_ndim):\n"
        "    gamma = riem_p = values\n"
        "    curvature_blocks = lambda dM: dM\n"
        "    return curvature_blocks(gamma + riem_p)\n"
    )
    assert violations(sources) == []


def test_gate_flags_a_planted_read_of_the_frame_derivative() -> None:
    # dM is a member of the geometry that every oracle is handed: the gate
    # flags an oracle's read of it, and the closed forms it reads in turn.
    sources = package_sources()
    sources["complex_structure"] += (
        "\n\ndef nijenhuis_fd_full(geo: PointGeometry, step_geo: PointGeometry, step_data):\n"
        "    return frame_transform(step_geo.dM, 'udd', geo, to='adapted'), 0.0\n"
    )
    chain = "complex_structure.nijenhuis_fd_full -> frames.PointGeometry.dM"
    assert violations(sources) == [
        f"{chain} -> base_geometry.BaseMetricData.dgamma",
        f"{chain} -> base_geometry.BaseMetricData.gamma",
        chain,
    ]
