"""The ``repro.sim.shards`` package's module graph, read from the source.

Each module owns one decision and imports go one way: ``engine`` uses
``plan``, ``plane`` and ``wire``; ``wire`` uses ``plane`` alone (the
worker registry); ``plan`` and ``plane`` use nothing of the package, and
``plane`` touches no pipe, socket or codec.  The package re-exports its
public names only, so a private name has one home, the module a test
patches; and every module logs to the one ``repro.sim.shards`` logger.
"""

import ast
import pathlib

import repro.sim.shards

PACKAGE = pathlib.Path(repro.sim.shards.__file__).parent

#: Module -> the package modules it may import, exactly.
GRAPH = {
    "plan": set(),
    "plane": set(),
    "wire": {"plane"},
    "engine": {"plan", "plane", "wire"},
}

#: Modules the plane market may not import, at any depth.
PLANE_FORBIDDEN = {"socket", "select", "struct", "json", "multiprocessing"}


def _tree(name):
    return ast.parse((PACKAGE / ("%s.py" % name)).read_text())


def _imports(tree):
    """``(package modules, other top-level modules)`` that ``tree``
    imports anywhere, functions included."""
    package, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.sim.shards."):
                    package.add(alias.name.split(".")[3])
                else:
                    other.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                if module:
                    package.add(module.split(".")[0])
                else:
                    package.update(alias.name for alias in node.names)
            elif module.startswith("repro.sim.shards"):
                parts = module.split(".")
                if len(parts) > 3:
                    package.add(parts[3])
                else:
                    package.update(alias.name for alias in node.names)
            elif node.level == 0:
                other.add(module.split(".")[0])
    return package, other


def test_the_package_is_its_four_modules():
    found = {path.stem for path in PACKAGE.glob("*.py")}
    assert found == set(GRAPH) | {"__init__"}


def test_imports_go_one_way():
    for name, allowed in GRAPH.items():
        package, _ = _imports(_tree(name))
        assert package == allowed, name


def test_the_plane_touches_no_wire():
    _, other = _imports(_tree("plane"))
    assert not other & PLANE_FORBIDDEN, other & PLANE_FORBIDDEN


def test_the_package_exports_no_private_name():
    tree = _tree("__init__")
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {name for name in imported if name.startswith("_")}
    assert set(repro.sim.shards.__all__) <= imported


def test_every_module_logs_to_the_package_logger():
    for name in [*GRAPH, "__init__"]:
        for node in ast.walk(_tree(name)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "getLogger"
            ):
                assert len(node.args) == 1, name
                arg = node.args[0]
                assert isinstance(arg, ast.Constant), name
                assert arg.value == "repro.sim.shards", name
