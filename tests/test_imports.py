"""The import structure of the package: every import of a package module
sits at module level, and those imports form no cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "su21_invariants"


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _package_modules(node) -> list:
    """The package modules a relative import statement names; [] for any
    other import."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_no_function_imports_a_package_module():
    found = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    for target in _package_modules(node):
                        found.append("%s.%s imports %s" % (name, func.name, target))
    assert not found


def test_module_imports_are_acyclic():
    trees = _trees()
    graph = {
        name: {target for node in tree.body for target in _package_modules(node)}
        for name, tree in trees.items()
    }
    assert all(graph[name] <= trees.keys() for name in graph), graph
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path + [name]))
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
