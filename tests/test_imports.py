"""The import structure of the package: every import of a package module
sits at module level, and those imports form no cycle; no module reads a
private name of another; importing the command line loads none of the
standard library's heavy introspection modules; and every memo of the
package is read again by the default run."""

import ast
import os
import subprocess
import sys
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


def _is_private(name) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_a_private_name_of_another():
    """A leading underscore marks a name as its module's own business:
    another module may not import it (``from .x import _name``) nor read
    it off an imported module (``from . import x [as y]``, then
    ``y._name``)."""
    found = []
    for name, tree in _trees().items():
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.append("%s reads %s.%s" % (name, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _is_private(node.attr)
            ):
                found.append("%s reads %s.%s" % (name, modules[node.value.id], node.attr))
    assert not found, sorted(set(found))


# Modules the package does not need, each of which would add to the start-up
# of every command: ``dataclasses`` loads the other four.
_HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_introspection_modules():
    """Start-up cost guarded by structure, not by a timing: a fresh
    interpreter without ``site`` (which may load any of them itself)
    imports the command line and must not have loaded any of these."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import su21_invariants.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(PACKAGE.parent), *_HEAVY_MODULES],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# Runs the default suite in a fresh interpreter, then prints one line per
# memo of a package module that it never read again.
_UNREAD_MEMOS = """
import importlib, sys
from su21_invariants import suites
suites.run_suite("all")
for stem in sys.argv[1:]:
    module = importlib.import_module("su21_invariants." + stem)
    for name, func in vars(module).items():
        info = getattr(func, "cache_info", None)
        if info and func.__module__ == module.__name__ and info().hits < 1:
            print("%s.%s %d hits / %d misses" % (stem, name, info().hits, info().misses))
"""


def test_every_memo_is_read_again_by_verify_all():
    """A memo lives as long as the process, so the default run, ``verify
    all``, must read every one of them again (``cache_info().hits >= 1``):
    a memo it never reads again only holds memory."""
    src = str(PACKAGE.parent)
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run(
        [sys.executable, "-c", _UNREAD_MEMOS, *sorted(_trees())],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    offenders = done.stdout.splitlines()
    assert not offenders, "memos never read again:\n" + "\n".join(offenders)
