"""Every top-level definition in ``src/pillowcase`` is reached from
``cli.main``.

The walk is by name: a reached definition reaches every top-level
definition, in any module, whose name it mentions as a name or an attribute.
Imports alone reach nothing.  This over-counts what a command runs (a
mention in an unused branch counts), so it can only miss dead code, never
flag live code.  The benchmark harness in ``perfbench/`` reads a few names
that no command reaches; those are read from its files, not listed here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pillowcase"
PERFBENCH = ROOT / "perfbench"


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned names of a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _mentions(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def package_definitions() -> dict[tuple[str, str], ast.AST]:
    """(module, name) -> defining node, over every module of the package."""
    return {(path.stem, name): node
            for path in sorted(PACKAGE.glob("*.py"))
            for name, node in _definitions(ast.parse(path.read_text())).items()}


def reached(defs: dict[tuple[str, str], ast.AST],
            root=("cli", "main")) -> set[tuple[str, str]]:
    by_name: dict[str, list[tuple[str, str]]] = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    seen, todo = {root}, [root]
    while todo:
        for name in _mentions(defs[todo.pop()]):
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return seen


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, name) pairs the benchmark harness reads from the package:
    the tracer's ``LAYERS`` rows, and attributes taken off a module imported
    ``from pillowcase`` in the child process and the harness tests."""
    out = set()
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tracer.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            out |= {(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts}
    for path in [PERFBENCH / "child.py", *sorted(PERFBENCH.glob("tests/*.py"))]:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pillowcase":
                modules.update({a.asname or a.name: a.name
                                for a in node.names})
        out |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules}
    return out


def unreached() -> list[str]:
    defs = package_definitions()
    live = reached(defs) | perfbench_reads()
    return sorted(f"{m}.{n}" for m, n in defs.keys() - live)


def test_every_package_definition_is_reached_from_the_cli():
    assert unreached() == []


def test_an_added_unreached_function_is_found():
    defs = package_definitions()
    extra = ast.parse("def _orphan():\n    return main()\n")
    defs[("cli", "_orphan")] = extra.body[0]
    assert ("cli", "_orphan") not in reached(defs)
