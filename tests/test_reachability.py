"""Every top-level definition in ``src/pillowcase``, and every method and
property of its classes, is reached from ``cli.main``.

The walk is by name: a reached definition reaches every definition, in any
module, whose name it mentions as a name or an attribute.  A class's
methods and properties are definitions of their own, so a reached class
does not reach them; its dunder methods (``__post_init__`` among them) run
implicitly and are read as part of the class.  Imports alone reach
nothing.  This over-counts what a command runs (a mention in an unused
branch counts), so it can only miss dead code, never flag live code.  The
benchmark harness in ``perfbench/`` reads a few names that no command
reaches; those are read from its files, not listed here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pillowcase"
PERFBENCH = ROOT / "perfbench"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_member(node: ast.AST) -> bool:
    """Whether a class-body node is a method or property of its own."""
    return isinstance(node, FUNCTIONS) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned names of a module, and the
    methods and properties of its classes as ``Class.name``."""
    out = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            out[node.name] = node
            if isinstance(node, ast.ClassDef):
                out.update({f"{node.name}.{m.name}": m for m in node.body
                            if _is_member(m)})
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _mentions(node: ast.AST) -> set[str]:
    """Names and attributes a definition mentions; a class's own members
    are left to their own definitions."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list,
                 *(n for n in node.body if not _is_member(n))]
    return {n.id if isinstance(n, ast.Name) else n.attr
            for part in parts for n in ast.walk(part)
            if isinstance(n, (ast.Name, ast.Attribute))}


def package_definitions() -> dict[tuple[str, str], ast.AST]:
    """(module, name) -> defining node, over every module of the package."""
    return {(path.stem, name): node
            for path in sorted(PACKAGE.glob("*.py"))
            for name, node in _definitions(ast.parse(path.read_text())).items()}


def reached(defs: dict[tuple[str, str], ast.AST],
            root=("cli", "main")) -> set[tuple[str, str]]:
    by_name: dict[str, list[tuple[str, str]]] = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    seen, todo = {root}, [root]
    while todo:
        for name in _mentions(defs[todo.pop()]):
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return seen


def perfbench_reads(defs) -> set[tuple[str, str]]:
    """Definitions the benchmark harness reads from the package: the
    tracer's ``LAYERS`` rows, the members its outcome counters read off a
    layer's result, and attributes taken off a module imported ``from
    pillowcase`` in the child process and the harness tests."""
    out = set()
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    counters = set()
    for node in tracer.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            out |= {(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts}
            counters |= {row.elts[3].id for row in node.value.elts
                         if isinstance(row.elts[3], ast.Name)}
    read = {n.attr for node in tracer.body
            if isinstance(node, ast.FunctionDef) and node.name in counters
            for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    out |= {key for key in defs
            if "." in key[1] and key[1].rpartition(".")[2] in read}
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
    live = reached(defs) | perfbench_reads(defs)
    return sorted(f"{m}.{n}" for m, n in defs.keys() - live)


def test_every_package_definition_is_reached_from_the_cli():
    assert unreached() == []


def test_an_added_unreached_function_is_found():
    defs = package_definitions()
    extra = ast.parse("def _orphan():\n    return main()\n")
    defs[("cli", "_orphan")] = extra.body[0]
    assert ("cli", "_orphan") not in reached(defs)


def test_an_unmentioned_method_is_found():
    defs = package_definitions()
    box = ast.parse("class _Box:\n"
                    "    def __post_init__(self):\n        self.used()\n"
                    "    def used(self):\n        pass\n"
                    "    def unused(self):\n        pass\n").body[0]
    defs[("cli", "_Box")] = box
    defs.update({("cli", f"_Box.{m.name}"): m for m in box.body[1:]})
    defs[("cli", "main")] = ast.parse("def main():\n    _Box()\n").body[0]
    live = reached(defs)
    assert {("cli", "_Box"), ("cli", "_Box.used")} <= live
    assert ("cli", "_Box.unused") not in live
    # read only by the benchmark tracer's fiber-product counter
    assert ("compose", "Branch.fold_crossings") in perfbench_reads(defs)
