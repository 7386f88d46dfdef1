"""The package keeps only code that runs: no module of src/vertexwalk/
imports a name it never uses, and every private function or method (a
name with one leading underscore) is referenced somewhere in the package
besides its own body and reads every parameter but self or cls. Tests
reach the package through its public names or the private ones the
package itself uses, so a helper that only tests call belongs in tests/,
not in src/."""

import ast
from pathlib import Path

import vertexwalk

SRC = Path(vertexwalk.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(tree: ast.AST) -> list[str]:
    """Every name read in tree: bare names, attribute names, and the
    entries of a module-level __all__."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names tree binds by an import and never reads."""
    used = set(_referenced(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def unreferenced_private_functions(modules: dict[str, ast.Module]) -> list[str]:
    """module:name of every private function or method that no code of
    the package reads outside the function's own body."""
    everywhere: dict[str, int] = {}
    for tree in modules.values():
        for name in _referenced(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    dead = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            own = _referenced(node).count(name)
            if everywhere.get(name, 0) <= own:
                dead.append(f"{module}:{name}")
    return dead


def unread_private_parameters(modules: dict[str, ast.Module]) -> list[str]:
    """module:function:parameter of every parameter, other than self or
    cls, that a private function or method never reads in its body."""
    unread = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread.extend(
                f"{module}:{node.name}:{a.arg}"
                for a in params
                if a.arg not in ("self", "cls") and a.arg not in read
            )
    return unread


def test_no_module_imports_an_unused_name():
    # An import in __init__.py is the package's export.
    found = {m: unused_imports(t) for m, t in MODULES.items() if m != "__init__.py"}
    assert not {m: names for m, names in found.items() if names}


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(MODULES) == []


def test_every_private_parameter_is_read():
    assert unread_private_parameters(MODULES) == []


def test_the_guard_finds_what_it_looks_for():
    tree = ast.parse(
        "import json\nfrom os import path, sep\n"
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _used(unread, *args, k=0, **kw):\n    return sep, args, lambda: k + kw\n"
        "def public(unread):\n    return 0\n"
        "class C:\n    def _method(self, flag):\n        return _used(1)\n"
    )
    assert unused_imports(tree) == ["json", "path"]
    assert unreferenced_private_functions({"m.py": tree}) == ["m.py:_dead", "m.py:_method"]
    assert unread_private_parameters({"m.py": tree}) == [
        "m.py:_used:unread",
        "m.py:_method:flag",
    ]
