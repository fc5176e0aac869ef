"""A module-level private name or constant in src/cubeball that no module of
the package reads is dead code, and so is a function, class or method of the
package that nothing in the repository's code reads, and an import that
its module never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubeball"
READERS = ("src", "tests", "scripts", "perfbench")


def _loaded(paths):
    """Every name read as a Name load, an attribute or an import alias."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return loaded


def _checked(name):
    private = name.startswith("_") and not name.startswith("__")
    return private or name.isupper()


def test_no_dead_module_level_names():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, path.name)
    loaded = _loaded(PACKAGE.glob("*.py"))
    dead = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if _checked(name) and name not in loaded
    )
    assert not dead, dead


def test_no_unread_functions_classes_or_methods():
    loaded = _loaded(p for d in READERS for p in (ROOT / d).rglob("*.py"))
    unread = sorted(
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in loaded
    )
    assert not unread, unread


def test_no_unused_imports():
    # __init__.py's imports are its re-exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{bound}")
    assert not unused, unused
