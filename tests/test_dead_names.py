"""A module-level private name or constant in src/cubeball that no module of
the package reads is dead code."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubeball"


def _checked(name):
    private = name.startswith("_") and not name.startswith("__")
    return private or name.isupper()


def test_no_dead_module_level_names():
    defined = {}
    loaded = set()
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    dead = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if _checked(name) and name not in loaded
    )
    assert not dead, dead
