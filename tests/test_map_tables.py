"""Each map is declared once, in its ``bijections._MAPS`` record.  Any other
dict display in the package keyed by two or more ``BijectionKind`` members
is a new per-map table; its entries belong in a field of ``_Map``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubeball"


def _is_kind(key):
    return (
        isinstance(key, ast.Attribute)
        and isinstance(key.value, ast.Name)
        and key.value.id == "BijectionKind"
    )


def _kind_keyed_dicts():
    """(file, line, assigned to _MAPS) of each dict display keyed by two or
    more ``BijectionKind.<member>`` attributes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        maps = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "_MAPS"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and sum(map(_is_kind, node.keys)) >= 2:
                found.append((path.name, node.lineno, id(node) in maps))
    return sorted(found)


def test_maps_is_the_only_kind_keyed_table():
    found = _kind_keyed_dicts()
    others = [f"{name}:{line}" for name, line, is_maps in found if not is_maps]
    assert not others, others
    assert [name for name, _, is_maps in found if is_maps] == ["bijections.py"]
