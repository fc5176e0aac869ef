"""Every Python file of the project parses with the Python 3.10 grammar, the
oldest that pyproject.toml accepts.

This checks grammar only (``except*`` or a type-parameter list fails it); a
call into a library function added after 3.10 still passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_with_python_3_10_grammar():
    paths = sorted(
        p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
    )
    assert paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
