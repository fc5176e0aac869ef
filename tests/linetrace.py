"""The lines of ``src/cubeball`` that a pytest run never executes.

An opt-in plugin on the stdlib tracer, for Python 3.11:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces every frame of the package's files in this process and its
threads, and at the end prints, as ``file:line: source``, each line that
some code object of those files holds (``co_lines()``) and that no frame
ran.  Code that runs only in a child process, such as ``__main__.py``,
``cli.main`` and ``cli._exit_after``, is listed too.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubeball"
_ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None
    ran = _ran.setdefault(frame.f_code.co_filename, set())
    ran.add(frame.f_lineno)  # a call runs the function's first line, its RESUME

    def line(frame, event, arg):
        ran.add(frame.f_lineno)
        return line

    return line


def _held(code):
    """The line numbers of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _held(const)
    return lines


def pytest_configure(config):
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        never = sorted(_held(compile(source, str(path), "exec")) - _ran.get(str(path), set()))
        for n in never:
            terminalreporter.write_line(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
