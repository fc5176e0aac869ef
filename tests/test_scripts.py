"""Smoke runs of the scripts under scripts/ at tiny n, and of README's library
quickstart, so an API change that breaks them fails here."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _main_output(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", [name, *argv])
    module.main()
    return capsys.readouterr().out.splitlines()


def test_stretch_tables(monkeypatch, capsys):
    lines = _main_output("stretch_tables", ["--max-n", "4"], monkeypatch, capsys)
    assert lines[0] == "bijection,direction,n,max_stretch,avg_stretch,avg_stretch_dec,edges"
    # n = 2 and 4, three maps, two directions
    assert len(lines) == 1 + 2 * 3 * 2
    assert lines[1].startswith("psi,fwd,2,")


@pytest.mark.parametrize("argv,rows", [(["--max-n", "4"], 1), (["--min-n", "2", "--max-n", "4"], 2)])
def test_flip_probability_scaling(monkeypatch, capsys, argv, rows):
    lines = _main_output("flip_probability_scaling", argv, monkeypatch, capsys)
    assert lines[0].split() == ["n", "worst_i", "probability", "p*sqrt(n)"]
    assert len(lines) == 1 + rows
    assert lines[-1].split()[0] == "4"


def _run_with_closed_stdout(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, so every write to the pipe fails
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 1


@pytest.mark.parametrize("name", ["stretch_tables", "flip_probability_scaling"])
def test_closed_stdout_exits_without_traceback(name):
    _run_with_closed_stdout([str(SCRIPTS / f"{name}.py"), "--max-n", "4"])


def test_cli_closed_stdout_exits_without_traceback():
    _run_with_closed_stdout(["-m", "cubeball", "stats", "chains", "--n", "18"])


@pytest.mark.parametrize("name,argv,error", [
    ("flip_probability_scaling", ["--min-n", "3"], "OddLengthError"),
    ("flip_probability_scaling", ["--min-n", "0"], "DimensionError"),
    # the largest n asked for is past the 2^28-bit ceiling; refused before n = 4 is printed
    ("flip_probability_scaling", ["--min-n", "4", "--max-n", "268435458"], "EnumerationCapError"),
    ("stretch_tables", ["--min-n", "1"], "OddLengthError"),
    # every even n up to 22 fits under the cap; refused before any is computed
    ("stretch_tables", ["--max-n", "40"], "EnumerationCapError"),
])
def test_bad_range_is_refused_before_any_output(name, argv, error):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    (line,) = proc.stderr.decode().splitlines()  # one line, so no traceback
    assert line.startswith(f"{name}.py: error: {error}: ")


def test_readme_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block[1], "README.md", "exec"), {})
