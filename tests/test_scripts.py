"""Smoke runs of the scripts under scripts/ at tiny n, so an API change that
breaks them fails here."""

import importlib.util
import os
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


@pytest.mark.parametrize("name", ["stretch_tables", "flip_probability_scaling"])
def test_closed_stdout_exits_without_traceback(name):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, so every write to the pipe fails
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / f"{name}.py"), "--max-n", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 1
