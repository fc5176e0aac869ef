"""Smoke runs of the scripts under scripts/ at tiny n, so an API change that
breaks them fails here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
