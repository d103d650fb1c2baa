"""Smoke runs of the example scripts under scripts/."""
import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_holonomy_table_script_prints_normal_form(monkeypatch, capsys):
    script = SCRIPTS / "holonomy_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "thmB", "4"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("# holonomy coefficient table: thmB, order 4")
    assert "normal form: (a, b) = (2, 1)" in out
