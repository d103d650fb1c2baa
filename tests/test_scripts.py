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


def test_orbit_survey_script_runs_both_orbit_checks(monkeypatch, capsys):
    # a budget of 500 is too small for the H grid, and it reaches both checks
    script = SCRIPTS / "orbit_survey.py"
    monkeypatch.setattr(sys, "argv", [str(script), "500"])
    runpy.run_path(str(script), run_name="__main__")
    finite, contrast = capsys.readouterr().out.splitlines()
    assert finite.startswith("[FAIL] finite-orbits: 400-seed grid in ball 0.3:")
    assert "[budget 500," in finite
    assert contrast.startswith("[PASS] infinite-contrast:")
    assert "1001 distinct points" in contrast and "[budget 500," in contrast
