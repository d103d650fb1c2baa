"""Smoke runs of the example scripts under scripts/."""
import hashlib
import inspect
import json
import pathlib
import runpy
import sys

import pytest
from click.testing import CliRunner

from holodyn import presets
from holodyn.cli import main as cli_main
from holodyn.holonomy import holonomy_numeric
from holodyn.orbits import DomainBall, iterate_orbit, lattice_seeds

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_holonomy_table_script_prints_normal_form(monkeypatch, capsys):
    script = SCRIPTS / "holonomy_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "thmB", "4"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("# holonomy coefficient table: thmB, order 4")
    assert "normal form: (a, b) = (2, 1)" in out


def test_output_digest_script_hashes_the_selected_outputs(monkeypatch, capsys, tmp_path):
    # a named subset: the full run takes about 17 s
    script = SCRIPTS / "output_digest.py"
    monkeypatch.setattr(sys, "argv", [str(script), "flow_table:genF", "numeric:holonomy:genH",
                                      "orbit:h1", "cli:petal"])
    script_globals = runpy.run_path(str(script), run_name="__main__")
    digests = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert list(digests) == ["flow_table:genF:table", "numeric:holonomy:genH:values",
                             "orbit:h1:records", "cli:petal:exit", "cli:petal:stdout",
                             "cli:petal:out.json"]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests.values())
    F = presets.load_foliation("genH")
    values = [[[v.real, v.imag] for v in holonomy_numeric(F, p[:2])]
              for p in script_globals["NUMERIC_POINTS"]]
    assert digests["numeric:holonomy:genH:values"] \
        == hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
    records = [iterate_orbit(presets.map_h1(), s, DomainBall(0.3))
               for s in lattice_seeds(0.3, 4)]
    fields = [{"seed": [[c.real, c.imag] for c in r.seed], "status": r.status,
               "period": r.period, "mu": r.mu, "mu_label": r.mu_label,
               "mu_exhausted": r.mu_exhausted, "one_sided": r.one_sided,
               "cardinality": r.cardinality, "forward_points": [], "backward_points": []}
              for r in records]
    assert {r["status"] for r in fields} == {"Periodic"}
    assert digests["orbit:h1:records"] \
        == hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()
    out = tmp_path / "petal.json"
    assert CliRunner().invoke(cli_main, ["petal", "--d", "2", "--c", "1",
                                         "--json", str(out)]).exit_code == 0
    assert digests["cli:petal:out.json"] == hashlib.sha256(out.read_bytes()).hexdigest()
    monkeypatch.setattr(sys, "argv", [str(script), "nosuch*"])
    with pytest.raises(SystemExit, match="no entry matches nosuch"):
        runpy.run_path(str(script), run_name="__main__")


GOLDEN_DIGEST = pathlib.Path(__file__).resolve().parent / "golden" / "output_digest.txt"


def test_output_digest_matches_the_golden_file(capsys):
    """Every fast entry of scripts/output_digest.py hashes as it does in
    tests/golden/output_digest.txt, the full 295-line digest.

    The hashes pin this platform: Python 3.11.7, numpy 2.4.6 and the x86-64
    libm. An intended output change regenerates the file with one command,
    and the change lists every moved line:

        PYTHONPATH=src python scripts/output_digest.py > tests/golden/output_digest.txt
    """
    script = runpy.run_path(str(SCRIPTS / "output_digest.py"))
    slow = script["SLOW_DIGEST_ENTRIES"]
    fast = [name for name, _ in script["entries"]() if name not in slow]
    script["main"](fast)
    golden = GOLDEN_DIGEST.read_text().splitlines()
    assert len(golden) == 295
    expected = [line for line in golden if not line.startswith(tuple(f"{n}:" for n in slow))]
    assert len(expected) == 286
    assert capsys.readouterr().out.splitlines() == expected


def test_traffic_lines_script_lists_the_statements_a_run_misses():
    """One small check under the line trace: MonodromySystem.rhs, which no
    run of the program calls, is missed statement by statement, while the
    check's own body is not."""
    from holodyn import holonomy, reproduce

    script = runpy.run_path(str(SCRIPTS / "traffic_lines.py"))
    missed = {(path, line): function for path, line, function, _ in
              script["missed_statements"]([reproduce.check_realization])}
    rhs, first = inspect.getsourcelines(holonomy.MonodromySystem.rhs)
    body = range(first + 1, first + len(rhs))
    assert {("src/holodyn/holonomy.py", line) for line in body} <= missed.keys()
    assert {missed["src/holodyn/holonomy.py", line] for line in body} \
        == {"MonodromySystem.rhs"}
    check, first = inspect.getsourcelines(reproduce.check_realization)
    ran = [line for line in range(first + 1, first + len(check))
           if ("src/holodyn/reproduce.py", line) in missed]
    assert ran == []


def test_traffic_lines_runs_the_table_script(capsys):
    """The table script's runs reach what only it calls: ExpPoly.__repr__ and
    both branches of Frequency.__repr__, the complex one by the field whose
    eigenvalue ratio is irrational.  They print nothing into the listing."""
    script = runpy.run_path(str(SCRIPTS / "traffic_lines.py"))
    missed = {function for path, _, function, _ in script["missed_statements"](
        script["table_runs"]()) if path == "src/holodyn/exppoly.py"}
    assert not missed & {"ExpPoly.__repr__", "Frequency.__repr__"}
    assert capsys.readouterr().out == ""


def test_traffic_lines_keys_do_not_move_with_the_lines_above(tmp_path):
    """A statement's listing key is its file, its enclosing scope's qualified
    name and its source: lines added above it change its line number only."""
    script = runpy.run_path(str(SCRIPTS / "traffic_lines.py"))
    body = ("class A:\n"
            "    def f(self, x):\n"
            "        def g(y):\n"
            "            return y\n"
            "        class B:\n"
            "            k = 1\n"
            "        return g(x)\n")
    keys = []
    for pad in ("", "# a comment\n\n"):
        path = tmp_path / "m.py"
        path.write_text(pad + body)
        found = script["function_statements"](path)
        keys.append([(function, source) for _, function, source, _ in found])
    assert keys[0] == keys[1] == [("A.f", "def g(y):"), ("A.f.g", "return y"),
                                  ("A.f", "class B:"), ("A.f.B", "k = 1"),
                                  ("A.f", "return g(x)")]
