"""CLI contracts: formats, exit codes, determinism, provenance headers."""
import json

import pytest
from click.testing import CliRunner

from holodyn.cli import main
from holodyn.flows import VectorField
from holodyn.jets import Jet, JetMap


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_holonomy_prints_headline_coefficients_and_normal_form():
    res = run("holonomy", "--field", "thmB", "--order", "4")
    assert res.exit_code == 0
    assert "x^[3, 1]" in res.output and "-6.28318530718i" in res.output
    assert "x^[2, 2]" in res.output and "+6.28318530718i" in res.output
    assert "(a, b) = (2, 1)" in res.output


def test_holonomy_emits_table_and_oracle(tmp_path):
    table = tmp_path / "table.json"
    oracle = tmp_path / "oracle.csv"
    res = run("holonomy", "--field", "example3", "--order", "8",
              "--emit", str(table), "--oracle", str(oracle))
    assert res.exit_code == 0
    payload = json.loads(table.read_text())
    assert "config" in payload and payload["config"]["field"] == "example3"
    assert "table" in payload and "holonomy_jet" in payload
    lines = oracle.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "point,series_value,monodromy_value,abs_error"
    assert all(float(line.rsplit(",", 1)[1]) < 1e-6 for line in lines[2:])


def test_unknown_preset_exits_2_and_lists_available():
    res = run("holonomy", "--field", "nosuch", "--order", "4")
    assert res.exit_code == 2
    assert "available" in res.output


def test_malformed_json_exits_2_with_diagnostic(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    res = run("holonomy", "--field", str(bad), "--order", "4")
    assert res.exit_code == 2
    assert "malformed JSON" in res.output and "line 1" in res.output


def test_invalid_order_exits_2():
    res = run("holonomy", "--field", "thmB", "--order", "0")
    assert res.exit_code == 2


def test_flow_cross_check():
    res = run("flow", "--field", "example1(1,1,1,1)", "--order", "8",
              "--point", "0.03,0.03")
    assert res.exit_code == 0
    assert "numeric cross-check" in res.output


def test_orbit_csv_columns_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["orbit", "--map", "H", "--radius", "0.3", "--grid", "4x4",
            "--grid-low", "0.05", "--budget", "100000"]
    assert run(*args, "--csv", str(a)).exit_code == 0
    assert run(*args, "--csv", str(b)).exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == ("seed_re_x,seed_im_x,seed_re_y,seed_im_y,"
                        "status,period,mu,cardinality")
    assert len(lines) == 2 + 16


def test_orbit_level_circle_reports_infinite_suspected(tmp_path):
    out = tmp_path / "f.csv"
    res = run("orbit", "--map", "F", "--level-circle", "--budget", "3000",
              "--csv", str(out))
    assert res.exit_code == 0
    assert "infinite-suspected" in out.read_text()


def test_orbit_svg_scatter(tmp_path):
    svg = tmp_path / "o.svg"
    res = run("orbit", "--map", "h1", "--radius", "1.0", "--grid", "2x2",
              "--grid-low", "0.3", "--budget", "100", "--svg", str(svg))
    assert res.exit_code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "config:" in text


def test_orbit_random_seeds_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["orbit", "--map", "h1", "--radius", "1.0", "--budget", "100",
            "--random-seeds", "5", "--seed", "42"]
    assert run(*args, "--csv", str(a)).exit_code == 0
    assert run(*args, "--csv", str(b)).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pseudogroup_json(tmp_path):
    out = tmp_path / "pg.json"
    res = run("pseudogroup", "--preset", "schur24", "--seeds", "9",
              "--json", str(out))
    assert res.exit_code == 0
    assert "closure order: 24" in res.output
    payload = json.loads(out.read_text())
    assert payload["closure_order"] == 24
    assert not payload["abelian"]
    assert all(24 % o["cardinality"] == 0 for o in payload["orbits"])


def test_petal_output():
    res = run("petal", "--d", "2", "--c", "1")
    assert res.exit_code == 0
    assert "attracting directions" in res.output
    assert "4 (2 attracting + 2 repelling)" in res.output


def test_verify_integral_pass_and_fail():
    ok = run("verify-integral", "--field", "thmB", "--exponents", "1,1,2")
    assert ok.exit_code == 0
    bad = run("verify-integral", "--field", "thmB", "--exponents", "1,0,0")
    assert bad.exit_code == 1


def test_reproduce_paper_subset(tmp_path):
    report = tmp_path / "rep.md"
    res = run("reproduce-paper", "--only", "linear-model",
              "--only", "realization", "--report", str(report))
    assert res.exit_code == 0
    assert "[PASS] linear-model" in res.output
    text = report.read_text()
    assert "2/2 checks passed" in text


def test_reproduce_paper_unknown_check(tmp_path):
    res = run("reproduce-paper", "--only", "nope",
              "--report", str(tmp_path / "r.md"))
    assert res.exit_code == 2


@pytest.mark.parametrize("args, reason", [
    (["flow", "--field", "thmB", "--point", "0.1"],
     "--point '0.1' has 1 coordinate(s); the field has 3 variables"),
    (["verify-integral", "--field", "thmB", "--exponents", "1,1,2", "--point", "0.1"],
     "--point '0.1' has 1 coordinate(s); the field has 3 variables"),
    (["orbit", "--map", "H", "--grid", "-1x5"],
     "--grid '-1x5': every count must be a positive integer"),
    (["orbit", "--map", "H", "--random-seeds", "-3"],
     "--random-seeds must be a positive integer, got -3"),
    (["orbit", "--map", "parabolic(0,1)"],
     "invalid map preset 'parabolic(0,1)': d must be a positive integer, got 0"),
    (["orbit", "--map", "{jet_map_3d}", "--grid", "3x3"],
     "gives 2 counts but the map has 3 variables"),
    (["holonomy", "--field", "{off_diagonal}"],
     "non-diagonal linear part in the system"),
    (["holonomy", "--field", "{oscillating}"],
     "degree-1 term with nonzero loop frequency; coefficient recursion is not triangular"),
    (["holonomy", "--field", "thmB", "--z0", "0"], "z0 = 0 puts the loop"),
    (["holonomy", "--field", "thmB", "--z0", "0", "--oracle", "{tmp}/o.csv"],
     "z0 = 0 puts the loop"),
    (["holonomy", "--field", "thmB", "--emit", "{tmp}/missing/t.json"],
     "cannot write {tmp}/missing/t.json"),
    (["orbit", "--map", "H", "--grid", "2x2", "--csv", "{tmp}/missing/o.csv"],
     "cannot write {tmp}/missing/o.csv"),
    (["petal", "--d", "2", "--c", "1", "--json", "{tmp}/missing/x.json"],
     "cannot write {tmp}/missing/x.json"),
    (["reproduce-paper", "--only", "linear-model", "--report", "{tmp}/missing/r.md"],
     "cannot write {tmp}/missing/r.md"),
])
def test_bad_configuration_exits_2_with_reason(tmp_path, args, reason):
    jet_map = tmp_path / "map3.json"
    jet_map.write_text(json.dumps(JetMap.identity(3, 2).to_json_dict()))
    # X = (x + y, -y, -z) and (x + xz, -y, -z) along the z-axis: the first
    # monodromy system has the off-diagonal term y in row 0, the second the
    # term x at loop frequency 1
    files = {"{jet_map_3d}": str(jet_map)}
    for name, x_comp in (("off_diagonal", {(1, 0, 0): 1.0, (0, 1, 0): 1.0}),
                         ("oscillating", {(1, 0, 0): 1.0, (1, 0, 1): 1.0})):
        field = VectorField([Jet(3, 4, x_comp), Jet(3, 4, {(0, 1, 0): -1.0}),
                             Jet(3, 4, {(0, 0, 1): -1.0})])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"field": field.to_json_dict(), "separatrix_axis": 2}))
        files[f"{{{name}}}"] = str(path)
    files["{tmp}"] = str(tmp_path)

    def fill(text):
        for key, value in files.items():
            text = text.replace(key, value)
        return text

    res = run(*map(fill, args))
    reason = fill(reason)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert reason in res.output


def test_orbit_csv_keeps_every_seed_coordinate(tmp_path):
    jet_map = tmp_path / "map3.json"
    jet_map.write_text(json.dumps(JetMap.identity(3, 2).to_json_dict()))
    out = tmp_path / "o.csv"
    res = run("orbit", "--map", str(jet_map), "--radius", "0.1", "--grid", "2x2x2",
              "--grid-low", "0.02", "--budget", "5", "--csv", str(out))
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("seed_re_x,seed_im_x,seed_re_y,seed_im_y,seed_re_z,seed_im_z,")
    assert len(set(line.split(",Periodic")[0] for line in lines[2:])) == 8
