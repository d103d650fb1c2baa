"""CLI contracts: formats, exit codes, determinism, provenance headers."""
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

import holodyn.flows as flows
from holodyn import presets, reproduce
from holodyn.cli import main
from holodyn.flows import VectorField, flow_cross_check, formal_flow
from holodyn.holonomy import holonomy_cross_check, holonomy_series
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


def test_holonomy_oracle_rows_are_the_cross_check_rows(tmp_path):
    """The --oracle CSV is holonomy_cross_check on the 5-point diagonal, formatted."""
    oracle = tmp_path / "oracle.csv"
    res = run("holonomy", "--field", "thmB", "--order", "6", "--z0", "0.3+0.5i",
              "--oracle", str(oracle))
    assert res.exit_code == 0
    F = presets.load_foliation("thmB")
    h, _ = holonomy_series(F, 6, z0=0.3 + 0.5j)
    points = [tuple(v * (1 + 0.2 * k) for k in range(2)) for v in np.linspace(0.01, 0.05, 5)]

    def fmt(values):
        return ";".join(f"{z.real:+.12g}{z.imag:+.12g}i" for z in values)

    rows = [f"{fmt(p)},{fmt(series)},{fmt(numeric)},{err:.3e}"
            for p, series, numeric, err in holonomy_cross_check(F, h, points, z0=0.3 + 0.5j)]
    assert oracle.read_text().splitlines()[2:] == rows


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


def test_loaders_refuse_json_inputs_above_max_order(tmp_path):
    """A JSON map, field or foliation declared above MAX_ORDER is refused when
    it is read, before an inverse or a holonomy makes one pass per order."""
    order = presets.MAX_ORDER + 1
    jmap = JetMap([Jet(2, order, {(1, 0): 1.0, (2, 0): 0.5}), Jet(2, order, {(0, 1): 1.0})])
    field = presets.load_field("thmB").truncate(order)
    inputs = {"map": (presets.load_map, jmap.to_json_dict()),
              "field": (presets.load_field, field.to_json_dict()),
              "foliation": (presets.load_foliation,
                            {"field": field.to_json_dict(), "separatrix_axis": 2})}
    for kind, (load, d) in inputs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(d))
        with pytest.raises(presets.PresetError,
                           match=f"has order {order}, more than MAX_ORDER = 1000"):
            load(str(path))
        # one order lower is accepted
        d = json.loads(json.dumps(d).replace(f'"order": {order}', f'"order": {order - 1}'))
        path.write_text(json.dumps(d))
        load(str(path))


def many_terms(n_terms: int) -> dict:
    """A planar jet map whose first component has ``n_terms`` terms, the
    monomials x^i y^j with i >= 1 and degree at most 141 (so y = 0 stays
    invariant), and whose second is y."""
    exps = [(d - k, k) for d in range(1, 142) for k in range(d)][:n_terms]
    first = Jet(2, 141, {e: 1e-3 for e in exps} | {(1, 0): 1.0})
    return JetMap([first, Jet(2, 141, {(0, 1): 1.0})]).to_json_dict()


def test_loaders_refuse_json_jets_above_max_terms(tmp_path):
    """One jet of more than MAX_TERMS terms in a JSON map, field or foliation
    is refused when it is read, before a first eval compiles all of them."""
    for n_terms, refused in ((presets.MAX_TERMS + 1, True), (presets.MAX_TERMS, False)):
        jmap = many_terms(n_terms)
        inputs = {"map": (presets.load_map, jmap),
                  "field": (presets.load_field, {"n_vars": 2, **jmap}),
                  "foliation": (presets.load_foliation,
                                {"field": {"n_vars": 2, **jmap}, "separatrix_axis": 1})}
        for kind, (load, d) in inputs.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(d))
            if refused:
                with pytest.raises(presets.PresetError, match=re.escape(
                        f"JSON in {path} has a jet of 10001 terms, more than MAX_TERMS = 10000")):
                    load(str(path))
            else:
                load(str(path))
    assert len(presets.load_map(str(tmp_path / "map.json")).jmap.components[0].coeffs) == 10_000


def test_loaders_refuse_preset_arguments_that_size_a_jet_above_max_order():
    """example1 and phiX have order a + b + 1, and the loaders refuse it above
    MAX_ORDER as they refuse a JSON file's declared order."""
    for load, spec in ((presets.load_field, "example1(1,1,{a},0)"),
                       (presets.load_map, "phiX(1,1,{a},0)")):
        with pytest.raises(presets.PresetError, match=re.escape(
                f"preset {spec.format(a=10 ** 12)!r} has order 1000000000001, "
                "more than MAX_ORDER = 1000")):
            load(spec.format(a=10 ** 12))
        # order a + b + 1 = MAX_ORDER is accepted
        load(spec.format(a=presets.MAX_ORDER - 1))


# field presets -> the least order that holds their terms
NATURAL_ORDERS = {"thmB": 7, "example3": 5, "example1(1,1,1,1)": 3, "example1(2,3,1,2)": 4,
                  "example1(1,2,0,3)": 4, "example1(1,1,0,0)": 1, "linear(1,2)": 1,
                  "linear(1,-1,-2)": 1, "linear(0.5i,-1)": 1, "genF": 3, "genH": 4, "genLinear": 1}


def test_each_field_preset_loads_at_its_least_order_and_as_its_own_json_file(tmp_path):
    """A field preset loads at the least order that holds its terms, its
    JSON form is the JetMap dict the loaders read, and that file loads as
    the same field; a foliation preset loads as its own JSON file too."""
    field_path, foliation_path = tmp_path / "field.json", tmp_path / "foliation.json"
    for spec, least in NATURAL_ORDERS.items():
        X = presets.load_field(spec)
        assert X.order == least, spec
        assert list(X.to_json_dict()) == ["components"]
        field_path.write_text(json.dumps(X.to_json_dict()))
        assert presets.load_field(str(field_path)).to_json_dict() == X.to_json_dict()
        if not spec.startswith("example1"):
            F = presets.load_foliation(spec)
            assert F.field.order == least, spec
            foliation_path.write_text(json.dumps(
                {"field": F.field.to_json_dict(), "separatrix_axis": F.separatrix_axis}))
            G = presets.load_foliation(str(foliation_path))
            assert (F.field.to_json_dict(), F.separatrix_axis) == \
                (G.field.to_json_dict(), G.separatrix_axis)
    with pytest.raises(presets.PresetError, match="preset 'example1' has no canonical foliation"):
        presets.load_foliation("example1(1,1,1,1)")


def test_parabolic_degree_has_the_bound_of_petal_d():
    """parabolic(d,c)'s d is the degree petal --d takes, with its bound: the
    float map of a larger d is the identity near 0 (x^(d+1) underflows)."""
    assert presets.load_map(f"parabolic({presets.MAX_PETAL_DEGREE},1)").d == 100
    with pytest.raises(presets.PresetError, match=re.escape(
            "invalid map preset 'parabolic(101,1)': degree d = 101 is more than "
            "MAX_PETAL_DEGREE = 100")):
        presets.load_map("parabolic(101,1)")


def test_invalid_order_exits_2():
    res = run("holonomy", "--field", "thmB", "--order", "0")
    assert res.exit_code == 2


def test_flow_cross_check():
    res = run("flow", "--field", "example1(1,1,1,1)", "--order", "8",
              "--point", "0.03,0.03")
    assert res.exit_code == 0
    assert "numeric cross-check" in res.output


def test_flow_point_line_is_the_cross_check_value():
    res = run("flow", "--field", "example1(2,3,1,2)", "--time", "0.5+0.5i", "--order", "6",
              "--point", "0.04,0.03i")
    assert res.exit_code == 0
    X = presets.load_field("example1(2,3,1,2)")
    t = 0.5 + 0.5j
    [(_, _, _, err)] = flow_cross_check(X, formal_flow(X, t, 6), [(0.04, 0.03j)], t)
    assert f"numeric cross-check at 0.04,0.03i: max abs error {err:.3e}" \
        in res.output.splitlines()


def test_holonomy_not_tangent_to_the_identity_has_no_normal_form():
    res = run("holonomy", "--field", "linear(2,-1,-3)", "--order", "3")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == \
        "normal form: not applicable (map is not tangent to the identity)"


def test_small_base_point_above_the_pruning_tolerance_keeps_the_normal_form():
    res = run("holonomy", "--field", "thmB", "--z0", "1e-3")
    assert res.exit_code == 0
    assert "(a, b) = (2, 1)" in res.output


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


def test_orbit_config_records_the_radius_it_ran_in(tmp_path):
    """--level-circle runs in the ball of radius 1 and refuses --radius; the
    CSV config holds the radius used, 1.0 there and 0.3 by default."""
    res = run("orbit", "--map", "F", "--level-circle", "--radius", "0.05",
              "--csv", str(tmp_path / "refused.csv"))
    assert res.exit_code == 2
    assert "Error: --radius does not apply to --level-circle" in res.output
    assert not (tmp_path / "refused.csv").exists()
    for args, radius in ((["--map", "F", "--level-circle", "--budget", "100"], 1.0),
                         (["--map", "H", "--grid", "2x2", "--budget", "100"], 0.3)):
        out = tmp_path / "o.csv"
        assert run("orbit", *args, "--csv", str(out)).exit_code == 0
        config = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
        assert config["radius"] == radius


def test_orbit_svg_scatter(tmp_path):
    svg = tmp_path / "o.svg"
    res = run("orbit", "--map", "h1", "--radius", "1.0", "--grid", "2x2",
              "--grid-low", "0.3", "--budget", "100", "--svg", str(svg))
    assert res.exit_code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "config:" in text


def test_orbit_svg_config_names_its_projection(tmp_path):
    comments = {}
    for projection in ("re-re", "re-im"):
        svg = tmp_path / f"{projection}.svg"
        res = run("orbit", "--map", "h1", "--grid", "2x2", "--budget", "50", "--svg", str(svg),
                  "--svg-projection", projection)
        assert res.exit_code == 0
        comments[projection] = svg.read_text().splitlines()[1]
        config = json.loads(comments[projection].removeprefix("<!-- config: ")
                            .removesuffix(" -->"))
        assert config["svg_projection"] == projection
    assert comments["re-re"] != comments["re-im"]


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
    # X(x^2 z^2) = 2 x^4 y z^5 has degree 10, above the field's order 8, and
    # a numeric drift (about 3e-12) under the tol
    high = run("verify-integral", "--field", "thmB", "--exponents", "2,0,2")
    assert high.exit_code == 1
    assert "symbolic derivative along the field vanishes: False" in high.output


def test_verify_integral_reads_a_json_field_at_its_own_order(tmp_path):
    # X = x^5 y^4 d/dx has no term at or below the default order 8, so a
    # field cut to that order would make x a first integral
    path = tmp_path / "deg9.json"
    path.write_text(json.dumps(VectorField([Jet(2, 9, {(5, 4): 1.0}),
                                            Jet(2, 9, {})]).to_json_dict()))
    res = run("verify-integral", "--field", str(path), "--exponents", "1,0")
    assert res.exit_code == 1
    assert "symbolic derivative along the field vanishes: False" in res.output


def test_verify_integral_builds_a_candidate_above_the_field_order():
    # x^9 has degree 9 > 8, the order of the loaded field: the answer is
    # computed, not a JetError
    res = run("verify-integral", "--field", "thmB", "--exponents", "9,0,0")
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.splitlines() == [
        "symbolic derivative along the field vanishes: False",
        "numeric drift over t in [0, 1] from (0.05, 0.065, 0.08000000000000002): "
        "1.582e-08 (tol 1e-08)"]


def test_reproduce_paper_subset(tmp_path):
    report = tmp_path / "rep.md"
    res = run("reproduce-paper", "--only", "linear-model",
              "--only", "realization", "--report", str(report))
    assert res.exit_code == 0
    assert "[PASS] linear-model" in res.output
    text = report.read_text()
    assert "2/2 checks passed" in text


def test_reproduce_paper_exits_1_when_a_check_fails(tmp_path, monkeypatch):
    """A failing check prints its FAIL line, still writes the report and
    exits 1, after the checks that pass."""
    monkeypatch.setitem(reproduce.CHECKS, "realization",
                        lambda: reproduce.CheckResult("realization", False, "forced failure"))
    report = tmp_path / "rep.md"
    res = run("reproduce-paper", "--only", "linear-model",
              "--only", "realization", "--report", str(report))
    assert res.exit_code == 1
    assert "[PASS] linear-model" in res.output
    assert "[FAIL] realization: forced failure" in res.output.splitlines()
    assert f"wrote {report}" in res.output
    text = report.read_text()
    assert "1/2 checks passed" in text
    assert "| realization | FAIL | forced failure |" in text


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
    (["flow", "--field", "linear()"],
     "invalid field preset 'linear()': a linear field needs at least one eigenvalue"),
    (["flow", "--field", "example1(1,0,1,1)"],
     "invalid field preset 'example1(1,0,1,1)': m must be nonzero"),
    (["orbit", "--map", "phiX(1,0,1,1)"], "invalid map preset 'phiX(1,0,1,1)': m must be nonzero"),
    (["flow", "--field", "example1(1,1,-1,1)"],
     "invalid field preset 'example1(1,1,-1,1)': exponents a, b must be non-negative, "
     "got a=-1, b=1"),
    (["flow", "--field", "example1(1.5,1,1,1)"],
     "invalid field preset 'example1(1.5,1,1,1)': expected integer arguments"),
    (["holonomy", "--field", "linear(1)"],
     "a foliation on C^1 has no variable transverse to the axis"),
    (["orbit", "--map", "H", "--grid", "2x2", "--radius", "inf"],
     "--radius must be a finite number, got inf"),
    (["orbit", "--map", "H", "--radius", "nan"], "--radius must be a finite number, got nan"),
    (["orbit", "--map", "H", "--grid-low", "nan"], "--grid-low must be a finite number, got nan"),
    (["pseudogroup", "--radius", "nan"], "--radius must be a finite number, got nan"),
    (["holonomy", "--field", "thmB", "--z0", "nan"], "complex number 'nan' is not finite"),
    (["holonomy", "--field", "linear(1,nan)"],
     "numeric argument 'nan' in 'linear(1,nan)' is not finite"),
    (["petal", "--d", "2", "--c", "nan"], "complex number 'nan' is not finite"),
    (["verify-integral", "--field", "thmB", "--exponents", "1,1,2", "--tol", "nan"],
     "--tol must be a finite number, got nan"),
    (["verify-integral", "--field", "thmB", "--exponents", "1,1,2", "--tol", "0"],
     "--tol must be positive, got 0.0"),
    (["flow", "--field", "thmB", "--point", "0.1,1e999j,0.1"],
     "complex number '1e999j' is not finite"),
    (["orbit", "--map", "parabolic(2,nan)"],
     "numeric argument 'nan' in 'parabolic(2,nan)' is not finite"),
    (["holonomy", "--field", "thmB", "--z0", "inf"], "complex number 'inf' is not finite"),
    (["petal", "--d", "2", "--c", "-infinity"], "complex number '-infinity' is not finite"),
    (["flow", "--field", "linear(1,inf)"],
     "numeric argument 'inf' in 'linear(1,inf)' is not finite"),
    (["pseudogroup", "--word-budget", "-1"], "--word-budget must be a positive integer, got -1"),
    (["pseudogroup", "--point-budget", "0"], "--point-budget must be a positive integer, got 0"),
    (["orbit", "--map", "{fractional_exp}", "--grid", "2x2"],
     "exponent entry of (1.5, 0) must be an integer, got 1.5"),
    (["orbit", "--map", "{fractional_n_vars}", "--grid", "2x2"],
     "n_vars must be an integer, got 2.5"),
    (["flow", "--field", "{fractional_order}"], "order must be an integer, got 2.7"),
    (["holonomy", "--field", "{tmp}/nosuch.json"], "cannot read {tmp}/nosuch.json"),
    (["flow", "--field", "{tmp}/nosuch.json"], "cannot read {tmp}/nosuch.json"),
    (["orbit", "--map", "{tmp}/nosuch.json"], "cannot read {tmp}/nosuch.json"),
    (["holonomy", "--field", "{no_axis}"],
     "invalid foliation JSON in {no_axis}: 'separatrix_axis'"),
    (["pseudogroup", "--preset", "nosuch"],
     "unknown pseudogroup preset 'nosuch'; available: h1h2, schur24"),
    (["holonomy", "--field", "{fractional_axis}"],
     "invalid foliation JSON in {fractional_axis}: separatrix_axis must be an integer, got 2.5"),
    (["pseudogroup", "--seeds", "1000000000000"],
     "--seeds asks for 1000000000000 seeds, more than MAX_SEEDS = 1000000"),
    (["orbit", "--map", "H", "--grid", "1000000x1000000"],
     "--grid '1000000x1000000' asks for 1000000000000 seeds, more than MAX_SEEDS = 1000000"),
    (["orbit", "--map", "H", "--random-seeds", "1000000000000"],
     "--random-seeds asks for 1000000000000 seeds, more than MAX_SEEDS = 1000000"),
    (["holonomy", "--field", "{nan_coeff}"],
     "invalid foliation JSON in {nan_coeff}: coefficient of (1, 0, 0) is not finite, "
     "got (nan+0j)"),
    (["holonomy", "--field", "thmB", "--order", "100000000000000000000"],
     "--order 100000000000000000000 is more than MAX_ORDER = 1000"),
    (["flow", "--field", "thmB", "--order", "100000000000000000000"],
     "--order 100000000000000000000 is more than MAX_ORDER = 1000"),
    (["holonomy", "--field", "{huge_order}"],
     "foliation JSON in {huge_order} has order 1000000000000, more than MAX_ORDER = 1000"),
    (["orbit", "--map", "F(1,2)"], "invalid map preset 'F(1,2)': expected 0 or 1 arguments, got 2"),
    (["flow", "--field", "thmB(1)"], "invalid field preset 'thmB(1)': expected 0 arguments, got 1"),
    (["orbit", "--map", "h1(3)"], "invalid map preset 'h1(3)': expected 0 arguments, got 1"),
    (["flow", "--field", "example1(1,1,1000000000000,0)"],
     "preset 'example1(1,1,1000000000000,0)' has order 1000000000001, more than MAX_ORDER = 1000"),
    (["orbit", "--map", "F", "--level-circle", "--budget", "1000000000000"],
     "--budget 1000000000000 is more than MAX_BUDGET = 10000000"),
    (["petal", "--d", "1000000000000"], "--d 1000000000000 is more than MAX_PETAL_DEGREE = 100"),
    (["orbit", "--map", "H", "--random-seeds", "2", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
    (["petal", "--d", "0"], "--d must be a positive integer, got 0"),
    (["orbit", "--map", "{many_terms}", "--grid", "2x2"],
     "jet-map JSON in {many_terms} has a jet of 10001 terms, more than MAX_TERMS = 10000"),
    # a lattice that leaves the ball starts outside it: refused at its first seed
    (["orbit", "--map", "H", "--grid", "3x3", "--grid-low", "-1"],
     "seed ((-1+0j), (-1+0j)) lies outside the domain ball of radius 0.3"),
    (["orbit", "--map", "H", "--grid", "3x3", "--grid-low", "0.5"],
     "seed ((0.5+0j), (0.5+0j)) lies outside the domain ball of radius 0.3"),
    (["orbit", "--map", "parabolic(1000000000,1)", "--grid", "4"],
     "invalid map preset 'parabolic(1000000000,1)': degree d = 1000000000 is more than "
     "MAX_PETAL_DEGREE = 100"),
    (["pseudogroup", "--preset", "h1h2(1)"],
     "invalid pseudogroup preset 'h1h2(1)': expected 0 arguments, got 1"),
    # the lattice options do not apply when another option picks the seeds;
    # a --grid given on the command line is refused even at its default
    (["orbit", "--map", "H", "--grid", "2x2", "--random-seeds", "3", "--grid-low", "0.1"],
     "--grid does not apply to --random-seeds, which picks its own seeds"),
    (["orbit", "--map", "F", "--level-circle", "--grid-low", "0.5"],
     "--grid-low does not apply to --level-circle, which picks its own seeds"),
    (["orbit", "--map", "H", "--random-seeds", "3", "--grid-low", "0.1"],
     "--grid-low does not apply to --random-seeds, which picks its own seeds"),
    (["orbit", "--map", "F", "--level-circle", "--grid", "20x20"],
     "--grid does not apply to --level-circle, which picks its own seeds"),
    (["orbit", "--map", "F", "--level-circle", "--random-seeds", "3", "--grid-low", "0.5"],
     "--grid-low does not apply to --level-circle, which picks its own seeds"),
    # --seed and --svg-projection have defaults: refused when given to no use
    (["orbit", "--map", "H", "--grid", "2x2", "--budget", "10", "--seed", "5"],
     "--seed does not apply unless --random-seeds picks random seeds"),
    (["orbit", "--map", "F", "--level-circle", "--random-seeds", "2", "--seed", "9"],
     "--seed does not apply unless --random-seeds picks random seeds"),
    (["orbit", "--map", "h1", "--grid", "2x2", "--budget", "10", "--svg-projection", "re-im"],
     "--svg-projection does not apply without --svg"),
    (["petal", "--d", "2", "--c", "abc"], "cannot parse complex number 'abc'"),
    (["orbit", "--map", "parabolic(2,1)", "--level-circle"], "--level-circle needs a planar map"),
    (["orbit", "--map", "H", "--grid", "4y4"], "cannot parse --grid '4y4'; expected e.g. 20x20"),
    (["holonomy", "--field", "thmB("], "cannot parse preset spec 'thmB('"),
    (["flow", "--field", "linear(1,abc)"], "bad numeric argument 'abc' in 'linear(1,abc)'"),
    (["orbit", "--map", "parabolic(2,0)"], "invalid map preset 'parabolic(2,0)': c must be nonzero"),
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
    # the planar identity map with a non-integral exponent, n_vars or order
    for name, key, value in (
            ("fractional_exp", "terms", [{"exp": [1.5, 0], "re": 1.0, "im": 0.0}]),
            ("fractional_n_vars", "n_vars", 2.5),
            ("fractional_order", "order", 2.7)):
        d = JetMap.identity(2, 2).to_json_dict()
        d["components"][0][key] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        files[f"{{{name}}}"] = str(path)
    # thmB's foliation without its axis, and with a non-integral one
    thmB = presets.load_foliation("thmB").field.to_json_dict()
    for name, axis in (("no_axis", {}), ("fractional_axis", {"separatrix_axis": 2.5})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"field": thmB, **axis}))
        files[f"{{{name}}}"] = str(path)
    # thmB's foliation with a NaN coefficient of x d/dx
    thmB["components"][0]["terms"][0]["re"] = float("nan")
    path = tmp_path / "nan_coeff.json"
    path.write_text(json.dumps({"field": thmB, "separatrix_axis": 2}))
    files["{nan_coeff}"] = str(path)
    # thmB's foliation declared at order 10^12
    huge = presets.load_foliation("thmB").field.to_json_dict()
    for comp in huge["components"]:
        comp["order"] = 10 ** 12
    path = tmp_path / "huge_order.json"
    path.write_text(json.dumps({"field": huge, "separatrix_axis": 2}))
    files["{huge_order}"] = str(path)
    path = tmp_path / "many_terms.json"
    path.write_text(json.dumps(many_terms(presets.MAX_TERMS + 1)))
    files["{many_terms}"] = str(path)
    files["{tmp}"] = str(tmp_path)

    def fill(text):
        for key, value in files.items():
            text = text.replace(key, value)
        return text

    res = run(*map(fill, args))
    reason = fill(reason)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    [error] = [line for line in res.output.splitlines() if "Error:" in line]
    assert reason in error


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


def test_complex_spellings_keep_their_values_and_infinities_are_not_finite():
    for text, value in (("0.3+0.5i", 0.3 + 0.5j), ("2i", 2j), ("-1e-3i", -1e-3j),
                        ("1+2j", 1 + 2j), ("1 + 2i", 1 + 2j), ("i", 1j), ("-0.7", -0.7)):
        assert presets.parse_complex(text) == value
    for text in ("1e999j", "inf", "-infinity", "Infinity", "nan", "infi"):
        with pytest.raises(presets.NonFiniteNumber):
            presets.parse_complex(text)
    for text in ("", "x", "1+2k", "1i+2", "ii"):
        with pytest.raises(ValueError) as info:
            presets.parse_complex(text)
        assert not isinstance(info.value, presets.NonFiniteNumber)


@pytest.mark.parametrize("args, reason", [
    (["flow", "--field", "linear(1,2)", "--time", "1e308"],
     "--time '1e308': the time-t map overflows"),
    (["flow", "--field", "linear(1,2)", "--time", "1000", "--point", "0.1,0.1"],
     "--time '1000': the time-t map overflows"),
    (["holonomy", "--field", "thmB", "--z0", "1e200"],
     "--z0 '1e200': the monodromy system overflows"),
    (["verify-integral", "--field", "linear(1,-1)", "--exponents", "1,1", "--point", "20,20"],
     "trajectory left the domain"),
    (["holonomy", "--field", "thmB", "--z0", "1e-5"],
     "--z0 '1e-5': the monodromy system underflows (|z0|^3 = 1e-15 at loop frequency m = 3"),
    (["holonomy", "--field", "thmB", "--z0", "1e-200"],
     "--z0 '1e-200': the monodromy system underflows (|z0|^3 = 0 at loop frequency m = 3"),
    (["flow", "--field", "thmB", "--point", "100,100,100"],
     "--point '100,100,100': the numeric cross-check overflows (complex exponentiation)"),
    (["verify-integral", "--field", "example1(1,1,1,1)", "--exponents", "1,1",
      "--point", "1e200,1e200"],
     "the numeric drift from ((1e+200+0j), (1e+200+0j)) overflows (complex exponentiation)"),
    # the escape time, 0.5 times the segment parameter s = 0.92748... at which it escapes
    (["flow", "--field", "linear(5)", "--time", "0.5", "--point", "1"],
     "trajectory left the domain (|x| > 10.0) at t=0.46374056963548704"),
])
def test_numeric_failure_exits_3_with_reason(args, reason):
    res = run(*args)
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    # a one-line reason, not a traceback
    assert res.output.splitlines()[-1].startswith("Error: ")
    assert reason in res.output.splitlines()[-1]


def test_a_vanishing_axis_component_exits_3_with_one_error_line(tmp_path):
    """X_axis = z(1 - 20x) is 0 at the oracle point x = 0.05 when t = 0."""
    path = tmp_path / "f.json"
    field = VectorField([Jet(2, 2, {(1, 0): -1.0}), Jet(2, 2, {(0, 1): 1.0, (1, 1): -20.0})])
    path.write_text(json.dumps({"field": field.to_json_dict(), "separatrix_axis": 1}))
    res = run("holonomy", "--field", str(path), "--order", "3",
              "--oracle", str(tmp_path / "o.csv"))
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert [line for line in res.output.splitlines() if "Error:" in line] == [
        "Error: the axis component X_1 vanishes on the leaf through ((0.05+0j),): "
        "the leafwise equations divide by it"]
    assert not (tmp_path / "o.csv").exists()


def siegel_field(s: float) -> VectorField:
    """x(1 + s xyz^2) d/dx + y(1 - s xyz^2) d/dy - z d/dz, example3's shape
    with the coefficient s."""
    return VectorField([Jet(3, 5, {(1, 0, 0): 1.0, (2, 1, 2): s}),
                        Jet(3, 5, {(0, 1, 0): 1.0, (1, 2, 2): -s}),
                        Jet(3, 5, {(0, 0, 1): -1.0})])


def siegel_json(path, s: float) -> str:
    """The foliation of ``siegel_field(s)`` along the z-axis, written to ``path``."""
    path.write_text(json.dumps({"field": siegel_field(s).to_json_dict(), "separatrix_axis": 2}))
    return str(path)


@pytest.mark.parametrize("s, monomial", [(1e200, "x^[3, 2]"), (1e150, "x^[4, 3]")])
def test_an_overflowed_coefficient_exits_3_naming_its_monomial(tmp_path, s, monomial):
    """The solved coefficient of the named monomial is not finite: the run
    is refused, where the overflow used to be pruned and print as zero."""
    emit = tmp_path / "t.json"
    res = run("holonomy", "--field", siegel_json(tmp_path / "big.json", s), "--order", "7",
              "--emit", str(emit))
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1] == (
        f"Error: --order 7: the coefficient table overflows "
        f"(component 0, {monomial}: the solved coefficient is not finite)")
    assert not emit.exists()


def test_an_overflowed_flow_coefficient_exits_3_naming_the_order(tmp_path):
    """``siegel_field(1e200)`` written as a vector field (``flow`` refuses the
    foliation siegel_json writes): its flow coefficient table overflows
    whatever the time, so --order is named."""
    path = tmp_path / "big_field.json"
    path.write_text(json.dumps(siegel_field(1e200).to_json_dict()))
    emit = tmp_path / "f.json"
    res = run("flow", "--field", str(path), "--order", "9", "--emit", str(emit))
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1] == (
        "Error: --order 9: the coefficient table overflows "
        "(component 0, x^[3, 2, 4]: the solved coefficient is not finite)")
    assert not emit.exists()


@pytest.mark.parametrize("args", [
    ["flow", "--field", "linear(1,2)", "--point", "0.1,0.1"],
    ["holonomy", "--field", "thmB", "--oracle", "{tmp}/o.csv"],
    ["verify-integral", "--field", "thmB", "--exponents", "1,1,2"],
])
def test_step_limit_exits_3_with_reason(monkeypatch, tmp_path, args):
    # an integrator capped at 2 steps stands for one that runs out of MAX_STEPS
    monkeypatch.setattr(flows, "MAX_STEPS", 2)
    res = run(*(a.replace("{tmp}", str(tmp_path)) for a in args))
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1] == "Error: integration did not finish within 2 steps"


def test_a_stiff_field_exits_3_at_the_integrator_step_bound():
    """The integrator's own bound, not a cap set by the test, ends a stiff
    integration (eigenvalue 10^12, backward in time) in a few seconds."""
    res = run("flow", "--field", "linear(1000000000000,2)", "--time", "-1", "--point", "1,2")
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1] == "Error: integration did not finish within 100000 steps"


# the foliation and field presets of scripts/output_digest.py
FOLIATION_PRESETS = ("thmB", "example3", "linear(1,-1,-2)", "genF", "genH", "genLinear")
FIELD_PRESETS = ("thmB", "example3", "example1(1,1,1,1)", "example1(2,3,1,2)",
                 "linear(1,-1,-2)", "genF", "genH", "genLinear")


@pytest.mark.parametrize("command, spec, written, order", [
    (command, spec, written, order)
    for command, specs in (("holonomy", FOLIATION_PRESETS), ("flow", FIELD_PRESETS))
    for spec in specs for written in (4, 8) for order in (4, 6, 8)])
def test_json_input_answers_as_its_preset(tmp_path, command, spec, written, order):
    """A preset written to JSON at order max(its own, written) and read back
    at --order N gives the preset's answer at --order N: the declared order
    of a loaded field changes no answer."""
    emit = tmp_path / "emit.json"
    if command == "holonomy":
        F = presets.load_foliation(spec)
        field = F.field.truncate(max(F.field.order, written))
        d = {"field": field.to_json_dict(), "separatrix_axis": F.separatrix_axis}
        options = ["--order", str(order), "--emit", str(emit)]
    else:
        X = presets.load_field(spec)
        d = X.truncate(max(X.order, written)).to_json_dict()
        options = ["--order", str(order),
                   "--point", ",".join(["0.03", "0.04i", "0.02"][:X.n_vars])]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(d))

    def answer(field):
        """Exit code, stdout after the title line and the --emit payload without config."""
        res = run(command, "--field", field, *options)
        payload = json.loads(emit.read_text()) if emit.exists() else {}
        emit.unlink(missing_ok=True)
        payload.pop("config", None)
        return res.exit_code, res.output.split("\n", 1)[1], payload

    expected = answer(spec)
    assert expected[0] == 0
    assert answer(str(path)) == expected
