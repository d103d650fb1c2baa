#!/usr/bin/env python3
"""Print one "name sha256" line per reproducible output of holodyn.

The outputs are the exact holonomy series (coefficient table and forcings)
of the six foliation presets at orders 4, 8 and 12 and base points
z0 = 1, 0.7 and 0.3+0.5i, and the normal form of each such holonomy jet
(a, b and f, or the reason it has none) and of thmB and example3 at
orders 4 and 8 and the small base points z0 = 1e-3 and 1e-4, the flow
coefficient tables of the field presets at order 8, the numeric route
(``holonomy_numeric`` of each foliation preset and ``numeric_flow`` of
each field preset at fixed points), the drift values of the product-preservation and conservation
checks (``monodromy_invariant_drift`` and ``first_integral_drift``), full
orbit and pseudogroup records (every field and every kept point) of fixed
map, seed and budget choices, the periodicity of fixed maps and the
closure of the h1h2 generators (order, non-commuting pair and the
brute-force oracle's order), the jet-layer results (the inverse of
example3's order-8 holonomy jet, x*y composed with thmB's, the Lie
derivative of x*y*z^2 along thmB and the JSON form of every field preset),
and the files, standard output and exit code of a fixed set of CLI runs:
successful ones (two of them read a preset written to a JSON file, and two
write an orbit SVG, one per projection), one
rejected configuration (exit 2) per command and at least one numeric
failure (exit 3) per command with a numeric path.
Two checkouts produce byte-identical outputs exactly when their digest
listings are equal, so a refactor is checked with one diff:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    diff before.txt after.txt

Usage: python scripts/output_digest.py [pattern ...]

Each pattern is an fnmatch pattern over the entry names (for example
'normal_form:*', 'flow_table:*', 'numeric:*', 'drift:*', 'orbit:*', 'periodicity:*',
'jets:*' or 'cli:petal'); with none, every entry is
digested.  The full run takes about 17 s on 2 vCPUs, 14-15 s of it in the
three CLI orbit runs (cli:orbit-H, cli:orbit-parabolic and
cli:orbit-F-level-circle).
"""
import fnmatch
import hashlib
import json
import os
import sys
import tempfile

import numpy as np
from click.testing import CliRunner

from holodyn import presets
from holodyn.cli import main as cli_main
from holodyn.exppoly import ExpPoly, Frequency
from holodyn.flows import VectorField, first_integral_drift, lie_derivative, numeric_flow
from holodyn.holonomy import (NormalFormError, holonomy_numeric, holonomy_series,
                              monodromy_invariant_drift, normal_form_or_reason)
from holodyn.jets import Jet, JetMap
from holodyn.orbits import (DomainBall, PermutationMap, TruncatedJetMap, group_closure,
                            iterate_orbit, lattice_seeds, periodicity_test, pseudogroup_orbit)
from holodyn.reproduce import brute_force_closure

FOLIATIONS = ("thmB", "example3", "linear(1,-1,-2)", "genF", "genH", "genLinear")
FIELDS = ("thmB", "example3", "example1(1,1,1,1)", "example1(2,3,1,2)",
          "linear(1,-1,-2)", "genF", "genH", "genLinear")
ORDERS = (4, 8, 12)
BASE_POINTS = {"1": 1.0 + 0j, "0.7": 0.7 + 0j, "0.3+0.5i": 0.3 + 0.5j}
# the normal form's small base points, where f(0) scales as z0^3 (thmB)
# and z0^2 (example3)
SMALL_BASE_POINTS = {"1e-3": 1e-3 + 0j, "1e-4": 1e-4 + 0j}
# transversal points of the numeric holonomy, and flow start points (their
# first n coordinates) for the numeric time-one map
NUMERIC_POINTS = ((0.03, 0.04j, 0.02), (0.05, -0.02 + 0.01j, 0.01j),
                  (-0.01 + 0.04j, 0.02, -0.03))


def _example3_jet():
    """The order-6 holonomy jet of example3, iterated as a truncated jet map."""
    return TruncatedJetMap(holonomy_series(presets.load_foliation("example3"), 6)[0],
                           name="example3")


# name -> (map, seeds, ball radius, budget, keep_points) of the orbit entries;
# each is built when its entry runs
ORBITS = {
    "H-lattice": (presets.map_H, lambda: lattice_seeds(0.3, 5, low=0.05), 0.3, 100_000, False),
    "F-level-circle": (presets.map_F, lambda: presets.level_circle_seeds(1), 1.0, 2_000, True),
    "parabolic": (lambda: presets.load_map("parabolic(2,0.5+1i)"),
                  lambda: lattice_seeds(0.3, 20, n_vars=1), 0.3, 2_000, False),
    "h1": (presets.map_h1, lambda: lattice_seeds(0.3, 4), 0.3, 100_000, False),
    "phiX": (lambda: presets.load_map("phiX(1,1,1,1)"), lambda: lattice_seeds(0.2, 2, low=0.1),
             0.3, 50, False),
    "example3-jet": (_example3_jet,
                     lambda: [(0.008, 0.008j), (-0.006 + 0.005j, 0.007), (0.01j, -0.009)],
                     0.3, 2_000, True),
}
# name -> (map, n_max) of the periodicity entries
PERIODICITY = {
    "h1": (presets.map_h1, 10),
    "h2": (presets.map_h2, 10),
    "perm(1,2,0)": (lambda: PermutationMap([1, 2, 0]), 10),
    "-I:order=4": (lambda: JetMap.linear([[-1.0, 0.0], [0.0, -1.0]], 4), 10),
    "H": (presets.map_H, 200),
}
# the slow CLI orbit runs (about 5, 7-9 and 2-3 s on 2 vCPUs, Python 3.11):
# the golden-file test and scripts/traffic_lines.py leave them out, and they
# are diffed by hand
SLOW_DIGEST_ENTRIES = ("cli:orbit-H", "cli:orbit-parabolic", "cli:orbit-F-level-circle")
# name -> CLI arguments; "{out}" names an output file in a fresh directory and
# "{in}" the JSON input file that CLI_INPUTS writes there
CLI_RUNS = {
    "holonomy-example3": ["holonomy", "--field", "example3", "--order", "8",
                          "--emit", "{out}.json", "--oracle", "{out}.csv"],
    "holonomy-thmB": ["holonomy", "--field", "thmB", "--order", "6", "--z0", "0.3+0.5i",
                      "--emit", "{out}.json", "--oracle", "{out}.csv"],
    "flow-example1": ["flow", "--field", "example1(1,1,1,1)", "--emit", "{out}.json"],
    "orbit-H": ["orbit", "--map", "H", "--csv", "{out}.csv"],
    "orbit-parabolic": ["orbit", "--map", "parabolic(2,0.5+1i)", "--grid", "20",
                        "--csv", "{out}.csv"],
    "orbit-F-level-circle": ["orbit", "--map", "F", "--level-circle", "--csv", "{out}.csv"],
    "orbit-h1-svg": ["orbit", "--map", "h1", "--grid", "2x2", "--budget", "50",
                     "--svg", "{out}.svg"],
    "orbit-h1-svg-re-im": ["orbit", "--map", "h1", "--grid", "2x2", "--budget", "50",
                           "--svg", "{out}.svg", "--svg-projection", "re-im"],
    "petal": ["petal", "--d", "2", "--c", "1", "--json", "{out}.json"],
    "pseudogroup": ["pseudogroup", "--json", "{out}.json"],
    "reproduce-paper": ["reproduce-paper", "--report", "{out}.md"],
    "holonomy-thmB-json": ["holonomy", "--field", "{in}", "--order", "4"],
    "flow-example1-json": ["flow", "--field", "{in}", "--point", "0.04,0.03i"],
    "verify-integral-thmB": ["verify-integral", "--field", "thmB", "--exponents", "1,1,2"],
    "verify-integral-thmB-x9": ["verify-integral", "--field", "thmB", "--exponents", "9,0,0"],
    # exit 2: a rejected configuration
    "holonomy-exit2": ["holonomy", "--field", "thmB", "--z0", "0"],
    "flow-exit2-json": ["flow", "--field", "{in}"],
    "orbit-exit2": ["orbit", "--map", "parabolic(0,1)"],
    "pseudogroup-exit2": ["pseudogroup", "--preset", "nosuch"],
    "petal-exit2": ["petal", "--d", "0"],
    "verify-integral-exit2": ["verify-integral", "--field", "example1(1,1,-1,1)",
                              "--exponents", "1,1"],
    "reproduce-paper-exit2": ["reproduce-paper", "--only", "nope", "--report", "{out}.md"],
    # exit 3: a numeric failure
    "holonomy-exit3": ["holonomy", "--field", "thmB", "--z0", "1e-5"],
    "flow-exit3": ["flow", "--field", "linear(1,2)", "--time", "1e308"],
    "flow-exit3-point": ["flow", "--field", "thmB", "--point", "100,100,100"],
    "verify-integral-exit3": ["verify-integral", "--field", "linear(1,-1)", "--exponents", "1,1",
                              "--point", "20,20"],
    "verify-integral-exit3-point": ["verify-integral", "--field", "example1(1,1,1,1)",
                                    "--exponents", "1,1", "--point", "1e200,1e200"],
    # one straight complex-time segment [0, t], off the real axis and backward
    "flow-thmB-complex-time": ["flow", "--field", "thmB", "--time", "0.5+0.5i",
                               "--point", "0.04,0.03i,0.2"],
    "flow-example1-backward": ["flow", "--field", "example1(1,1,1,1)", "--time", "-1",
                               "--point", "0.1,0.12"],
}


def _foliation_json(spec):
    F = presets.load_foliation(spec)
    return {"field": F.field.to_json_dict(), "separatrix_axis": F.separatrix_axis}


# CLI run name -> thunk returning the content of its "{in}" file
CLI_INPUTS = {
    "holonomy-thmB-json": lambda: _foliation_json("thmB"),
    "flow-example1-json": lambda: presets.load_field("example1(2,3,1,2)").to_json_dict(),
    # (x + y, -y): a linear part that is not diagonal, so no formal flow
    "flow-exit2-json": lambda: VectorField([Jet(2, 4, {(1, 0): 1.0, (0, 1): 1.0}),
                                            Jet(2, 4, {(0, 1): -1.0})]).to_json_dict(),
}


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _table_parts(table) -> dict:
    forcings = [{"component": j, "exp": list(exp), "expoly": poly.to_json_dict()}
                for (j, exp), poly in sorted(table.forcings.items())]
    return {"table": _canonical(table.to_json_dict()), "forcing": _canonical(forcings)}


def _series(spec, order, z0):
    F = presets.load_foliation(spec)
    return _table_parts(holonomy_series(F, order, z0=z0)[1])


def _normal_form(spec, order, z0):
    F = presets.load_foliation(spec)
    nf = normal_form_or_reason(holonomy_series(F, order, z0=z0)[0])
    if isinstance(nf, NormalFormError):
        return {"reason": str(nf).encode()}
    return {"normal_form": _canonical({"a": nf.a, "b": nf.b, "f": nf.f.to_json_dict()})}


def _flow_table(spec):
    from holodyn.flows import flow_coefficient_table

    return {"table": _canonical(flow_coefficient_table(presets.load_field(spec), 8)
                                .to_json_dict())}


def _numeric(run):
    return {"values": _canonical([[[v.real, v.imag] for v in run(p)] for p in NUMERIC_POINTS])}


def _numeric_holonomy(spec):
    F = presets.load_foliation(spec)
    return _numeric(lambda p: holonomy_numeric(F, p[:2]))


def _numeric_flow(spec):
    X = presets.load_field(spec)
    return _numeric(lambda p: numeric_flow(X, p[:X.n_vars]))


def _drifts():
    """name -> thunk returning one drift value: the inputs of the
    product-preservation and conservation checks, and x*y on thmB at z0 = 0.7."""
    xy = Jet(2, 12, {(1, 1): 1.0 + 0j})
    covariant = ExpPoly.exponential(Frequency(-2))
    drifts = {
        "monodromy:example3": lambda: monodromy_invariant_drift(
            presets.load_foliation("example3"), xy, (0.04, 0.05), expected=covariant),
        "monodromy:thmB:z0=0.7": lambda: monodromy_invariant_drift(
            presets.load_foliation("thmB"), xy, (0.04, 0.05), z0=0.7 + 0j),
    }
    for n, m, a, b in ((1, 1, 1, 1), (2, 3, 1, 2)):
        drifts[f"first_integral:example1({n},{m},{a},{b})"] = \
            lambda n=n, m=m, a=a, b=b: first_integral_drift(
                presets.load_field(f"example1({n},{m},{a},{b})"), Jet(2, 8, {(n, m): 1.0 + 0j}),
                (0.1, 0.12))
    return drifts


def _holonomy_jet(spec):
    return holonomy_series(presets.load_foliation(spec), 8)[0]


def _jet_results():
    """name -> thunk returning the canonical JSON of one jet-layer result."""
    xy = Jet(2, 8, {(1, 1): 1.0 + 0j})
    xyz2 = Jet(3, 8, {(1, 1, 2): 1.0 + 0j})
    results = {
        "inverse:example3": lambda: _holonomy_jet("example3").inverse().to_json_dict(),
        "compose:xy:thmB": lambda: xy.compose(_holonomy_jet("thmB")).to_json_dict(),
        "lie_derivative:xyz2:thmB":
            lambda: lie_derivative(presets.load_field("thmB"), xyz2).to_json_dict(),
    }
    for spec in FIELDS:
        results[f"field:{spec}"] = lambda s=spec: presets.load_field(s).to_json_dict()
    return results


def _points(points):
    return [[[c.real, c.imag] for c in p] for p in points]


def _orbit(make_map, make_seeds, radius, budget, keep_points):
    h, V = make_map(), DomainBall(radius)
    records = [iterate_orbit(h, s, V, budget=budget, keep_points=keep_points)
               for s in make_seeds()]
    return {"records": _canonical([
        {"seed": _points([r.seed])[0], "status": r.status, "period": r.period, "mu": r.mu,
         "mu_label": r.mu_label, "mu_exhausted": r.mu_exhausted, "one_sided": r.one_sided,
         "cardinality": r.cardinality, "forward_points": _points(r.forward_points),
         "backward_points": _points(r.backward_points)} for r in records])}


def _pseudogroup(gens, seeds, radius):
    V = DomainBall(radius)
    orbits = [pseudogroup_orbit(gens, s, V) for s in seeds]
    return {"records": _canonical([
        {"seed": _points([o.seed])[0], "points": _points(o.points), "words": o.words,
         "truncated": o.truncated, "cardinality": o.cardinality} for o in orbits])}


def _closure():
    gens = presets.pseudogroup_preset("h1h2")
    closure = group_closure(gens)
    oracle = brute_force_closure([np.array(g.matrix, dtype=complex) for g in gens])
    return {"closure": _canonical({"order": closure.order, "oracle": oracle,
                                   "non_commuting_pair": closure.non_commuting_pair})}


def _cli(args, make_input=None):
    with tempfile.TemporaryDirectory() as tmp:
        out, path = os.path.join(tmp, "out"), os.path.join(tmp, "in.json")
        if make_input:
            with open(path, "w") as fh:
                json.dump(make_input(), fh)
        res = CliRunner().invoke(cli_main, [a.replace("{out}", out).replace("{in}", path)
                                            for a in args])
        parts = {"exit": str(res.exit_code).encode(),
                 "stdout": res.output.replace(tmp, "<tmp>").encode()}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                parts[name] = fh.read()
    return parts


def entries():
    """(name, thunk) pairs; each thunk returns {part: bytes}."""
    for spec in FOLIATIONS:
        for order in ORDERS:
            for label, z0 in BASE_POINTS.items():
                yield (f"holonomy_series:{spec}:order={order}:z0={label}",
                       lambda s=spec, o=order, z=z0: _series(s, o, z))
    for spec in FOLIATIONS:
        for order in ORDERS:
            for label, z0 in BASE_POINTS.items():
                yield (f"normal_form:{spec}:order={order}:z0={label}",
                       lambda s=spec, o=order, z=z0: _normal_form(s, o, z))
    for spec in ("thmB", "example3"):
        for order in (4, 8):
            for label, z0 in SMALL_BASE_POINTS.items():
                yield (f"normal_form:{spec}:order={order}:z0={label}",
                       lambda s=spec, o=order, z=z0: _normal_form(s, o, z))
    for spec in FIELDS:
        yield f"flow_table:{spec}", lambda s=spec: _flow_table(s)
    for spec in FOLIATIONS:
        yield f"numeric:holonomy:{spec}", lambda s=spec: _numeric_holonomy(s)
    for spec in FIELDS:
        yield f"numeric:flow:{spec}", lambda s=spec: _numeric_flow(s)
    for name, drift in _drifts().items():
        yield f"drift:{name}", lambda d=drift: {"repr": repr(d()).encode()}
    for name, spec in ORBITS.items():
        yield f"orbit:{name}", lambda s=spec: _orbit(*s)
    yield "pseudogroup:schur24", lambda: _pseudogroup(
        presets.pseudogroup_preset("schur24"), lattice_seeds(0.8, 4)[:10], 1.0)
    # H alone in the ball of radius 0.3: the domain rule rejects images
    # outside it, and four of the nine orbits reach the word budget
    yield "pseudogroup:H-ball", lambda: _pseudogroup(
        [presets.map_H()], lattice_seeds(0.3, 3, low=0.1), 0.3)
    for name, (make_map, n_max) in PERIODICITY.items():
        yield (f"periodicity:{name}",
               lambda m=make_map, n=n_max: {"period": repr(periodicity_test(m(), n)).encode()})
    yield "closure:h1h2", _closure
    for name, result in _jet_results().items():
        yield f"jets:{name}", lambda r=result: {"json": _canonical(r())}
    for name, args in CLI_RUNS.items():
        yield f"cli:{name}", lambda a=args, i=CLI_INPUTS.get(name): _cli(a, i)


def main(patterns):
    selected = [(name, thunk) for name, thunk in entries()
                if not patterns or any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    if not selected:
        sys.exit(f"no entry matches {' '.join(patterns)}")
    for name, thunk in selected:
        for part, blob in thunk().items():
            print(f"{name}:{part} {hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
