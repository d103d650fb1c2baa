#!/usr/bin/env python3
"""Print one "name sha256" line per reproducible output of holodyn.

The outputs are the exact holonomy series (coefficient table and forcings)
of the six foliation presets at orders 4, 8 and 12 and base points
z0 = 1, 0.7 and 0.3+0.5i, the flow coefficient tables of the field presets
at order 8, the numeric route (``holonomy_numeric`` of each foliation
preset and ``numeric_flow`` of each field preset at fixed points), and the
files and standard output of a fixed set of CLI runs.
Two checkouts produce byte-identical outputs exactly when their digest
listings are equal, so a refactor is checked with one diff:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    diff before.txt after.txt

Usage: python scripts/output_digest.py [pattern ...]

Each pattern is an fnmatch pattern over the entry names (for example
'flow_table:*', 'numeric:*' or 'cli:petal'); with none, every entry is
digested.  The full run takes about a minute, most of it in the orbit and
reproduce-paper CLI runs.
"""
import fnmatch
import hashlib
import json
import os
import sys
import tempfile

from click.testing import CliRunner

from holodyn import presets
from holodyn.cli import main as cli_main
from holodyn.flows import numeric_flow
from holodyn.holonomy import holonomy_numeric, holonomy_series

FOLIATIONS = ("thmB", "example3", "linear(1,-1,-2)", "genF", "genH", "genLinear")
FIELDS = ("thmB", "example3", "example1(1,1,1,1)", "example1(2,3,1,2)",
          "linear(1,-1,-2)", "genF", "genH", "genLinear")
ORDERS = (4, 8, 12)
BASE_POINTS = {"1": 1.0 + 0j, "0.7": 0.7 + 0j, "0.3+0.5i": 0.3 + 0.5j}
# transversal points of the numeric holonomy, and flow start points (their
# first n coordinates) for the numeric time-one map
NUMERIC_POINTS = ((0.03, 0.04j, 0.02), (0.05, -0.02 + 0.01j, 0.01j),
                  (-0.01 + 0.04j, 0.02, -0.03))
# name -> CLI arguments; "{out}" names an output file in a fresh directory
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
    "petal": ["petal", "--d", "2", "--c", "1", "--json", "{out}.json"],
    "pseudogroup": ["pseudogroup", "--json", "{out}.json"],
    "reproduce-paper": ["reproduce-paper", "--report", "{out}.md"],
}


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _table_parts(table) -> dict:
    forcings = [{"component": j, "exp": list(exp), "expoly": poly.to_json_dict()}
                for (j, exp), poly in sorted(table.forcings.items())]
    return {"table": _canonical(table.to_json_dict()), "forcing": _canonical(forcings)}


def _series(spec, order, z0):
    F = presets.load_foliation(spec, order)
    return _table_parts(holonomy_series(F, order, z0=z0)[1])


def _flow_table(spec):
    from holodyn.flows import flow_coefficient_table

    return {"table": _canonical(flow_coefficient_table(presets.load_field(spec, 8), 8)
                                .to_json_dict())}


def _numeric(run):
    return {"values": _canonical([[[v.real, v.imag] for v in run(p)] for p in NUMERIC_POINTS])}


def _numeric_holonomy(spec):
    F = presets.load_foliation(spec)
    return _numeric(lambda p: holonomy_numeric(F, p[:2]))


def _numeric_flow(spec):
    X = presets.load_field(spec)
    return _numeric(lambda p: numeric_flow(X, p[:X.n_vars]))


def _cli(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        res = CliRunner().invoke(cli_main, [a.replace("{out}", out) for a in args])
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
    for spec in FIELDS:
        yield f"flow_table:{spec}", lambda s=spec: _flow_table(s)
    for spec in FOLIATIONS:
        yield f"numeric:holonomy:{spec}", lambda s=spec: _numeric_holonomy(s)
    for spec in FIELDS:
        yield f"numeric:flow:{spec}", lambda s=spec: _numeric_flow(s)
    for name, args in CLI_RUNS.items():
        yield f"cli:{name}", lambda a=args: _cli(a)


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
