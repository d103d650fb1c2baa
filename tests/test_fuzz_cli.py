"""Grammar fuzz gate for the input contract: every command, fed preset specs,
option values and JSON files built from edge values, answers with an exit
code and at most one reason line, never with a traceback or a hang.

The grammar (A. Zeller et al., *The Fuzzing Book*, "Fuzzing with Grammars")
is written as Hypothesis strategies and runs derandomized under the ``ci``
profile, in-process through ``CliRunner``.  Each example runs under a
wall-clock limit from ``signal.setitimer``: Hypothesis's ``deadline`` only
judges an example after it returns, so it cannot stop one that hangs.
"""
import copy
import json
import math
import os
import signal
import tempfile
import traceback
from functools import lru_cache

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from holodyn import presets
from holodyn.cli import main
from holodyn.holonomy import holonomy_series

# the values of the edge-value sweep, as a command line spells them and as a
# JSON file holds them
EDGE = ("0", "-1", "1.5", "1e300", "-1e300", "1e-300", "1000000000000", "nan", "inf",
        "-infinity", "2")
JSON_EDGE = (0, -1, 1.5, 1e300, -1e300, 1e-300, 10 ** 12, math.nan, math.inf, -math.inf, 2)
# seconds one example may take; the slowest answer in the grammar takes well
# under a second
TIME_LIMIT_S = 3.0
# exit 1 is the "check failed" of these two commands
CHECK_COMMANDS = ("verify-integral", "reproduce-paper")
CHEAP_CHECKS = ("holonomy-exact", "normal-form", "realization", "linear-model", "conservation")

FIELD_NAMES = sorted(presets._FIELDS)
MAP_NAMES = sorted(presets._MAPS)
edge = st.sampled_from(EDGE)


def spec(names):
    """A preset name, from ``names`` or from either table, bare or with 0-5 edge arguments."""
    name = st.sampled_from(names) | st.sampled_from(FIELD_NAMES + MAP_NAMES)
    return st.builds(lambda n, args, bare: n if bare else f"{n}({','.join(args)})",
                     name, st.lists(edge, max_size=5), st.booleans())


def joined(max_size):
    return st.lists(edge, min_size=1, max_size=max_size).map(",".join)


@lru_cache(maxsize=None)
def _base_documents():
    """kind -> JSON documents written from presets, each at its preset's order."""
    foliations = [presets.load_foliation(name) for name in ("thmB", "genF", "linear(1,-1)")]
    return {
        "field": [presets.load_field(name).to_json_dict()
                  for name in ("thmB", "example1(1,1,1,1)", "genH")],
        "foliation": [{"field": F.field.to_json_dict(), "separatrix_axis": F.separatrix_axis}
                      for F in foliations],
        "map": [holonomy_series(foliations[0], 3)[0].to_json_dict()],
    }


def _nodes(doc, path=()):
    """The path of every node below the root of a JSON document."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_json(draw, kind):
    """A preset's JSON document with at most one node replaced by an edge value."""
    doc = copy.deepcopy(draw(st.sampled_from(_base_documents()[kind])))
    paths = list(_nodes(doc))
    index = draw(st.integers(-1, len(paths) - 1))
    if index >= 0:
        *parent, key = paths[index]
        target = doc
        for step in parent:
            target = target[step]
        target[key] = draw(st.sampled_from(JSON_EDGE))
    return doc


def source(option, names, kind):
    """(``option`` and a preset spec, None) or (``option`` and the "{json}"
    placeholder, the document to write there)."""
    return (spec(names).map(lambda s: ([option, s], None))
            | mutated_json(kind).map(lambda d: ([option, "{json}"], d)))


def options(defaults, fuzzed):
    """``defaults`` with any subset of ``fuzzed`` (option -> strategy) drawn over them."""
    return st.fixed_dictionaries({}, optional=fuzzed).map(lambda drawn: {**defaults, **drawn})


def command(name, src, defaults, fuzzed):
    """(command line, JSON document or None) of one command."""
    return st.builds(lambda s, opts: ([name, *s[0], *[w for kv in opts.items() for w in kv]], s[1]),
                     src, options(defaults, fuzzed))


NO_SOURCE = st.just(([], None))
COMMANDS = {
    "holonomy": command("holonomy", source("--field", FIELD_NAMES, "foliation"), {"--order": "3"},
                        {"--order": edge, "--z0": edge}),
    "flow": command("flow", source("--field", FIELD_NAMES, "field"), {"--order": "3"},
                    {"--order": edge, "--time": edge, "--point": joined(3)}),
    "orbit": command("orbit", source("--map", MAP_NAMES, "map"),
                     {"--grid": "2x2", "--budget": "50"},
                     {"--radius": edge, "--grid-low": edge, "--budget": edge,
                      "--random-seeds": edge, "--seed": edge}),
    "orbit-level-circle": st.tuples(
        st.builds(lambda budget: ["orbit", "--map", "F", "--level-circle", "--budget", budget],
                  edge), st.none()),
    "orbit-random-seeds": st.tuples(
        st.builds(lambda s, seed: ["orbit", "--map", s, "--random-seeds", "2", "--seed", seed,
                                   "--budget", "50"], spec(MAP_NAMES), edge), st.none()),
    "pseudogroup": command("pseudogroup", NO_SOURCE, {"--seeds": "2"},
                           {"--preset": st.sampled_from(["h1h2", "schur24", "nosuch"]),
                            "--seeds": edge, "--radius": edge, "--word-budget": edge,
                            "--point-budget": edge}),
    "petal": command("petal", NO_SOURCE, {"--d": "2"}, {"--d": edge, "--c": edge}),
    "verify-integral": command("verify-integral", source("--field", FIELD_NAMES, "field"),
                               {"--exponents": "1,1,2"},
                               {"--exponents": joined(3), "--point": joined(3), "--tol": edge}),
    "reproduce-paper": st.tuples(
        st.builds(lambda only: ["reproduce-paper", *[a for name in only for a in ("--only", name)],
                                "--report", "{dir}/report.md"],
                  st.lists(st.sampled_from(CHEAP_CHECKS + ("nosuch",)), min_size=1,
                           max_size=2)), st.none()),
}


class TimeLimit(BaseException):
    """A BaseException, as KeyboardInterrupt is, so that no ``except
    Exception`` in the program under test can hold it back or drop it."""


def _alarm(signum, frame):
    raise TimeLimit(f"the example ran for more than {TIME_LIMIT_S} s")


def invoke(args):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return CliRunner().invoke(main, args)
    except TimeLimit as exc:
        raise AssertionError(f"{args} hit the time limit") from exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=60)
@given(data=st.data())
def test_every_input_gets_an_answer_or_one_reason(name, data):
    args, doc = data.draw(COMMANDS[name], label="command line, JSON document")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        if doc is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh)
        res = invoke([a.replace("{json}", path).replace("{dir}", tmp) for a in args])
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        "".join(traceback.format_exception(*res.exc_info))
    allowed = {0, 2, 3} | ({1} if args[0] in CHECK_COMMANDS else set())
    assert res.exit_code in allowed, res.output
    if res.exit_code in (2, 3):
        assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1, \
            res.output
