"""Named built-in vector fields, foliations, maps and pseudogroups, and the one input contract.

String syntax: a bare name ("thmB") or name(args) with numeric arguments,
e.g. "example1(1,1,1,1)" or "linear(1,-1,-2)".  The loaders also take a
``.json`` path.  A loaded field keeps its source's order: a preset its
least order, a JSON file its declared one; only the computation takes an order.
A preset table per kind (``_FIELDS``, ``_MAPS``, ``_PSEUDOGROUPS``) and one
bound table decide every outside input, and every rejection is a
PresetError with a one-line reason.
"""
from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exppoly import TWO_PI_I
from .flows import VectorField
from .holonomy import Foliation, realize_as_holonomy
from .jets import Jet, JetMap
from .orbits import (
    EvaluableMap,
    LinearMap,
    MonomialFlowMap,
    OneVarParabolicMap,
    PermutationMap,
    ProductPreservingMap,
    TruncatedJetMap,
    lattice_seeds,
)

# The bound table: the largest value an outside input may ask for.
MAX_ORDER = 1_000  # --order, and the jets of whatever a loader returns, JSON or preset
MAX_TERMS = 10_000  # the terms of one jet a loader returns; a first eval compiles them all
MAX_SEEDS = 1_000_000  # the seeds of one run: --grid's product, --random-seeds, --seeds
MAX_BUDGET = 10_000_000  # orbit --budget, the steps per seed and direction
MAX_PETAL_DEGREE = 100  # petal --d (50,000 steps in each of d directions), parabolic(d,c)'s d
# Beside it, the integrator's own bounds, read at call time: flows.MAX_STEPS =
# 100,000 steps per integration, 80 times the longest one the tests run
# (1,245), and flows.ESCAPE_RADIUS = 10, the max-norm a trajectory may reach.


class PresetError(ValueError):
    pass


class NonFiniteNumber(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """The finite complex number ``text`` spells, with a trailing i or j as
    the imaginary unit ("0.3+0.5i", "2i", "-1e-3i", "1+2j"); spaces are
    ignored.  Raises NonFiniteNumber (a ValueError) for an infinity or a NaN,
    and ValueError for anything that is not a number."""
    s = text.replace(" ", "")
    if s.endswith("i"):
        s = s[:-1] + "j"
    z = complex(s)
    if not cmath.isfinite(z):
        raise NonFiniteNumber(text)
    return z


_CALL_RE = re.compile(r"^\s*([A-Za-z_][\w-]*)\s*(?:\((.*)\))?\s*$")


def _parse(spec: str):
    m = _CALL_RE.match(spec)
    if not m:
        raise PresetError(f"cannot parse preset spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    args: List[complex] = []
    if argstr:
        for part in argstr.split(","):
            part = part.strip()
            try:
                args.append(parse_complex(part))
            except NonFiniteNumber as e:
                raise PresetError(f"numeric argument {part!r} in {spec!r} is not finite") from e
            except ValueError as e:
                raise PresetError(f"bad numeric argument {part!r} in {spec!r}") from e
    return name, args


def _siegel_family(extra_exp) -> VectorField:
    """x(1 + x^i y^j z^k) d/dx + y(1 - x^i y^j z^k) d/dy - z d/dz, at order 1 + i + j + k."""
    i, j, k = extra_exp
    order = 1 + i + j + k
    cx = Jet(3, order, {(1, 0, 0): 1.0, (1 + i, j, k): 1.0})
    cy = Jet(3, order, {(0, 1, 0): 1.0, (i, 1 + j, k): -1.0})
    cz = Jet(3, order, {(0, 0, 1): -1.0})
    return VectorField([cx, cy, cz])


def field_example1(n: int, m: int, a: int, b: int) -> VectorField:
    """x^a y^b * (x d/dx - (n/m) y d/dy) on (C^2, 0), at order a + b + 1."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if a < 0 or b < 0:
        raise ValueError(f"exponents a, b must be non-negative, got a={a}, b={b}")
    lam = Fraction(n, m)
    cx = Jet(2, a + b + 1, {(a + 1, b): 1.0})
    cy = Jet(2, a + b + 1, {(a, b + 1): -float(lam)})
    return VectorField([cx, cy])


def field_linear(lambdas: Sequence[complex]) -> VectorField:
    """x -> diag(lambdas) x as a field, at order 1."""
    n = len(lambdas)
    if n == 0:
        raise ValueError("a linear field needs at least one eigenvalue")
    return VectorField.linear([[lam if i == j else 0 for j in range(n)]
                               for i, lam in enumerate(lambdas)], 1)


def _generator(a: int, b: int) -> VectorField:
    """2 pi i * x^a y^b * (x d/dx - y d/dy), at order a + b + 1: its
    time-one map is an F-type product-preserving germ for (a, b) = (1, 1)
    and an H-type one for (2, 1)."""
    cx = Jet(2, a + b + 1, {(a + 1, b): TWO_PI_I})
    cy = Jet(2, a + b + 1, {(a, b + 1): -TWO_PI_I})
    return VectorField([cx, cy])


def _integers(args) -> List[int]:
    ints = [int(a.real) for a in args]
    if ints != list(args):
        raise PresetError("expected integer arguments")
    return ints


# name -> (what builds it from (*args) at its least order, its argument counts (None:
# any, and field_linear refuses zero eigenvalues), the rule that makes its foliation)
_FIELDS = {
    "thmB": (lambda: _siegel_family((2, 1, 3)), (0,), lambda X: Foliation(X, 2)),
    "example3": (lambda: _siegel_family((1, 1, 2)), (0,), lambda X: Foliation(X, 2)),
    "example1": (lambda *a: field_example1(*_integers(a)), (4,), None),
    "linear": (lambda *a: field_linear(a), None, lambda X: Foliation(X, 0)),
    "genF": (lambda: _generator(1, 1), (0,), realize_as_holonomy),
    "genH": (lambda: _generator(2, 1), (0,), realize_as_holonomy),
    "genLinear": (lambda: _generator(0, 0), (0,), realize_as_holonomy),
}


def _read_json(path: str, kind: str, decode):
    """``decode`` of the JSON file at ``path``; every rejection is a PresetError."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as e:
        raise PresetError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise PresetError(
            f"malformed JSON in {path}: line {e.lineno}, col {e.colno}: {e.msg}") from e
    try:
        return decode(d)
    except (KeyError, TypeError, ValueError) as e:
        raise PresetError(f"invalid {kind} JSON in {path}: {e}") from e


def _build(kind: str, table: dict, spec: str):
    """``spec``'s name and what its ``table`` entry builds; every rejection is a PresetError."""
    name, args = _parse(spec)
    if name not in table:
        raise PresetError(f"unknown {kind} preset {name!r}; available: {', '.join(sorted(table))}")
    build, counts = table[name][:2]
    try:
        if counts is not None and len(args) not in counts:
            raise PresetError(f"expected {' or '.join(map(str, counts))} arguments, got {len(args)}")
        return name, build(*args)
    except ValueError as e:
        raise PresetError(f"invalid {kind} preset {spec!r}: {e}") from e


def _bounded(out, jets: Sequence[Jet], spec: str, json_kind: str):
    """``out``, loaded from ``spec``, refused when one of its ``jets`` exceeds
    ``MAX_ORDER`` or ``MAX_TERMS``."""
    source = f"{json_kind} JSON in {spec}" if spec.endswith(".json") else f"preset {spec!r}"
    for j in jets:
        if j.order > MAX_ORDER:
            raise PresetError(f"{source} has order {j.order}, more than MAX_ORDER = {MAX_ORDER}")
        if len(j.coeffs) > MAX_TERMS:
            raise PresetError(f"{source} has a jet of {len(j.coeffs)} terms, "
                              f"more than MAX_TERMS = {MAX_TERMS}")
    return out


def load_field(spec: str) -> VectorField:
    if spec.endswith(".json"):
        X = _read_json(spec, "vector-field", VectorField.from_json_dict)
    else:
        _, X = _build("field", _FIELDS, spec)
    return _bounded(X, X.components, spec, "vector-field")


def load_foliation(spec: str) -> Foliation:
    """The foliation a JSON file gives, or the one a field preset's foliation rule makes."""
    if spec.endswith(".json"):
        F = _read_json(spec, "foliation", Foliation.from_json_dict)
    else:
        name, X = _build("field", _FIELDS, spec)
        if _FIELDS[name][2] is None:
            raise PresetError(f"preset {name!r} has no canonical foliation")
        F = _FIELDS[name][2](X)
    return _bounded(F, F.field.components, spec, "foliation")


# -- maps -------------------------------------------------------------------


def map_F(c: complex = TWO_PI_I) -> ProductPreservingMap:
    return ProductPreservingMap(1, 1, c, name="F")


def map_H(c: complex = TWO_PI_I) -> ProductPreservingMap:
    return ProductPreservingMap(2, 1, c, name="H")


def map_h1() -> LinearMap:
    return LinearMap(
        [[cmath.exp(1j * math.pi / 3), 0.0], [0.0, cmath.exp(2j * math.pi / 3)]],
        name="h1",
    )


def map_h2() -> PermutationMap:
    return PermutationMap([1, 0], name="h2")


def _parabolic(d, c) -> OneVarParabolicMap:
    """x -> x + c x^(d+1), for an integer d of at most MAX_PETAL_DEGREE."""
    [d] = _integers([d])
    if d > MAX_PETAL_DEGREE:
        raise PresetError(f"degree d = {d} is more than MAX_PETAL_DEGREE = {MAX_PETAL_DEGREE}")
    return OneVarParabolicMap(d, c)


# name -> (what builds it from (*args), the argument counts it takes)
_MAPS = {
    "F": (map_F, (0, 1)),
    "H": (map_H, (0, 1)),
    "h1": (map_h1, (0,)),
    "h2": (map_h2, (0,)),
    "swap": (map_h2, (0,)),
    "parabolic": (_parabolic, (2,)),
    "phiX": (lambda *a: MonomialFlowMap(*_integers(a), name="phiX"), (4,)),
}


def load_map(spec: str) -> EvaluableMap:
    if spec.endswith(".json"):
        jmap = _read_json(spec, "jet-map", JetMap.from_json_dict)
        # bounded before it is built: building compiles the map's evaluator
        return TruncatedJetMap(_bounded(jmap, jmap.components, spec, "jet-map"), name=spec)
    _, h = _build("map", _MAPS, spec)
    # phiX(n,m,a,b) is bounded by the order a + b + 1 of its field, as example1 is
    phiX = isinstance(h, MonomialFlowMap)
    jets = field_example1(h.n, h.m, h.a, h.b).components if phiX else ()
    return _bounded(h, jets, spec, "jet-map")


# name -> (what builds its generators, the argument counts it takes); both name one group
_PSEUDOGROUPS = dict.fromkeys(("h1h2", "schur24"), (lambda: [map_h1(), map_h2()], (0,)))


def pseudogroup_preset(name: str) -> List[EvaluableMap]:
    return _build("pseudogroup", _PSEUDOGROUPS, name)[1]


def pseudogroup_seeds(n_seeds: int, radius: float, n_vars: int) -> List[Tuple[complex, ...]]:
    """The first ``n_seeds`` points of the real lattice of radius 0.8 * radius
    with max(2, round(sqrt(n_seeds))) points per axis."""
    per_axis = max(2, int(round(math.sqrt(n_seeds))))
    return lattice_seeds(0.8 * radius, per_axis, n_vars=n_vars)[:n_seeds]


# The golden-mean level constant for the F-map experiment: C is chosen on
# the locus |1 + c C| = 1 (c = 2 pi i) with rotation number
# gamma = (sqrt(5)-1)/2, i.e. 1 + 2 pi i C = e^(2 pi i gamma).
GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0
F_LEVEL_CONSTANT = (cmath.exp(TWO_PI_I * GOLDEN_ROTATION) - 1.0) / TWO_PI_I


def level_circle_seeds(k: int) -> List[Tuple[complex, complex]]:
    """``k`` seeds on the level set x*y = F_LEVEL_CONSTANT at x = 0.55 e^(2 pi i j/k)."""
    return [((x0 := 0.55 * cmath.exp(2j * math.pi * j / k)), F_LEVEL_CONSTANT / x0)
            for j in range(k)]
