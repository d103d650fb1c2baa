"""Named built-in vector fields, foliations and maps, and the one input path.

String syntax: a bare name ("thmB") or name(args) with numeric arguments,
e.g. "example1(1,1,1,1)" or "linear(1,-1,-2)".  The loaders also take a
``.json`` path, and build every field to at least the requested order.
"""
from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from typing import List, Sequence, Tuple

from .flows import VectorField
from .holonomy import Foliation, realize_as_holonomy
from .jets import Jet, JetMap, DEFAULT_ORDER
from .orbits import (
    EvaluableMap,
    LinearMap,
    OneVarParabolicMap,
    PermutationMap,
    ProductPreservingMap,
    TimeOneMap,
    TruncatedJetMap,
)

TWO_PI_I = 2j * math.pi


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


def _siegel_family(extra_exp, order: int) -> VectorField:
    """x(1 + x^i y^j z^k) d/dx + y(1 - x^i y^j z^k) d/dy - z d/dz."""
    i, j, k = extra_exp
    order = max(order, 1 + i + j + k)
    cx = Jet(3, order, {(1, 0, 0): 1.0, (1 + i, j, k): 1.0})
    cy = Jet(3, order, {(0, 1, 0): 1.0, (i, 1 + j, k): -1.0})
    cz = Jet(3, order, {(0, 0, 1): -1.0})
    return VectorField([cx, cy, cz])


def field_thmB(order: int = DEFAULT_ORDER) -> VectorField:
    return _siegel_family((2, 1, 3), order)


def field_example3(order: int = DEFAULT_ORDER) -> VectorField:
    return _siegel_family((1, 1, 2), order)


def field_example1(n: int, m: int, a: int, b: int,
                   order: int = DEFAULT_ORDER) -> VectorField:
    """x^a y^b * (x d/dx - (n/m) y d/dy) on (C^2, 0)."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if a < 0 or b < 0:
        raise ValueError(f"exponents a, b must be non-negative, got a={a}, b={b}")
    lam = Fraction(n, m)
    order = max(order, a + b + 1)
    cx = Jet(2, order, {(a + 1, b): 1.0})
    cy = Jet(2, order, {(a, b + 1): -float(lam)})
    return VectorField([cx, cy])


def field_linear(lambdas: Sequence[complex], order: int = DEFAULT_ORDER) -> VectorField:
    n = len(lambdas)
    if n == 0:
        raise ValueError("a linear field needs at least one eigenvalue")
    comps = []
    for i, lam in enumerate(lambdas):
        exp = tuple(1 if k == i else 0 for k in range(n))
        comps.append(Jet(n, order, {exp: complex(lam)}))
    return VectorField(comps)


def generator_F(order: int = DEFAULT_ORDER) -> VectorField:
    """2 pi i * x*y * (x d/dx - y d/dy): its time-one map is an F-type
    product-preserving germ tangent to the identity."""
    order = max(order, 3)
    cx = Jet(2, order, {(2, 1): TWO_PI_I})
    cy = Jet(2, order, {(1, 2): -TWO_PI_I})
    return VectorField([cx, cy])


def generator_H(order: int = DEFAULT_ORDER) -> VectorField:
    """2 pi i * x^2*y * (x d/dx - y d/dy): time-one map is H-type."""
    order = max(order, 4)
    cx = Jet(2, order, {(3, 1): TWO_PI_I})
    cy = Jet(2, order, {(2, 2): -TWO_PI_I})
    return VectorField([cx, cy])


def generator_linear(order: int = DEFAULT_ORDER) -> VectorField:
    """2 pi i * (x d/dx - y d/dy)."""
    cx = Jet(2, order, {(1, 0): TWO_PI_I})
    cy = Jet(2, order, {(0, 1): -TWO_PI_I})
    return VectorField([cx, cy])


_FIELD_BUILDERS = {
    "thmB": lambda args, order: field_thmB(order),
    "example3": lambda args, order: field_example3(order),
    "example1": lambda args, order: field_example1(*_integers(_expect(args, 4)), order=order),
    "linear": lambda args, order: field_linear(args, order),
    "genF": lambda args, order: generator_F(order),
    "genH": lambda args, order: generator_H(order),
    "genLinear": lambda args, order: generator_linear(order),
}


def _expect(args, n):
    if len(args) != n:
        raise PresetError(f"expected {n} arguments, got {len(args)}")
    return args


def _integers(args) -> List[int]:
    ints = [int(a.real) for a in args]
    if ints != args:
        raise PresetError("expected integer arguments")
    return ints


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


def _at_least(X: VectorField, order: int) -> VectorField:
    """The order rule of a JSON field: raised to ``order``, never lowered."""
    return X.truncate(max(X.order, order))


def _build(kind: str, builders: dict, spec: str, *extra):
    """The preset ``spec`` names in ``builders``; every rejection is a PresetError."""
    name, args = _parse(spec)
    if name not in builders:
        raise PresetError(
            f"unknown {kind} preset {name!r}; available: {', '.join(sorted(builders))}")
    try:
        return builders[name](args, *extra)
    except ValueError as e:
        raise PresetError(f"invalid {kind} preset {spec!r}: {e}") from e


def load_field(spec: str, order: int = DEFAULT_ORDER) -> VectorField:
    if spec.endswith(".json"):
        return _read_json(spec, "vector-field",
                          lambda d: _at_least(VectorField.from_json_dict(d), order))
    return _build("field", _FIELD_BUILDERS, spec, order)


def load_foliation(spec: str, order: int = DEFAULT_ORDER) -> Foliation:
    """Foliation for a field preset: 3-var presets use the z-axis (index 2),
    linear presets the first axis, planar generators are realized."""
    if spec.endswith(".json"):
        F = _read_json(spec, "foliation", Foliation.from_json_dict)
        return Foliation(_at_least(F.field, order), F.separatrix_axis)
    name, _ = _parse(spec)
    X = load_field(spec, order)
    if name in ("thmB", "example3"):
        return Foliation(X, separatrix_axis=2)
    if name == "linear":
        return Foliation(X, separatrix_axis=0)
    if name in ("genF", "genH", "genLinear"):
        return realize_as_holonomy(X)
    raise PresetError(f"preset {name!r} has no canonical foliation")


# -- maps -------------------------------------------------------------------


def const_f_jet(value: complex = TWO_PI_I, order: int = DEFAULT_ORDER) -> Jet:
    return Jet(1, order, {(0,): complex(value)})


def map_F(f_value: complex = TWO_PI_I) -> ProductPreservingMap:
    return ProductPreservingMap(1, 1, const_f_jet(f_value), name="F")


def map_H(f_value: complex = TWO_PI_I) -> ProductPreservingMap:
    return ProductPreservingMap(2, 1, const_f_jet(f_value), name="H")


def map_h1() -> LinearMap:
    return LinearMap(
        [[cmath.exp(1j * math.pi / 3), 0.0], [0.0, cmath.exp(2j * math.pi / 3)]],
        name="h1",
    )


def map_h2() -> PermutationMap:
    return PermutationMap([1, 0], name="h2")


_MAP_BUILDERS = {
    "F": lambda args: map_F(*args) if args else map_F(),
    "H": lambda args: map_H(*args) if args else map_H(),
    "h1": lambda args: map_h1(),
    "h2": lambda args: map_h2(),
    "swap": lambda args: map_h2(),
    "parabolic": lambda args: OneVarParabolicMap(
        *_integers(_expect(args, 2)[:1]), args[1], name="parabolic"
    ),
    "phiX": lambda args: TimeOneMap(field_example1(*_integers(_expect(args, 4))), name="phiX"),
}


def load_map(spec: str) -> EvaluableMap:
    if spec.endswith(".json"):
        return _read_json(spec, "jet-map",
                          lambda d: TruncatedJetMap(JetMap.from_json_dict(d), name=spec))
    return _build("map", _MAP_BUILDERS, spec)


def pseudogroup_preset(name: str) -> List[EvaluableMap]:
    if name in ("h1h2", "schur24"):
        return [map_h1(), map_h2()]
    raise PresetError(f"unknown pseudogroup preset {name!r}; available: h1h2, schur24")


# The golden-mean level constant for the F-map experiment: C is chosen on
# the locus |1 + C f(C)| = 1 (f == 2 pi i) with rotation number
# gamma = (sqrt(5)-1)/2, i.e. 1 + 2 pi i C = e^(2 pi i gamma).
GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0
F_LEVEL_CONSTANT = (cmath.exp(TWO_PI_I * GOLDEN_ROTATION) - 1.0) / TWO_PI_I


def level_circle_seeds(k: int) -> List[Tuple[complex, complex]]:
    """``k`` seeds on the level set x*y = F_LEVEL_CONSTANT at x = 0.55 e^(2 pi i j/k)."""
    return [((x0 := 0.55 * cmath.exp(2j * math.pi * j / k)), F_LEVEL_CONSTANT / x0)
            for j in range(k)]
