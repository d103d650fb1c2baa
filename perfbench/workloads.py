"""Seeded workloads for the holodyn benchmark.

Every input is generated here from the workload seed; the library only
receives the generated inputs and is called through its public functions.
Each workload is a list of items (one jet, one oracle point, one orbit
seed, one BFS seed or one petal run) plus a warm-up item that is run once
before timing.  Every item carries a gate that checks its result against
a closed form, an invariant or a tolerance fixed before the run.
"""
from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from holodyn import (
    DomainBall,
    Foliation,
    Jet,
    JetMap,
    TruncatedJetMap,
    VectorField,
    flow_coefficient_table,
    holonomy_numeric,
    holonomy_series,
    iterate_orbit,
    lattice_seeds,
    petal_analysis,
    presets,
    pseudogroup_orbit,
)

TWO_PI_I = 2j * math.pi
RESIDUAL_TOL = 1e-12       # symbolic ODE residual of every coefficient table
CLOSED_FORM_TOL = 1e-10    # preset jet coefficients against their closed forms
ORACLE_CONSTANT = 1e3      # |series - numeric| <= ORACLE_CONSTANT * radius^(order+1)


@dataclass
class Item:
    """One unit of timed work.

    ``kind`` names the public function the item calls (it becomes the
    item's trace span), ``run`` performs the call and ``check`` returns
    None when the result passes its gate, else the reason it failed.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    items: List[Item]
    warmup: Item


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _complex(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _phase(rng: random.Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def _monomials(n: int, lo: int, hi: int):
    for exp in itertools.product(range(hi + 1), repeat=n):
        if lo <= sum(exp) <= hi:
            yield exp


def _unit(n: int, j: int):
    return tuple(1 if k == j else 0 for k in range(n))


# -- seeded input generators --------------------------------------------------


def dense_foliation(rng: random.Random, order: int) -> Foliation:
    """Random 3-variable foliation with axis z, admissible by construction.

    Transverse components are lambda_j x_j plus every monomial of degree 2-3
    whose transverse degree is >= 2; the axis component is
    z * (lambda + random x,y-only monomials of degree 1-2).  Eigenvalues
    (1, -2 | 3) make the loop frequencies 2/3 and -4/3 hit resonances.
    """
    lam = (1.0, -2.0, 3.0)
    comps = []
    for j in range(2):
        coeffs = {_unit(3, j): complex(lam[j])}
        for exp in _monomials(3, 2, 3):
            if exp[0] + exp[1] >= 2:
                coeffs[exp] = _complex(rng)
        comps.append(coeffs)
    axis = {(0, 0, 1): complex(lam[2])}
    for exp in _monomials(2, 1, 2):
        axis[(exp[0], exp[1], 1)] = _complex(rng)
    comps.append(axis)
    field_order = max(order, 4)
    return Foliation(VectorField([Jet(3, field_order, c) for c in comps]), separatrix_axis=2)


def dense_planar_field(rng: random.Random, order: int) -> VectorField:
    """Random planar field with eigenvalues (1, -2) and every degree-2-3 term."""
    lam = (1.0, -2.0)
    comps = []
    for j in range(2):
        coeffs = {_unit(2, j): complex(lam[j])}
        for exp in _monomials(2, 2, 3):
            coeffs[exp] = _complex(rng)
        comps.append(Jet(2, order, coeffs))
    return VectorField(comps)


def polydisc_point(rng: random.Random, radius: float, n: int = 2) -> tuple:
    """Uniform point of the polydisc of the given radius (max-norm ball)."""
    return tuple(radius * math.sqrt(rng.random()) * _phase(rng) for _ in range(n))


# -- gates ----------------------------------------------------------------------


def _table_gate(table) -> Optional[str]:
    """The coefficients solve their ODEs and start from the identity at t = 0;
    together these determine them."""
    resid = table.ode_residual_max()
    if not resid <= RESIDUAL_TOL:
        return f"ODE residual {resid:.2e} > {RESIDUAL_TOL:.0e}"
    start = table.at_time(0.0).max_abs_diff(JetMap.identity(table.n_vars, table.order))
    if not start <= CLOSED_FORM_TOL:
        return f"coefficients at t = 0 differ from the identity by {start:.2e}"
    return None


def _linear_gate(h, expected) -> Optional[str]:
    L = h.linear_part()
    n = len(expected)
    for i in range(n):
        for j in range(n):
            want = expected[i] if i == j else 0.0
            if abs(L[i][j] - want) > CLOSED_FORM_TOL:
                return f"linear part [{i}][{j}] = {L[i][j]:.6g}, expected {want:.6g}"
    return None


# Leading nonlinear holonomy coefficients, as in `holodyn reproduce-paper`:
# thmB has a31 = -2 pi i, b22 = 2 pi i; the realized generators are the
# time-one maps x e^(2 pi i w), y e^(-2 pi i w) with w = xy (F) or x^2 y (H).
PRESET_CLOSED_FORMS = {
    "thmB": {(0, (3, 1)): -TWO_PI_I, (1, (2, 2)): TWO_PI_I},
    "example3": {(0, (2, 1)): -TWO_PI_I, (1, (1, 2)): TWO_PI_I},
    "linear(1,-1,-2)": {},
    "genF": {(0, (2, 1)): TWO_PI_I, (1, (1, 2)): -TWO_PI_I},
    "genH": {(0, (3, 1)): TWO_PI_I, (1, (2, 2)): -TWO_PI_I},
    "genLinear": {},
}
PRESET_ORDERS = (4, 8, 12)


def _preset_gate(name: str, order: int):
    closed = PRESET_CLOSED_FORMS[name]

    def check(result) -> Optional[str]:
        h, table = result
        # every preset has resonant eigenvalue ratios, so the linear part of
        # the holonomy diag(e^(2 pi i lambda_j / lambda_axis)) is the identity
        bad = _linear_gate(h, (1.0, 1.0)) or _table_gate(table)
        if bad:
            return bad
        for (comp, exp), want in closed.items():
            got = complex(h.components[comp].coeff(exp))
            if abs(got - want) > CLOSED_FORM_TOL:
                return f"coefficient {exp} of component {comp} = {got:.6g}, expected {want:.6g}"
        if not closed:
            extra = max((abs(complex(c)) for comp in h.components
                         for exp, c in comp.terms() if sum(exp) > 1), default=0.0)
            if extra > CLOSED_FORM_TOL:
                return f"linear model has a nonlinear coefficient of size {extra:.2e}"
        # every preset holonomy preserves x*y through its truncation order
        xy = Jet(2, order, {(1, 1): 1.0 + 0j})
        defect = xy.compose(h).max_abs_diff(xy)
        if defect > CLOSED_FORM_TOL:
            return f"x*y defect {defect:.2e}"
        return None

    return check


# -- exact-series -------------------------------------------------------------------

DENSE_FOLIATIONS = 3
DENSE_FOLIATION_ORDER = 6
DENSE_FLOW_ORDER = 8


def _series_item(label: str, F: Foliation, order: int, check) -> Item:
    return Item("holonomy_series", label, lambda: holonomy_series(F, order), check)


def _dense_series_gate(F: Foliation):
    lam = F.field.eigenvalues
    expected = [cmath.exp(TWO_PI_I * lam[j] / lam[2]) for j in (0, 1)]

    def check(result) -> Optional[str]:
        h, table = result
        return _linear_gate(h, expected) or _table_gate(table)

    return check


def _flow_gate(X: VectorField):
    def check(table) -> Optional[str]:
        for j, lam in enumerate(X.eigenvalues):
            got = table.entry(j, _unit(2, j)).eval(1.0)
            if abs(got - cmath.exp(lam)) > CLOSED_FORM_TOL:
                return f"linear flow coefficient {j} = {got:.6g}, expected e^{lam}"
        return _table_gate(table)

    return check


def exact_series(seed: int) -> Workload:
    rng = _rng("exact-series", seed)
    dense = []
    for k in range(DENSE_FOLIATIONS):
        F = dense_foliation(rng, DENSE_FOLIATION_ORDER)
        dense.append(_series_item(f"dense-foliation-{k}", F, DENSE_FOLIATION_ORDER,
                                  _dense_series_gate(F)))
    X = dense_planar_field(rng, DENSE_FLOW_ORDER)
    dense.append(Item("flow_coefficient_table", "dense-planar-flow",
                      lambda: flow_coefficient_table(X, DENSE_FLOW_ORDER), _flow_gate(X)))
    small = []
    for name in PRESET_CLOSED_FORMS:
        F = presets.load_foliation(name)
        for order in PRESET_ORDERS:
            small.append(_series_item(f"{name}@{order}", F, order, _preset_gate(name, order)))
    # the preset jets take milliseconds, so each runs once before and once
    # after every dense item: its latency is a median over the whole pass
    items = list(small)
    for item in dense:
        items += [item] + small
    warm = _series_item("warmup-thmB@4", presets.load_foliation("thmB"), 4,
                        _preset_gate("thmB", 4))
    return Workload(items, warm)


# -- numeric-oracle ------------------------------------------------------------------

ORACLE_RADIUS = 0.05
ORACLE_PRESET_ORDER = 8
ORACLE_PRESET_POINTS = 40      # per preset foliation
ORACLE_DENSE_ORDER = 4
# the integration cost of a random foliation depends on its coefficients,
# so the 20 dense points are spread over four foliations
ORACLE_DENSE_FOLIATIONS = 4
ORACLE_DENSE_POINTS = 5        # per dense foliation


def _oracle_item(label: str, F: Foliation, h, order: int, p) -> Item:
    tol = ORACLE_CONSTANT * ORACLE_RADIUS ** (order + 1)

    def check(numeric) -> Optional[str]:
        series = np.array(h.eval(p), dtype=complex)
        err = float(np.max(np.abs(series - numeric)))
        if not err <= tol:
            return f"|series - numeric| = {err:.2e} > {tol:.2e}"
        return None

    return Item("holonomy_numeric", label, lambda: holonomy_numeric(F, p), check)


def numeric_oracle(seed: int) -> Workload:
    rng = _rng("numeric-oracle", seed)
    cases = []
    for name in ("thmB", "example3"):
        F = presets.load_foliation(name)
        h, _ = holonomy_series(F, ORACLE_PRESET_ORDER)
        cases.append((name, F, h, ORACLE_PRESET_ORDER, ORACLE_PRESET_POINTS))
    for k in range(ORACLE_DENSE_FOLIATIONS):
        F = dense_foliation(rng, ORACLE_DENSE_ORDER)
        h, _ = holonomy_series(F, ORACLE_DENSE_ORDER)
        cases.append((f"dense{k}", F, h, ORACLE_DENSE_ORDER, ORACLE_DENSE_POINTS))
    items = []
    for name, F, h, order, count in cases:
        for k in range(count):
            p = polydisc_point(rng, ORACLE_RADIUS)
            items.append(_oracle_item(f"{name}-{k}", F, h, order, p))
    name, F, h, order, _ = cases[0]
    warm = _oracle_item("warmup-thmB", F, h, order, polydisc_point(rng, ORACLE_RADIUS))
    return Workload(items, warm)


# -- orbit-grid ------------------------------------------------------------------------

GRID_RADIUS = 0.3
GRID_LOW = 0.05
GRID_PER_AXIS = 20
GRID_BUDGET = 100_000
BFS_SEEDS = 100
BFS_RADIUS = 0.8
GROUP_ORDER = 24


def _round_trip(h, p) -> float:
    """|h^-1(h(p)) - p|: the backward orbit is only as good as the inverse."""
    return max(abs(a - b) for a, b in zip(h.inverse().eval(h.eval(p)), p))


def _finite_orbit_gate(h, p):
    def check(rec) -> Optional[str]:
        # the H-map experiment: every orbit in the calibrated ball is finite
        if rec.status == "BudgetExhausted":
            return "H orbit exhausted its budget inside the calibrated ball"
        if rec.status == "Escaped" and (rec.mu is None or rec.mu < 3):
            return f"escaped orbit with mu = {rec.mu}"
        err = _round_trip(h, p)
        if err > CLOSED_FORM_TOL:
            return f"inverse round trip at the seed is off by {err:.2e}"
        return None

    return check


def _orbit_item(label: str, h, p, V, budget: int, check, keep_points: bool = False) -> Item:
    return Item("iterate_orbit", label,
                lambda: iterate_orbit(h, p, V, budget=budget, keep_points=keep_points), check)


def _bfs_gate(p):
    moduli = sorted(abs(c) for c in p)

    def check(orb) -> Optional[str]:
        if orb.truncated:
            return "pseudogroup orbit truncated"
        if GROUP_ORDER % orb.cardinality:
            return f"cardinality {orb.cardinality} does not divide {GROUP_ORDER}"
        # h1 is diagonal unitary and h2 swaps: moduli are invariant as a set
        for q in orb.points:
            if max(abs(a - b) for a, b in zip(sorted(abs(c) for c in q), moduli)) > 1e-12:
                return f"orbit point {q} changed the seed's moduli"
        return None

    return check


def orbit_grid(seed: int) -> Workload:
    rng = _rng("orbit-grid", seed)
    H = presets.map_H()
    V = DomainBall(GRID_RADIUS)
    items = []
    for k, p in enumerate(lattice_seeds(GRID_RADIUS, GRID_PER_AXIS, low=GRID_LOW)):
        items.append(_orbit_item(f"lattice-{k}", H, p, V, GRID_BUDGET,
                                 _finite_orbit_gate(H, p)))
    # complex seeds in the same annular polydisc: moduli jittered on the
    # 20x20 cells of [low, radius]^2, phases uniform.  H commutes with
    # (x, y) -> (a x, y / a^2) for |a| = 1, which fixes the moduli and
    # arg(x^2 y) and maps orbits onto orbits of the same length.  Those three
    # come from one fixed draw and the seed draws the phase a of each point,
    # so every seed asks for the same number of steps: orbit lengths have a
    # long tail, and fresh moduli would change the work from seed to seed.
    base = _rng("orbit-grid", "base")
    cell = (GRID_RADIUS - GRID_LOW) / GRID_PER_AXIS
    for i in range(GRID_PER_AXIS):
        for j in range(GRID_PER_AXIS):
            rx = GRID_LOW + cell * (i + base.random())
            ry = GRID_LOW + cell * (j + base.random())
            w_phase, a = _phase(base), _phase(rng)
            p = (rx * a, ry * w_phase / (a * a))
            items.append(_orbit_item(f"complex-{i}-{j}", H, p, V, GRID_BUDGET,
                                     _finite_orbit_gate(H, p)))
    gens = presets.pseudogroup_preset("schur24")
    V1 = DomainBall(1.0)
    for k in range(BFS_SEEDS):
        p = polydisc_point(rng, BFS_RADIUS)
        items.append(Item("pseudogroup_orbit", f"bfs-{k}",
                          lambda p=p: pseudogroup_orbit(gens, p, V1), _bfs_gate(p)))
    p = ((GRID_LOW + GRID_RADIUS) / 2 * _phase(rng), (GRID_LOW + GRID_RADIUS) / 2 * _phase(rng))
    warm = _orbit_item("warmup-H", H, p, V, GRID_BUDGET, _finite_orbit_gate(H, p))
    return Workload(items, warm)


# -- orbit-long ------------------------------------------------------------------------

LEVEL_MODULUS = 0.55
LEVEL_SEEDS = 6
LEVEL_BUDGET = 20_000
WARMUP_BUDGET = 500
JET_ORDER = 6
JET_SEEDS = 5
JET_MODULUS = 0.008
# escaping the 0.3-ball from |x| = |y| = 0.008 takes at least
# ln(0.3/0.008) / (2 pi |xy|) ~ 9000 steps, so every jet orbit exhausts it
JET_BUDGET = 6_000
JET_PRODUCT_DRIFT = 1e-9   # relative drift of x*y along a jet orbit
LEVEL_MODULUS_DRIFT = 1e-8
PETAL_DEGREES = (2, 3)
PETAL_ARG_TOL = 1e-2


def _exhausted_both_ways(rec, budget: int) -> Optional[str]:
    """A bounded orbit must use its whole budget forward and backward."""
    if rec.status != "BudgetExhausted" or rec.mu is not None or rec.mu_label != "budget":
        return f"bounded orbit reported {rec.status} (mu {rec.mu_label})"
    steps = (len(rec.forward_points), len(rec.backward_points))
    if steps != (budget, budget):
        return f"bounded orbit stayed in the ball for {steps} steps, not {budget} each way"
    return None


def _level_circle_gate(V, budget: int):
    def check(rec) -> Optional[str]:
        # a bounded never-closing orbit: reported as infinite-suspected only
        bad = _exhausted_both_ways(rec, budget)
        if bad:
            return bad
        pts = rec.forward_points + rec.backward_points
        if not all(V.contains(q) for q in pts):
            return "level-circle orbit left the ball"
        drift = max(abs(abs(q[0]) - LEVEL_MODULUS) for q in pts)
        if drift > LEVEL_MODULUS_DRIFT:
            return f"|x| drifted by {drift:.2e} on the level circle"
        return None

    return check


def _jet_orbit_gate(p):
    C = p[0] * p[1]

    def check(rec) -> Optional[str]:
        bad = _exhausted_both_ways(rec, JET_BUDGET)
        if bad:
            return bad
        drift = max(abs(q[0] * q[1] - C) for q in rec.forward_points + rec.backward_points)
        if drift > JET_PRODUCT_DRIFT * abs(C):
            return f"x*y drifted by {drift / abs(C):.2e} (relative) along the jet orbit"
        return None

    return check


def _petal_gate(d: int):
    def check(rep) -> Optional[str]:
        if len(rep.attracting_dirs) != d or rep.sector_count != 2 * d:
            return f"petal count {len(rep.attracting_dirs)} for d = {d}"
        for run in rep.runs:
            if not run["converged"] or run["arg_error"] > PETAL_ARG_TOL:
                return f"petal run did not converge along its direction: {run}"
        return None

    return check


def _level_seed(rng: random.Random):
    x0 = LEVEL_MODULUS * _phase(rng)
    return (x0, presets.F_LEVEL_CONSTANT / x0)


def orbit_long(seed: int) -> Workload:
    rng = _rng("orbit-long", seed)
    F = presets.map_F()
    V = DomainBall(1.0)
    items = []
    for k in range(LEVEL_SEEDS):
        items.append(_orbit_item(f"level-circle-{k}", F, _level_seed(rng), V, LEVEL_BUDGET,
                                 _level_circle_gate(V, LEVEL_BUDGET), keep_points=True))
    h, _ = holonomy_series(presets.load_foliation("example3"), JET_ORDER)
    J = TruncatedJetMap(h, name="example3")
    Vj = DomainBall(GRID_RADIUS)
    for k in range(JET_SEEDS):
        p = (JET_MODULUS * _phase(rng), JET_MODULUS * _phase(rng))
        items.append(_orbit_item(f"jet-{k}", J, p, Vj, JET_BUDGET, _jet_orbit_gate(p),
                                 keep_points=True))
    for d in PETAL_DEGREES:
        c = _phase(rng)
        items.append(Item("petal_analysis", f"petal-{d}",
                          lambda d=d, c=c: petal_analysis(d, c), _petal_gate(d)))
    warm = _orbit_item("warmup-level-circle", F, _level_seed(rng), V, WARMUP_BUDGET,
                       _level_circle_gate(V, WARMUP_BUDGET), keep_points=True)
    return Workload(items, warm)


WORKLOADS = {
    "exact-series": exact_series,
    "numeric-oracle": numeric_oracle,
    "orbit-grid": orbit_grid,
    "orbit-long": orbit_long,
}
