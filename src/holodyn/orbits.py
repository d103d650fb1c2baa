"""Orbit experiments for germs and pseudogroups on a fixed polydisc.

Implements iteration with domain tracking (a step only counts while the
intermediate images stay inside the ball), the escaped/periodic/
budget-exhausted trichotomy, breadth-first pseudogroup orbits, finite
group closure for exactly-representable generators, and the parabolic
petal analysis for x -> x + c x^(d+1).

Verdicts are experimental: a budget-exhausted orbit is reported as
"infinite-suspected", never as a proof of infinitude.
"""
from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .flows import VectorField, numeric_flow, DomainEscape, StepUnderflow
from .jets import Jet, JetMap

DEFAULT_BUDGET = 100_000
DEFAULT_POINT_BUDGET = 10_000
DEFAULT_WORD_BUDGET = 40
CYCLE_EPS_FACTOR = 1e-9
DEDUP_EPS_FACTOR = 1e-9

Point = Tuple[complex, ...]


class OrbitError(RuntimeError):
    pass


@dataclass(frozen=True)
class DomainBall:
    """Closed polydisc of radius rho in the max-norm."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains(self, p: Point) -> bool:
        return all(abs(c) <= self.radius for c in p)

    @property
    def cycle_eps(self) -> float:
        return CYCLE_EPS_FACTOR * self.radius

    @property
    def dedup_eps(self) -> float:
        return DEDUP_EPS_FACTOR * self.radius


# -- evaluable maps --------------------------------------------------------


class EvaluableMap:
    """A germ that can be evaluated at points; subclasses add exact inverses."""

    name = "map"

    def eval(self, p: Point) -> Point:
        raise NotImplementedError

    def inverse(self) -> Optional["EvaluableMap"]:
        """Exact inverse, or None when only forward iteration is trusted."""
        return None

    @property
    def n_vars(self) -> int:
        raise NotImplementedError


class LinearMap(EvaluableMap):
    def __init__(self, matrix, name: str = "linear"):
        self.matrix = [[complex(v) for v in row] for row in matrix]
        self.name = name

    @property
    def n_vars(self) -> int:
        return len(self.matrix)

    def eval(self, p: Point) -> Point:
        return tuple(
            sum(a * x for a, x in zip(row, p)) for row in self.matrix
        )

    def inverse(self) -> "LinearMap":
        inv = np.linalg.inv(np.array(self.matrix, dtype=complex))
        return LinearMap(inv.tolist(), name=self.name + "^-1")


class PermutationMap(LinearMap):
    """Coordinate permutation composed with a diagonal linear map."""

    def __init__(self, perm: Sequence[int], scalars: Sequence[complex] | None = None,
                 name: str = "perm"):
        n = len(perm)
        scalars = [1.0 + 0j] * n if scalars is None else list(scalars)
        matrix = [[0.0 + 0j] * n for _ in range(n)]
        for i, j in enumerate(perm):
            matrix[i][j] = complex(scalars[i])
        super().__init__(matrix, name=name)
        self.perm = tuple(perm)


class ProductPreservingMap(EvaluableMap):
    """(x, y) -> (x*u, y/u) with u = 1 + w f(w), w = x^a y^b.

    The product x*y is preserved exactly (u and 1/u are evaluated
    pointwise, not truncated).  The inverse solves for the preimage by a
    1-d Newton iteration on the invariant level set x*y = C, which is
    exact to rounding for every (a, b).
    """

    def __init__(self, a: int, b: int, f: Jet, name: str = "product-preserving"):
        if a < 1 or b < 1:
            raise ValueError("exponents a, b must be positive")
        if f.n_vars != 1:
            raise ValueError("f must be a one-variable jet")
        self.a = int(a)
        self.b = int(b)
        self.f = f
        self.name = name

    @property
    def n_vars(self) -> int:
        return 2

    def _u(self, x: complex, y: complex) -> complex:
        w = (x ** self.a) * (y ** self.b)
        return 1.0 + w * self.f.eval((w,))

    def eval(self, p: Point) -> Point:
        x, y = p
        u = self._u(x, y)
        if u == 0:
            raise OrbitError("map is singular at this point (u = 0)")
        return (x * u, y / u)

    def inverse(self) -> "EvaluableMap":
        return _ProductPreservingInverse(self)


class _ProductPreservingInverse(EvaluableMap):
    def __init__(self, fwd: ProductPreservingMap):
        self.fwd = fwd
        self.name = fwd.name + "^-1"

    @property
    def n_vars(self) -> int:
        return 2

    def inverse(self) -> ProductPreservingMap:
        return self.fwd

    def eval(self, q: Point) -> Point:
        a, b, f = self.fwd.a, self.fwd.b, self.fwd.f
        xq, yq = q
        C = xq * yq  # invariant: equals x*y at the preimage
        if xq == 0 or yq == 0:
            # on the axes w = 0 so the map is the identity
            return (xq, yq)
        # solve x * (1 + w(x) f(w(x))) = xq with w(x) = x^(a-b) * C^b  (a >= b)
        # or the symmetric equation in y when b > a
        if a >= b:
            target, other_from = xq, (lambda x: C / x)
            ex, cpow = a - b, C ** b
        else:
            target, other_from = yq, (lambda y: C / y)
            ex, cpow = b - a, C ** a

        def w_of(z: complex) -> complex:
            return (z ** ex) * cpow if ex else cpow

        sign = 1.0 if a >= b else -1.0

        def g(z: complex) -> complex:
            w = w_of(z)
            u = 1.0 + w * f.eval((w,))
            return z * (u if a >= b else 1.0 / u) - target

        z = target
        for _ in range(60):
            gz = g(z)
            if abs(gz) < 1e-15 * max(1.0, abs(target)):
                break
            h = 1e-7 * max(abs(z), 1e-8)
            dg = (g(z + h) - gz) / h
            if dg == 0:
                raise OrbitError("inverse Newton iteration stalled")
            step = gz / dg
            z = z - step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        else:
            raise OrbitError("inverse Newton iteration did not converge")
        if a >= b:
            x = z
            y = C / x
        else:
            y = z
            x = C / y
        return (x, y)


class OneVarParabolicMap(EvaluableMap):
    """x -> x + c x^(d+1) on (C, 0)."""

    def __init__(self, d: int, c: complex, name: str = "parabolic"):
        if d < 1:
            raise ValueError(f"d must be a positive integer, got {d}")
        if c == 0:
            raise ValueError("c must be nonzero")
        self.d = int(d)
        self.c = complex(c)
        self.name = name

    @property
    def n_vars(self) -> int:
        return 1

    def eval(self, p: Point) -> Point:
        (x,) = p
        return (x + self.c * x ** (self.d + 1),)

    def inverse(self) -> "EvaluableMap":
        return _NewtonInverse(self)


class _NewtonInverse(EvaluableMap):
    """Generic 1-d Newton inverse for maps x -> x + O(x^2)."""

    def __init__(self, fwd: OneVarParabolicMap):
        self.fwd = fwd
        self.name = fwd.name + "^-1"

    @property
    def n_vars(self) -> int:
        return 1

    def inverse(self):
        return self.fwd

    def eval(self, q: Point) -> Point:
        (target,) = q
        d, c = self.fwd.d, self.fwd.c
        scale = max(1.0, abs(target))
        x = target
        for _ in range(60):
            gx = x + c * x ** (d + 1) - target
            if abs(gx) < 1e-16 * scale:
                return (x,)
            dgx = 1.0 + (d + 1) * c * x ** d
            if dgx == 0:
                raise OrbitError("inverse Newton iteration hit a critical point")
            x = x - gx / dgx
        # the residual can stall at rounding level, just above the tolerance
        if abs(x + c * x ** (d + 1) - target) < 1e-14 * scale:
            return (x,)
        raise OrbitError("inverse Newton iteration did not converge")


class TimeOneMap(EvaluableMap):
    """Time-one map of a polynomial vector field, evaluated numerically."""

    def __init__(self, X: VectorField, rtol: float = 1e-10, atol: float = 1e-12,
                 name: str = "time-one"):
        self.X = X
        self.rtol = rtol
        self.atol = atol
        self.name = name
        self._direction = 1.0

    @property
    def n_vars(self) -> int:
        return self.X.n_vars

    def eval(self, p: Point) -> Point:
        out = numeric_flow(self.X, p, self._direction, rtol=self.rtol, atol=self.atol)
        return tuple(out)

    def inverse(self) -> "TimeOneMap":
        inv = TimeOneMap(self.X, self.rtol, self.atol, name=self.name + "^-1")
        inv._direction = -self._direction
        return inv


class TruncatedJetMap(EvaluableMap):
    """Iteration of a truncated jet map; the inverse is only approximate."""

    def __init__(self, jmap: JetMap, name: str = "jet", probe_radius: float = 0.05,
                 inverse_tol: float = 1e-8):
        self.jmap = jmap
        self.name = name
        self.probe_radius = probe_radius
        self.inverse_tol = inverse_tol

    @property
    def n_vars(self) -> int:
        return self.jmap.n_vars

    def eval(self, p: Point) -> Point:
        return self.jmap.eval(p)

    def inverse(self) -> Optional["TruncatedJetMap"]:
        try:
            inv = self.jmap.inverse()
        except Exception:
            return None
        # quality check: h^-1(h(p)) must return probes within tolerance
        n = self.n_vars
        r = self.probe_radius
        probes = [tuple(r * (0.3 + 0.5 * ((i + j) % 3) / 2) * cmath.exp(2j * math.pi * (i + 2 * j) / 7)
                        for j in range(n)) for i in range(4)]
        for p in probes:
            q = inv.eval(self.jmap.eval(p))
            if max(abs(a - b) for a, b in zip(p, q)) > self.inverse_tol:
                return None
        return TruncatedJetMap(inv, name=self.name + "^-1",
                               probe_radius=self.probe_radius,
                               inverse_tol=self.inverse_tol)


# -- single-map orbits -----------------------------------------------------


@dataclass
class OrbitRecord:
    seed: Point
    status: str  # "Escaped" | "Periodic" | "BudgetExhausted"
    period: Optional[int] = None
    mu: Optional[int] = None  # None <=> infinite (periodic) or budget-exceeded
    mu_exhausted: bool = False
    cardinality: int = 0
    one_sided: bool = False
    forward_points: List[Point] = field(default_factory=list)
    backward_points: List[Point] = field(default_factory=list)

    @property
    def mu_label(self) -> str:
        if self.status == "Periodic":
            return "inf"
        if self.mu_exhausted:
            return "budget"
        return str(self.mu)


def _quantize(p: Point, eps: float):
    return tuple((round(c.real / eps), round(c.imag / eps)) for c in p)


def iterate_orbit(
    h: EvaluableMap,
    p: Point,
    V: DomainBall,
    budget: int = DEFAULT_BUDGET,
    keep_points: bool = False,
) -> OrbitRecord:
    """Iterate forward and backward inside V until escape, cycle or budget."""
    p = tuple(complex(c) for c in p)
    if not V.contains(p):
        raise OrbitError("seed lies outside the domain ball")
    eps_cycle = V.cycle_eps
    eps_dedup = V.dedup_eps
    seen = {_quantize(p, eps_dedup)}
    fwd_pts: List[Point] = []
    bwd_pts: List[Point] = []

    def run(direction_map, store) -> Tuple[str, int, Optional[int]]:
        """Returns (outcome, steps_inside + 1 escape credit, period)."""
        cur = p
        for step in range(1, budget + 1):
            prev = cur
            try:
                cur = direction_map.eval(cur)
            except (OrbitError, DomainEscape, StepUnderflow, OverflowError):
                return "escaped", step, None
            if any(not math.isfinite(c.real) or not math.isfinite(c.imag) for c in cur):
                return "escaped", step, None
            if not V.contains(cur):
                return "escaped", step, None
            if max(abs(a - b) for a, b in zip(cur, p)) < eps_cycle:
                return "periodic", step, step
            if max(abs(a - b) for a, b in zip(cur, prev)) < eps_cycle:
                # converged onto an interior fixed point: the run accumulates
                # there and no further distinct points can appear
                return "budget", step, None
            seen.add(_quantize(cur, eps_dedup))
            if keep_points:
                store.append(cur)
        return "budget", budget, None

    f_out, f_steps, f_period = run(h, fwd_pts)
    if f_out == "periodic":
        return OrbitRecord(
            seed=p, status="Periodic", period=f_period, mu=None,
            cardinality=len(seen), forward_points=fwd_pts,
        )

    inv = h.inverse()
    if inv is None:
        rec = OrbitRecord(
            seed=p,
            status="Escaped" if f_out == "escaped" else "BudgetExhausted",
            mu=f_steps if f_out == "escaped" else None,
            mu_exhausted=f_out != "escaped",
            cardinality=len(seen),
            one_sided=True,
            forward_points=fwd_pts,
        )
        return rec

    b_out, b_steps, b_period = run(inv, bwd_pts)
    if b_out == "periodic":
        return OrbitRecord(
            seed=p, status="Periodic", period=b_period, mu=None,
            cardinality=len(seen), forward_points=fwd_pts, backward_points=bwd_pts,
        )
    if f_out == "escaped" and b_out == "escaped":
        # mu counts n in Z with p in Dom(h^n): the escaping step itself still
        # has p in its domain, plus n = 0
        return OrbitRecord(
            seed=p, status="Escaped", mu=f_steps + b_steps + 1,
            cardinality=len(seen), forward_points=fwd_pts, backward_points=bwd_pts,
        )
    return OrbitRecord(
        seed=p, status="BudgetExhausted", mu=None, mu_exhausted=True,
        cardinality=len(seen), forward_points=fwd_pts, backward_points=bwd_pts,
    )


@dataclass
class GridSummary:
    records: List[OrbitRecord]

    @property
    def counts(self) -> Dict[str, int]:
        out = {"Escaped": 0, "Periodic": 0, "BudgetExhausted": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def infinite_suspected(self) -> int:
        return self.counts["BudgetExhausted"]


def classify_seed_grid(
    h: EvaluableMap,
    V: DomainBall,
    seeds: Iterable[Point],
    budget: int = DEFAULT_BUDGET,
) -> GridSummary:
    """Classify every seed; BudgetExhausted means "infinite-suspected"."""
    records = [iterate_orbit(h, s, V, budget=budget) for s in seeds]
    return GridSummary(records)


def lattice_seeds(radius: float, per_axis: int | Sequence[int], n_vars: int = 2,
                  low: float | None = None) -> List[Point]:
    """Deterministic real lattice inside the polydisc (no RNG): ``per_axis``
    points on every axis, or one count per axis; the first axis varies slowest."""
    lo = -radius if low is None else low
    counts = [per_axis] * n_vars if np.ndim(per_axis) == 0 else list(per_axis)
    if len(counts) != n_vars:
        raise ValueError(f"{len(counts)} lattice counts for {n_vars} variables")
    grids = np.meshgrid(*(np.linspace(lo, radius, k) for k in counts), indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=-1)
    return [tuple(complex(v) for v in row) for row in flat]


# -- pseudogroup orbits ----------------------------------------------------


@dataclass
class PseudogroupOrbit:
    seed: Point
    points: List[Point]
    words: List[str]
    truncated: bool

    @property
    def cardinality(self) -> int:
        return len(self.points)


def pseudogroup_orbit(
    generators: Sequence[EvaluableMap],
    p: Point,
    V: DomainBall,
    word_budget: int = DEFAULT_WORD_BUDGET,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> PseudogroupOrbit:
    """Breadth-first orbit under words in the generators and their inverses.

    A step is admitted only when the image stays inside V, which is
    exactly the pseudogroup domain rule: every intermediate image of an
    admissible word remains in the ball.
    """
    p = tuple(complex(c) for c in p)
    if not V.contains(p):
        raise OrbitError("seed lies outside the domain ball")
    moves: List[Tuple[str, EvaluableMap]] = []
    for i, g in enumerate(generators):
        moves.append((f"g{i}", g))
        inv = g.inverse()
        if inv is not None:
            moves.append((f"g{i}^-1", inv))
    eps = V.dedup_eps
    seen = {_quantize(p, eps): ("", p)}
    queue = deque([(p, "", 0)])
    truncated = False
    while queue:
        cur, word, depth = queue.popleft()
        if depth >= word_budget:
            truncated = True
            continue
        for label, mv in moves:
            try:
                nxt = mv.eval(cur)
            except (OrbitError, DomainEscape, StepUnderflow, OverflowError):
                continue
            if not V.contains(nxt):
                continue
            key = _quantize(nxt, eps)
            if key in seen:
                continue
            if len(seen) >= point_budget:
                truncated = True
                queue.clear()
                break
            new_word = f"{word} {label}".strip()
            seen[key] = (new_word, nxt)
            queue.append((nxt, new_word, depth + 1))
    items = sorted(seen.values(), key=lambda wp: (len(wp[0].split()) if wp[0] else 0, wp[0]))
    return PseudogroupOrbit(
        seed=p,
        points=[pt for _, pt in items],
        words=[w for w, _ in items],
        truncated=truncated,
    )


# -- periodicity and group closure ----------------------------------------


def periodicity_test(h, n_max: int, probe_radius: float = 0.05,
                     tol: float = 1e-10) -> Optional[int]:
    """Least N <= n_max with h^N = identity, or None.

    Exact (matrix) comparison for linear maps, coefficientwise for jet
    maps, pointwise on a probe set for everything else.
    """
    if isinstance(h, LinearMap):
        ident = np.eye(len(h.matrix), dtype=complex)
        M = np.array(h.matrix, dtype=complex)
        P = M.copy()
        for n in range(1, n_max + 1):
            if np.max(np.abs(P - ident)) < tol:
                return n
            P = P @ M
        return None
    if isinstance(h, JetMap):
        ident = JetMap.identity(h.n_vars, h.order)
        cur = h
        for n in range(1, n_max + 1):
            if cur.allclose(ident, tol):
                return n
            cur = h.compose(cur)
        return None
    if isinstance(h, TruncatedJetMap):
        return periodicity_test(h.jmap, n_max, probe_radius, tol)
    # pointwise probe for general evaluable maps
    n_vars = h.n_vars
    probes = []
    for i in range(5):
        probes.append(tuple(
            probe_radius * (0.4 + 0.12 * i) * cmath.exp(2j * math.pi * (3 * i + j + 1) / 11)
            for j in range(n_vars)
        ))
    current = list(probes)
    ptol = max(tol, 1e-9 * probe_radius)
    for n in range(1, n_max + 1):
        current = [h.eval(p) for p in current]
        if all(max(abs(a - b) for a, b in zip(c, p)) < ptol
               for c, p in zip(current, probes)):
            return n
    return None


SNAP = 1e-12


def _matrix_key(M: np.ndarray):
    return tuple(
        (round(v.real / SNAP), round(v.imag / SNAP)) for v in M.ravel()
    )


@dataclass
class GroupClosure:
    order: Optional[int]  # None when the budget was exceeded
    elements: List[np.ndarray]
    non_commuting_pair: Optional[Tuple[int, int]]

    @property
    def is_abelian(self) -> bool:
        return self.non_commuting_pair is None


def group_closure(generators: Sequence[LinearMap], budget: int = 10_000) -> GroupClosure:
    """BFS closure of linear generators under composition, with snapped
    matrix comparison; also certifies (non-)commutativity."""
    gens = [np.array(g.matrix, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    ident = np.eye(n, dtype=complex)
    elements = [ident]
    seen = {_matrix_key(ident): 0}
    queue = deque([ident])
    exceeded = False
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = g @ cur
            key = _matrix_key(nxt)
            if key in seen:
                continue
            if len(elements) >= budget:
                exceeded = True
                queue.clear()
                break
            seen[key] = len(elements)
            elements.append(nxt)
            queue.append(nxt)
    pair = None
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if np.max(np.abs(gens[i] @ gens[j] - gens[j] @ gens[i])) > 1e-10:
                pair = (i, j)
                break
        if pair:
            break
    return GroupClosure(
        order=None if exceeded else len(elements),
        elements=elements,
        non_commuting_pair=pair,
    )


# -- parabolic petal analysis ----------------------------------------------


@dataclass
class PetalReport:
    d: int
    c: complex
    attracting_dirs: List[float]
    repelling_dirs: List[float]
    runs: List[dict]

    @property
    def sector_count(self) -> int:
        """d attracting + d repelling characteristic directions (the classical
        count; some sources count d+1 petal regions for this model)."""
        return 2 * self.d


def petal_analysis(
    d: int,
    c: complex,
    seed_radius: float = 0.08,
    seed_offset: float = 1e-3,
    iterations: int = 50_000,
) -> PetalReport:
    """Characteristic directions of x -> x + c x^(d+1) plus an empirical run.

    Attracting directions: arg x where c x^d is negative real; repelling:
    where it is positive real.  Each attracting direction is probed with a
    slightly offset seed and iterated, reporting modulus decay and the
    angular distance to the direction.
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    theta = cmath.phase(c)
    attract = sorted(((math.pi - theta + 2 * math.pi * k) / d) % (2 * math.pi)
                     for k in range(d))
    repel = sorted(((-theta + 2 * math.pi * k) / d) % (2 * math.pi)
                   for k in range(d))
    h = OneVarParabolicMap(d, c)
    runs = []
    for ang in attract:
        x = seed_radius * cmath.exp(1j * (ang + seed_offset))
        start_mod = abs(x)
        for _ in range(iterations):
            (x,) = h.eval((x,))
            if abs(x) > 10.0:
                break
        final_arg = cmath.phase(x) % (2 * math.pi)
        arg_err = abs((final_arg - ang + math.pi) % (2 * math.pi) - math.pi)
        runs.append(
            {
                "direction": ang,
                "final_modulus": abs(x),
                "start_modulus": start_mod,
                "converged": abs(x) < start_mod * 0.5,
                "arg_error": arg_err,
            }
        )
    return PetalReport(d=d, c=complex(c), attracting_dirs=attract,
                       repelling_dirs=repel, runs=runs)
