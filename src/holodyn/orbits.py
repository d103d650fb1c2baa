"""Orbit experiments for germs and pseudogroups on a fixed polydisc.

Implements iteration with domain tracking (a step only counts while the
intermediate images stay inside the ball), the escaped/periodic/
budget-exhausted trichotomy, breadth-first pseudogroup orbits, finite
group closure for exactly-representable generators, and the parabolic
petal analysis for x -> x + c x^(d+1).

No map integrates an ODE: the product-preserving, parabolic and example1
time-one maps are closed forms, and the others evaluate a compiled jet; an
inverse is a closed form, an inverse jet or the parabolic map's 1-d Newton.

Periodicity has two rules: coefficientwise for every map with an exact jet
(a truncated jet map; a linear map is an order-1 one), and pointwise on five
fixed probes for every other map.

Verdicts are experimental: a budget-exhausted orbit is reported as
"infinite-suspected", never as a proof of infinitude.
"""
from __future__ import annotations

import cmath
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import sub
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .jets import PRUNE_TOL, JetError, JetMap, _integer

DEFAULT_BUDGET = 100_000
DEFAULT_POINT_BUDGET = 10_000
DEFAULT_WORD_BUDGET = 40
CYCLE_EPS_FACTOR = 1e-9
DEDUP_EPS_FACTOR = 1e-9
# TruncatedJetMap._invert accepts an inverse jet when h^-1(h(p)) returns
# probes of this radius to within INVERSE_TOL
INVERSE_PROBE_RADIUS = 0.05
INVERSE_TOL = 1e-8
# petal runs: seed modulus, angular offset from the direction, step budget
PETAL_SEED_RADIUS = 0.08
PETAL_SEED_OFFSET = 1e-3
PETAL_ITERATIONS = 50_000
# periodicity_test: the pointwise probes' radius and the identity tolerance
PERIODICITY_PROBE_RADIUS = 0.05
PERIODICITY_TOL = 1e-10
# group_closure gives up (order None) once it has seen this many elements
CLOSURE_BUDGET = 10_000

Point = Tuple[complex, ...]


class OrbitError(RuntimeError):
    pass


# what one map step may raise when the image leaves the germ's domain
STEP_FAILURES = (OrbitError, OverflowError)


@dataclass(frozen=True)
class DomainBall:
    """Closed polydisc of radius rho in the max-norm."""

    radius: float

    def __post_init__(self):
        if not math.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    def contains(self, p: Point) -> bool:
        """Whether every coordinate c has |c| <= radius, tested in order up to
        the first that fails: the escape test of ``iterate_orbit``'s run loop,
        so a NaN or infinite coordinate is outside."""
        radius = self.radius
        for c in p:
            if not abs(c) <= radius:
                return False
        return True

    @property
    def cycle_eps(self) -> float:
        return CYCLE_EPS_FACTOR * self.radius

    @property
    def dedup_eps(self) -> float:
        return DEDUP_EPS_FACTOR * self.radius


# -- evaluable maps --------------------------------------------------------


class EvaluableMap:
    """A germ on C^n_vars that can be evaluated at points; subclasses add
    exact inverses through ``_invert`` and set ``n_vars``."""

    name = "map"
    n_vars: int

    def eval(self, p: Point) -> Point:
        raise NotImplementedError

    def inverse(self) -> Optional["EvaluableMap"]:
        """Exact inverse, or None when only forward iteration is trusted;
        ``_invert`` makes it on the first call, and every later call, for
        any seed, gets that same object (None included)."""
        if "_inverse" not in self.__dict__:
            self._inverse = self._invert()
        return self._inverse

    def _invert(self) -> Optional["EvaluableMap"]:
        return None


class _InverseMap(EvaluableMap):
    """The inverse of ``fwd``, named fwd.name + "^-1"; its inverse is ``fwd``."""

    def __init__(self, fwd: EvaluableMap):
        self.fwd = fwd
        self.name = fwd.name + "^-1"
        self.n_vars = fwd.n_vars

    def _invert(self) -> EvaluableMap:
        return self.fwd


class ProductPreservingMap(EvaluableMap):
    """(x, y) -> (x*u, y/u) with u = 1 + c w, w = x^a y^b, c a complex constant.

    c is stored as 0j when |c| < PRUNE_TOL and as c + 0j otherwise, which
    turns a signed-zero part into +0.0.  The product x*y is preserved
    exactly (u and 1/u are evaluated pointwise, not truncated), so the
    inverse works on the level set x*y = C of the target (X, Y).
    ``_invert`` returns the closed form of the two germs of the paper:

    - a = b (F): w = C^a is invariant, so u is read at the target and the
      preimage is x = X/u, y = C/x.
    - a = b + 1 (H): on the level set x moves as x -> x + k x^2 with
      k = c C^b, and the inverse takes the root that is tangent to the
      identity, x = 2X / (1 + sqrt(1 + 4kX)), y = C/x.

    Every other (a, b) has no inverse (None), so its orbits are iterated
    forward only, as for a jet map with a singular linear part.
    """

    n_vars = 2

    def __init__(self, a: int, b: int, c: complex, name: str = "product-preserving"):
        self.a = a = _integer(a, "exponent a")
        self.b = b = _integer(b, "exponent b")
        if a < 1 or b < 1:
            raise ValueError("exponents a, b must be positive")
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"c must be finite, got {c!r}")
        self.c = 0j if abs(c) < PRUNE_TOL else c + 0j
        self.name = name

    def eval(self, p: Point) -> Point:
        x, y = p
        u = 1.0 + (x ** self.a) * (y ** self.b) * self.c
        if u == 0:
            raise OrbitError("map is singular at this point (u = 0)")
        return (x * u, y / u)

    def _invert(self) -> Optional[EvaluableMap]:
        if self.a == self.b:
            return _InvariantUnitInverse(self)
        if self.a == self.b + 1:
            return _TangentRootInverse(self)
        return None


class _InvariantUnitInverse(_InverseMap):
    """a = b: w = (x y)^a = C^a is invariant, so u is read at the target."""

    def __init__(self, fwd: ProductPreservingMap):
        super().__init__(fwd)
        self.a, self.c = fwd.a, fwd.c

    def eval(self, q: Point) -> Point:
        X, Y = q
        if X == 0 or Y == 0:
            return (X, Y)
        C = X * Y
        u = 1.0 + C ** self.a * self.c
        if u == 0:
            raise OrbitError("map is singular at this point (u = 0)")
        x = X / u
        return (x, C / x)


class _TangentRootInverse(_InverseMap):
    """a = b + 1: x + k x^2 = X with k = c C^b on the level set, solved by
    the root that is tangent to the identity."""

    def __init__(self, fwd: ProductPreservingMap):
        super().__init__(fwd)
        self.b, self.c = fwd.b, fwd.c

    def eval(self, q: Point) -> Point:
        X, Y = q
        if X == 0 or Y == 0:
            return (X, Y)
        C = X * Y
        k = self.c * C ** self.b
        x = 2.0 * X / (1.0 + cmath.sqrt(1.0 + 4.0 * k * X))
        return (x, C / x)


class OneVarParabolicMap(EvaluableMap):
    """x -> x + c x^(d+1) on (C, 0)."""

    name = "parabolic"
    n_vars = 1

    def __init__(self, d: int, c: complex):
        self.d = d = _integer(d, "d")
        if d < 1:
            raise ValueError(f"d must be a positive integer, got {d}")
        self.c = c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"c must be finite, got {c!r}")
        if c == 0:
            raise ValueError("c must be nonzero")

    def eval(self, p: Point) -> Point:
        (x,) = p
        return (x + self.c * x ** (self.d + 1),)

    def _invert(self) -> EvaluableMap:
        return _NewtonInverse(self)


class _NewtonInverse(_InverseMap):
    """Generic 1-d Newton inverse for maps x -> x + O(x^2)."""

    def eval(self, q: Point) -> Point:
        (target,) = q
        d, c = self.fwd.d, self.fwd.c

        def g_dg(x: complex) -> Tuple[complex, complex]:
            return x + c * x ** (d + 1) - target, 1.0 + (d + 1) * c * x ** d

        return (_newton(g_dg, target),)


def _newton(g_dg, target: complex) -> complex:
    """Root of g near ``target`` by Newton from z = target; g_dg(z) = (g, g').

    Stops when |g| < 1e-16 * max(1, |target|), and raises OrbitError at a
    critical point (g' = 0).  After 60 steps a residual up to 1e-14 times
    that scale is accepted (it can stall at rounding level); otherwise the
    iteration "stalled short of a root" if its last step was at rounding
    level and "did not converge" if not.  ``STEP_FAILURES`` turns each of
    these errors into an escape.
    """
    scale = max(1.0, abs(target))
    z = target
    for _ in range(60):
        gz, dg = g_dg(z)
        if abs(gz) < 1e-16 * scale:
            return z
        if dg == 0:
            raise OrbitError("inverse Newton iteration hit a critical point")
        step = gz / dg
        z = z - step
    if abs(g_dg(z)[0]) <= 1e-14 * scale:
        return z
    if abs(step) < 1e-16 * max(1.0, abs(z)):
        raise OrbitError("inverse Newton iteration stalled short of a root")
    raise OrbitError("inverse Newton iteration did not converge")


class MonomialFlowMap(EvaluableMap):
    """Time-one map of x^a y^b (x d/dx - (n/m) y d/dy) in closed form.

    With lam = n/m, w = x^a y^b solves w' = kappa w^2, kappa = a - b lam,
    so the time-t map is (x e^L, y e^(-lam L)) with
    L = -log(1 - kappa w t) / kappa on the principal branch, and L = w t when
    kappa = 0.  For real t the segment from 1 to 1 - kappa w t meets the
    branch cut only when it ends on (-inf, 0]: there the flow blows up
    before time t, and the step raises OrbitError.  The inverse is the same
    formula at t = -1.
    """

    n_vars = 2

    def __init__(self, n: int, m: int, a: int, b: int, name: str = "time-one"):
        n, m, a, b = (_integer(v, what) for v, what in zip((n, m, a, b), "nmab"))
        if m == 0:
            raise ValueError("m must be nonzero")
        if a < 0 or b < 0:
            raise ValueError(f"exponents a, b must be non-negative, got a={a}, b={b}")
        self.n, self.m, self.a, self.b = n, m, a, b
        lam = Fraction(n, m)
        self.lam = float(lam)
        self.kappa = float(a - b * lam)  # exact, so kappa = 0 exactly when a m = b n
        self.name = name

    def eval(self, p: Point) -> Point:
        return self._flow(p, 1.0)

    def _flow(self, p: Point, t: float) -> Point:
        """The time-t map at p, for real t."""
        x, y = p
        w = x ** self.a * y ** self.b
        if self.kappa == 0:
            L = w * t
        else:
            z = 1.0 - self.kappa * w * t
            if z.imag == 0 and z.real <= 0:
                raise OrbitError(f"the flow blows up before time {t}")
            L = -cmath.log(z) / self.kappa
        return (x * cmath.exp(L), y * cmath.exp(-self.lam * L))

    def _invert(self) -> EvaluableMap:
        return _TimeMinusOneMap(self)


class _TimeMinusOneMap(_InverseMap):
    """The closed form of a MonomialFlowMap at t = -1."""

    def eval(self, q: Point) -> Point:
        return self.fwd._flow(q, -1.0)


class TruncatedJetMap(EvaluableMap):
    """Iteration of a truncated jet map through its compiled evaluator, bound
    when the map is built; the inverse is the inverse jet when it passes the
    probe check."""

    def __init__(self, jmap: JetMap, name: str = "jet"):
        self.jmap = jmap
        self.name = name
        self.n_vars = jmap.n_vars
        self._evaluate = jmap.evaluator()

    def eval(self, p: Point) -> Point:
        return self._evaluate(p)

    def _invert(self) -> Optional["TruncatedJetMap"]:
        """The inverse jet map (at order 1, np.linalg.inv's entries above
        PRUNE_TOL), or None when the linear part is singular (|det| at most
        1e-12 times the product of its rows' 2-norms) or the inverse fails
        the probe check."""
        try:
            inv = self.jmap.inverse()
        except JetError:
            return None
        # quality check: h^-1(h(p)) must return probes within tolerance
        n = self.n_vars
        r = INVERSE_PROBE_RADIUS
        probes = [tuple(r * (0.3 + 0.5 * ((i + j) % 3) / 2) * cmath.exp(2j * math.pi * (i + 2 * j) / 7)
                        for j in range(n)) for i in range(4)]
        for p in probes:
            q = inv.eval(self.jmap.eval(p))
            if max(abs(a - b) for a, b in zip(p, q)) > INVERSE_TOL:
                return None
        return TruncatedJetMap(inv, name=self.name + "^-1")


class LinearMap(TruncatedJetMap):
    """x -> M x as its order-1 jet map, ``JetMap.linear(matrix, 1)``: it is
    evaluated, inverted and tested for periodicity as a truncated jet map."""

    def __init__(self, matrix, name: str = "linear"):
        super().__init__(JetMap.linear(matrix, 1), name=name)

    @property
    def matrix(self):
        """M as a list of rows of complex numbers."""
        return self.jmap.linear_part()


class PermutationMap(LinearMap):
    """Coordinate permutation: component i of the image is coordinate perm[i]."""

    def __init__(self, perm: Sequence[int], name: str = "perm"):
        n = len(perm)
        if not all(isinstance(j, numbers.Integral) for j in perm) or sorted(perm) != list(range(n)):
            raise ValueError(f"perm {list(perm)} is not a permutation of 0..{n - 1}")
        matrix = [[0.0 + 0j] * n for _ in range(n)]
        for i, j in enumerate(perm):
            matrix[i][j] = 1.0 + 0j
        super().__init__(matrix, name=name)


# -- single-map orbits -----------------------------------------------------


@dataclass
class OrbitRecord:
    seed: Point
    status: str  # "Escaped" | "Periodic" | "BudgetExhausted"
    period: Optional[int] = None
    mu: Optional[int] = None  # None <=> infinite (periodic) or budget-exceeded
    cardinality: int = 0
    one_sided: bool = False
    forward_points: List[Point] = field(default_factory=list)
    backward_points: List[Point] = field(default_factory=list)

    @property
    def mu_exhausted(self) -> bool:
        return self.status == "BudgetExhausted"

    @property
    def mu_label(self) -> str:
        if self.status == "Periodic":
            return "inf"
        if self.mu_exhausted:
            return "budget"
        return str(self.mu)


def _quantize(p: Point, eps: float):
    """The key of a point or flat matrix p: round(re / eps), round(im / eps) per entry."""
    key = []
    for c in p:
        key.append(round(c.real / eps))
        key.append(round(c.imag / eps))
    return tuple(key)


def _dedup_keys(points: List[Point], eps: float) -> List[bytes]:
    """The dedup keys of points, in NumPy: the int64 row of ``_quantize``'s
    values, as bytes, so that two points share a key exactly when their
    ``_quantize`` tuples are equal."""
    floats = np.fromiter(chain.from_iterable(points), complex).view(np.float64)
    keys = np.rint(floats.reshape(len(points), -1) / eps).astype(np.int64)
    return keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel().tolist()


def _cycle_event(cur: Point, prev: Point, p: Point, eps: float) -> Optional[str]:
    """The scalar cycle rule for the image cur of prev: "periodic" when cur
    is within ``eps`` of the seed p, else "budget" when it is within ``eps``
    of prev, in the max-norm of complex moduli; None otherwise."""
    if max(map(abs, map(sub, cur, p))) < eps:
        return "periodic"
    if max(map(abs, map(sub, cur, prev))) < eps:
        # converged onto an interior fixed point: the run accumulates
        # there and no further distinct points can appear
        return "budget"
    return None


def iterate_orbit(
    h: EvaluableMap,
    p: Point,
    V: DomainBall,
    budget: int = DEFAULT_BUDGET,
    keep_points: bool = False,
) -> OrbitRecord:
    """Iterate forward and backward inside V until escape, cycle or budget.

    Each run applies the map step by step and tests every image before the
    next step, as a plain scalar loop would: first for escape (a step
    failure, or a coordinate c with not |c| <= radius, tested in order up to
    the first that fails), so no map is evaluated outside V, then for a
    cycle by ``_cycle_event`` (within the cycle eps of the seed: periodic;
    of the previous point: converged).  The cycle rule only runs when the
    real part of coordinate 0 is within the cycle eps of the seed's or the
    previous point's: |re| <= |c| holds in floating point, so no event is
    skipped.  The seed and the in-ball images of both runs get their dedup
    keys from one ``_dedup_keys`` call per orbit.  The map is called at
    exactly the points a scalar loop calls it at.
    """
    p = tuple(complex(c) for c in p)
    if not V.contains(p):
        raise OrbitError(f"seed {p} lies outside the domain ball of radius {V.radius}")
    eps_cycle = V.cycle_eps
    fwd_pts: List[Point] = []
    bwd_pts: List[Point] = []

    # not |c| <= radius, unlike |c| > radius, holds for NaN (and inf fails
    # |c| <= radius), so a non-finite image escapes at the step that made it
    radius = float(V.radius)

    def run(direction_map, store) -> Tuple[str, int]:
        """Returns (outcome, steps): steps_inside + 1 escape credit when an
        image leaves V, steps_inside when a step fails, and the period when
        the run closes."""
        step_map = direction_map.eval
        keep = store.append
        seed_re = cur_re = p[0].real
        cur = p
        for steps in range(1, budget + 1):
            prev, prev_re = cur, cur_re
            try:
                cur = step_map(cur)
            except STEP_FAILURES:
                return "escaped", steps - 1
            for c in cur:
                if not abs(c) <= radius:
                    return "escaped", steps
            cur_re = cur[0].real
            if abs(cur_re - seed_re) < eps_cycle or abs(cur_re - prev_re) < eps_cycle:
                outcome = _cycle_event(cur, prev, p, eps_cycle)
                if outcome is not None:
                    return outcome, steps
            keep(cur)
        return "budget", budget

    f_out, f_steps = run(h, fwd_pts)
    inv = None if f_out == "periodic" else h.inverse()
    b_out, b_steps = run(inv, bwd_pts) if inv is not None else (None, 0)
    if "periodic" in (f_out, b_out):
        status, period, mu = "Periodic", f_steps if f_out == "periodic" else b_steps, None
    elif f_out == "escaped" and b_out in ("escaped", None):
        # mu counts n in Z with p in Dom(h^n): a step whose image leaves V
        # still has p in its domain, a step that fails does not, plus n = 0
        # when the orbit is two-sided
        status, period, mu = "Escaped", None, f_steps + b_steps + 1 if b_out else f_steps
    else:
        status, period, mu = "BudgetExhausted", None, None
    cardinality = len(set(_dedup_keys([p, *fwd_pts, *bwd_pts], V.dedup_eps)))
    if not keep_points:
        fwd_pts, bwd_pts = [], []
    return OrbitRecord(
        seed=p, status=status, period=period, mu=mu, cardinality=cardinality,
        one_sided=f_out != "periodic" and inv is None,
        forward_points=fwd_pts, backward_points=bwd_pts,
    )


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
        raise OrbitError(f"seed {p} lies outside the domain ball of radius {V.radius}")
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
            except STEP_FAILURES:
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


def periodicity_test(h, n_max: int) -> Optional[int]:
    """Least N <= n_max with h^N = identity, or None.

    Coefficientwise to ``PERIODICITY_TOL`` for every map with an exact jet: a
    jet map, or a truncated jet map (so a linear map) as its jet.  Pointwise
    on five probes of radius ``PERIODICITY_PROBE_RADIUS`` for every other map.
    """
    if isinstance(h, TruncatedJetMap):
        h = h.jmap
    if isinstance(h, JetMap):
        ident = JetMap.identity(h.n_vars, h.order)
        cur = h
        for n in range(1, n_max + 1):
            if cur.allclose(ident, PERIODICITY_TOL):
                return n
            cur = h.compose(cur)
        return None
    r = PERIODICITY_PROBE_RADIUS
    probes = [tuple(r * (0.4 + 0.12 * i) * cmath.exp(2j * math.pi * (3 * i + j + 1) / 11)
                    for j in range(h.n_vars)) for i in range(5)]
    current = list(probes)
    for n in range(1, n_max + 1):
        current = [h.eval(p) for p in current]
        if all(max(abs(a - b) for a, b in zip(c, p)) < PERIODICITY_TOL
               for c, p in zip(current, probes)):
            return n
    return None


# group_closure: two matrices whose _quantize keys on this grid agree are one element
SNAP = 1e-12


@dataclass
class GroupClosure:
    order: Optional[int]  # None when the budget was exceeded
    non_commuting_pair: Optional[Tuple[int, int]]

    @property
    def is_abelian(self) -> bool:
        return self.non_commuting_pair is None


def group_closure(generators: Sequence[LinearMap]) -> GroupClosure:
    """BFS closure of linear generators under composition, with snapped
    matrix comparison; also certifies (non-)commutativity."""
    gens = [np.array(g.matrix, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    ident = np.eye(n, dtype=complex)
    seen = {_quantize(ident.ravel(), SNAP)}
    queue = deque([ident])
    exceeded = False
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = g @ cur
            key = _quantize(nxt.ravel(), SNAP)
            if key in seen:
                continue
            if len(seen) >= CLOSURE_BUDGET:
                exceeded = True
                queue.clear()
                break
            seen.add(key)
            queue.append(nxt)
    pair = None
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if np.max(np.abs(gens[i] @ gens[j] - gens[j] @ gens[i])) > 1e-10:
                pair = (i, j)
                break
        if pair:
            break
    return GroupClosure(order=None if exceeded else len(seen), non_commuting_pair=pair)


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


def petal_analysis(d: int, c: complex) -> PetalReport:
    """Characteristic directions of x -> x + c x^(d+1) plus an empirical run.

    Attracting directions: arg x where c x^d is negative real; repelling:
    where it is positive real.  Each attracting direction is probed with a
    slightly offset seed and iterated, reporting modulus decay and the
    angular distance to the direction.  A run steps x = x + c * x ** e in
    place, the expression and operands of ``OneVarParabolicMap.eval``.
    """
    h = OneVarParabolicMap(d, c)
    theta = cmath.phase(c)
    attract = sorted(((math.pi - theta + 2 * math.pi * k) / d) % (2 * math.pi)
                     for k in range(d))
    repel = sorted(((-theta + 2 * math.pi * k) / d) % (2 * math.pi)
                   for k in range(d))
    c, e = h.c, h.d + 1
    runs = []
    for ang in attract:
        x = PETAL_SEED_RADIUS * cmath.exp(1j * (ang + PETAL_SEED_OFFSET))
        start_mod = abs(x)
        for _ in range(PETAL_ITERATIONS):
            x = x + c * x ** e
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
