"""Orbit lab: trichotomy, pseudogroups, closures, periodicity, petals."""
import cmath
import functools
import math
import random
import re
import struct
from operator import sub

import numpy as np
import pytest
from hypothesis import given, strategies as st

from holodyn import flows, holonomy_series, orbits, presets
from holodyn.exppoly import TWO_PI_I
from holodyn.flows import numeric_flow
from holodyn.jets import Jet, JetMap
from holodyn.orbits import (
    DEFAULT_BUDGET,
    DomainBall,
    EvaluableMap,
    LinearMap,
    MonomialFlowMap,
    OneVarParabolicMap,
    STEP_FAILURES,
    OrbitError,
    OrbitRecord,
    PermutationMap,
    ProductPreservingMap,
    TruncatedJetMap,
    _cycle_event,
    _dedup_keys,
    _quantize,
    group_closure,
    iterate_orbit,
    lattice_seeds,
    periodicity_test,
    pseudogroup_orbit,
    petal_analysis,
)

V1 = DomainBall(1.0)


def test_rotation_is_periodic_5():
    rot = LinearMap([[cmath.exp(2j * math.pi / 5)]])
    rec = iterate_orbit(rot, (0.4,), V1)
    assert rec.status == "Periodic"
    assert rec.period == 5
    assert rec.mu is None and rec.mu_label == "inf"


def test_identity_periodic_1():
    rec = iterate_orbit(LinearMap([[1.0]]), (0.3,), V1)
    assert rec.status == "Periodic" and rec.period == 1


def test_doubling_map_escapes_forward_but_orbit_is_infinite():
    """x -> 2x escapes forward, but backward iterates accumulate at the
    interior fixed point 0, so the full two-sided orbit in the ball is
    infinite: budget-exhausted (infinite-suspected), detected early via
    stagnation rather than by burning the budget."""
    rec = iterate_orbit(LinearMap([[2.0]]), (0.1,), V1, budget=100_000)
    assert rec.status == "BudgetExhausted"
    assert rec.mu_exhausted
    # early stagnation: nowhere near 100k points were enumerated
    assert rec.cardinality < 100


def test_one_sided_escape_without_inverse():
    class Forward(LinearMap):
        def inverse(self):
            return None

    rec = iterate_orbit(Forward([[2.0]]), (0.1,), V1)
    assert rec.status == "Escaped" and rec.one_sided
    assert rec.mu == 4  # 0.2, 0.4, 0.8 inside; step 4 leaves


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
def test_non_finite_image_escapes_at_its_step(bad):
    """(x, y) -> (2x, y) until |x| > 0.15, then a non-finite y: the orbit of
    (0.1, 0.1) escapes at step 2, exactly as when it leaves the ball."""
    class Blows(EvaluableMap):
        n_vars = 2

        def eval(self, p):
            x, y = p
            return (2 * x, y) if abs(x) < 0.15 else (x, bad)

    rec = iterate_orbit(Blows(), (0.1, 0.1), V1)
    assert rec.status == "Escaped" and rec.one_sided
    assert rec.mu == 2 and rec.cardinality == 2


def test_double_sided_escape_mu():
    # x -> 2x on an annulus-avoiding seed cannot happen linearly; use an
    # affine-free product map instead: H escapes both ways off the axes
    h = presets.map_H()
    rec = iterate_orbit(h, (0.25, 0.25), DomainBall(0.3), budget=100_000)
    assert rec.status == "Escaped"
    assert rec.mu is not None and rec.mu > 0
    assert not rec.one_sided


class Rigged(LinearMap):
    """A LinearMap whose inverse() is chosen by the test and counts its calls:
    the exact inverse by default, else ``backward`` (None for no inverse)."""

    def __init__(self, matrix, backward="exact"):
        super().__init__(matrix)
        self.backward = backward
        self.inverse_calls = 0

    def inverse(self):
        self.inverse_calls += 1
        return super().inverse() if self.backward == "exact" else self.backward


QUARTER_TURN = LinearMap([[1j]])


# (map, seed, budget) -> status, period, mu, mu_label, mu_exhausted,
# one_sided, cardinality, forward points, backward points, inverse() calls
@pytest.mark.parametrize("make, seed, budget, want", [
    pytest.param(lambda: Rigged([[1j]]), (0.4,), DEFAULT_BUDGET,
                 ("Periodic", 4, None, "inf", False, False, 4,
                  [(0.4j,), (-0.4,), (-0.4j,)], [], 0), id="forward-periodic"),
    pytest.param(lambda: Rigged([[2.0]], QUARTER_TURN), (0.1,), DEFAULT_BUDGET,
                 ("Periodic", 4, None, "inf", False, False, 7,
                  [(0.2,), (0.4,), (0.8,)], [(0.1j,), (-0.1,), (-0.1j,)], 1),
                 id="backward-periodic"),
    pytest.param(lambda: Rigged([[2.0]], None), (0.1,), DEFAULT_BUDGET,
                 ("Escaped", None, 4, "4", False, True, 4,
                  [(0.2,), (0.4,), (0.8,)], [], 1), id="one-sided-escaped"),
    pytest.param(lambda: Rigged([[0.5]], None), (0.8,), 3,
                 ("BudgetExhausted", None, None, "budget", True, True, 4,
                  [(0.4,), (0.2,), (0.1,)], [], 1), id="one-sided-budget"),
    pytest.param(lambda: Rigged([[2.0, 0.0], [0.0, 0.5]]), (0.1, 0.1), DEFAULT_BUDGET,
                 ("Escaped", None, 9, "9", False, False, 7,
                  [(0.2, 0.05), (0.4, 0.025), (0.8, 0.0125)],
                  [(0.05, 0.2), (0.025, 0.4), (0.0125, 0.8)], 1), id="two-sided-escaped"),
    pytest.param(lambda: Rigged([[2.0]]), (0.3,), 3,
                 ("BudgetExhausted", None, None, "budget", True, False, 5,
                  [(0.6,)], [(0.15,), (0.075,), (0.0375,)], 1), id="two-sided-budget"),
    pytest.param(lambda: Rigged([[0.5]]), (0.3,), 3,
                 ("BudgetExhausted", None, None, "budget", True, False, 5,
                  [(0.15,), (0.075,), (0.0375,)], [(0.6,)], 1),
                 id="two-sided-budget-backward-escapes"),
])
def test_orbit_record_fields_on_every_outcome_path(make, seed, budget, want):
    """Every OrbitRecord field on each way iterate_orbit can end; inverse()
    is asked for once, and only after a forward run that did not close."""
    h = make()
    rec = iterate_orbit(h, seed, V1, budget=budget, keep_points=True)
    assert rec.seed == tuple(complex(c) for c in seed)
    assert (rec.status, rec.period, rec.mu, rec.mu_label, rec.mu_exhausted, rec.one_sided,
            rec.cardinality, rec.forward_points, rec.backward_points,
            h.inverse_calls) == want


def test_orbit_of_origin_is_fixed():
    for h in (presets.map_F(), presets.map_H(), presets.map_h1()):
        rec = iterate_orbit(h, (0.0, 0.0), V1)
        assert rec.status == "Periodic" and rec.period == 1
        assert rec.cardinality == 1


def test_seed_outside_ball_rejected():
    with pytest.raises(OrbitError):
        iterate_orbit(presets.map_h1(), (2.0, 0.0), V1)


def test_product_preservation_along_orbit():
    h = presets.map_H()
    p = (0.2, 0.25)
    c0 = p[0] * p[1]
    cur = p
    for _ in range(200):
        cur = h.eval(cur)
        assert abs(cur[0] * cur[1] - c0) < 1e-12


def test_product_preserving_inverse_round_trip():
    for (a, b) in ((1, 1), (2, 1)):
        h = ProductPreservingMap(a, b, TWO_PI_I)
        inv = h.inverse()
        for p in [(0.2, 0.3), (0.1 + 0.05j, 0.25), (-0.15, 0.2j)]:
            q = h.eval(p)
            back = inv.eval(q)
            assert max(abs(u - v) for u, v in zip(p, back)) < 1e-12
            # and the other way round
            there = h.eval(inv.eval(p))
            assert max(abs(u - v) for u, v in zip(p, there)) < 1e-12


@pytest.mark.parametrize("make, kind", [
    (presets.map_F, "_InvariantUnitInverse"),
    (presets.map_H, "_TangentRootInverse"),
], ids=["F", "H"])
def test_product_preserving_inverses_fix_the_axes(make, kind):
    """On X = 0 or Y = 0, w = 0 and the map is the identity: each inverse
    returns such a target unchanged."""
    inv = make().inverse()
    assert type(inv).__name__ == kind
    for q in ((0j, 0.2 + 0.1j), (0.25 - 0.05j, 0j), (0j, 0j)):
        assert inv.eval(q) == q


def former_product_steps(a, b, c):
    """The former steps of ProductPreservingMap(a, b, f) for the constant
    f = c, kept verbatim: u = 1 + w f(w) through a degree-0 jet's ``eval``
    in the map and the a = b inverse, and the a = b + 1 inverse's k from
    the jet's constant term."""
    f = Jet(1, 0, {(0,): complex(c)})

    def step(p):
        x, y = p
        w = (x ** a) * (y ** b)
        u = 1.0 + w * f.eval((w,))
        return (x * u, y / u)

    def invariant_unit_inverse(q):
        X, Y = q
        if X == 0 or Y == 0:
            return (X, Y)
        C = X * Y
        w = C ** a
        u = 1.0 + w * f.eval((w,))
        x = X / u
        return (x, C / x)

    def tangent_root_inverse(q):
        X, Y = q
        if X == 0 or Y == 0:
            return (X, Y)
        C = X * Y
        k = f.constant_term() * C ** b
        x = 2.0 * X / (1.0 + cmath.sqrt(1.0 + 4.0 * k * X))
        return (x, C / x)

    return f, step, invariant_unit_inverse if a == b else tangent_root_inverse


@pytest.mark.parametrize("c", [TWO_PI_I, 0.5, complex(-0.0, 2), complex(2, -0.0), 1e-15, 0],
                         ids=["2pi-i", "half", "minus-zero-re", "minus-zero-im", "pruned", "zero"])
def test_constant_c_steps_equal_the_former_jet_formula_bit_for_bit(c):
    """F and H, forward and inverse, on 500 seeded points of the 0.3-ball
    and three on the axes: the stored c is the degree-0 jet's value, and
    every image has the former bits, signed zeros included."""
    points = ball_points(500, 0.3, seed=29) + [
        (0j, 0.2 + 0.1j), (complex(-0.0, 0.1), 0.25 + 0j), (0.2 - 0.1j, complex(0.0, -0.0))]
    for a, b in ((1, 1), (2, 1)):
        h = ProductPreservingMap(a, b, c)
        f, step, inverse = former_product_steps(a, b, c)
        assert packed((h.c,)) == packed((f.eval((0j,)),))
        inv = h.inverse()
        for p in points:
            assert packed(h.eval(p)) == packed(step(p))
            assert packed(inv.eval(p)) == packed(inverse(p))


def reference_product_inverse(fwd, q):
    """The former inverse of a ProductPreservingMap: Newton on the level set
    x*y = C with a finite-difference derivative, for every (a, b, c)."""
    a, b, c = fwd.a, fwd.b, fwd.c
    xq, yq = q
    C = xq * yq
    if xq == 0 or yq == 0:
        return (xq, yq)
    if a >= b:
        target, ex, cpow = xq, a - b, C ** b
    else:
        target, ex, cpow = yq, b - a, C ** a

    def g(z):
        w = (z ** ex) * cpow if ex else cpow
        u = 1.0 + w * c
        return z * (u if a >= b else 1.0 / u) - target

    z = target
    for _ in range(60):
        gz = g(z)
        if abs(gz) < 1e-15 * max(1.0, abs(target)):
            break
        h = 1e-7 * max(abs(z), 1e-8)
        step = gz / ((g(z + h) - gz) / h)
        z = z - step
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    else:
        raise OrbitError("reference Newton iteration did not converge")
    return (z, C / z) if a >= b else (C / z, z)


class ReferenceInverseMap(ProductPreservingMap):
    """A ProductPreservingMap whose inverse is the reference Newton."""

    def inverse(self):
        fwd = self

        class Inverse(EvaluableMap):
            name = fwd.name + "^-1"
            n_vars = 2

            def eval(self, q):
                return reference_product_inverse(fwd, q)

        return Inverse()


def ball_points(n, radius, seed):
    """n seeded points of the polydisc, uniform in each coordinate disc."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=(n, 2)))
    z = r * np.exp(2j * math.pi * rng.uniform(size=(n, 2)))
    return [tuple(complex(c) for c in row) for row in z]


def test_closed_form_inverses_agree_with_the_reference_newton():
    """F (a = b) and H (a = b + 1) take closed forms; on 2,000
    points of the 0.3-ball they agree with the reference to 1e-12
    (relative) and return h(h^-1(q)) to q within 4e-15 (relative), a bound
    the reference itself misses."""
    points = ball_points(2000, 0.3, seed=6)
    for h in (presets.map_F(), presets.map_H()):
        inv = h.inverse()
        assert type(inv).__name__ in ("_InvariantUnitInverse", "_TangentRootInverse")
        for q in points:
            p = inv.eval(q)
            ref = reference_product_inverse(h, q)
            assert max(abs(s - t) / abs(t) for s, t in zip(p, ref)) <= 1e-12
            assert max(abs(s - t) / abs(t) for s, t in zip(h.eval(p), q)) <= 4e-15


LATTICE = lattice_seeds(0.3, 20, n_vars=2, low=0.05)


@pytest.fixture(scope="module")
def H_lattice_records():
    """H on the 400-seed lattice of the finite-orbits check."""
    h, V = presets.map_H(), DomainBall(0.3)
    return [iterate_orbit(h, s, V) for s in LATTICE]


def test_orbit_verdicts_unchanged_with_the_reference_inverse(H_lattice_records):
    ref_H = ReferenceInverseMap(2, 1, TWO_PI_I, "H")
    old = [iterate_orbit(ref_H, s, DomainBall(0.3)) for s in LATTICE]
    assert [(r.status, r.mu, r.cardinality) for r in H_lattice_records] \
        == [(r.status, r.mu, r.cardinality) for r in old]
    C = presets.F_LEVEL_CONSTANT
    seed = (0.55 + 0j, C / 0.55)
    new = iterate_orbit(presets.map_F(), seed, V1, budget=20_000)
    ref_F = ReferenceInverseMap(1, 1, TWO_PI_I, "F")
    old = iterate_orbit(ref_F, seed, V1, budget=20_000)
    assert new.status == old.status == "BudgetExhausted"
    assert (new.mu, new.cardinality) == (old.mu, old.cardinality)


def test_H_lattice_mu_by_the_one_variable_level_restriction(H_lattice_records):
    """Second route for H: on xy = C the germ is x -> x + 2 pi i C x^2, with
    the domain rule max(|x|, |C/x|) <= 0.3.  Iterating that map and its
    Newton inverse gives every mu of the 400-seed lattice."""
    rho = 0.3
    for (x0, y0), rec in zip(LATTICE, H_lattice_records):
        C = x0 * y0
        level = OneVarParabolicMap(1, 2j * math.pi * C)
        steps = []
        for g in (level, level.inverse()):
            x = x0
            for n in range(1, 100_001):
                (x,) = g.eval((x,))
                if max(abs(x), abs(C / x)) > rho:
                    steps.append(n)
                    break
        assert rec.status == "Escaped" and len(steps) == 2
        assert rec.mu == steps[0] + steps[1] + 1


class ForwardOnly(EvaluableMap):
    """``fwd`` iterated forward only: the same steps, and no inverse."""

    n_vars = 2

    def __init__(self, fwd):
        self.fwd = fwd

    def eval(self, p):
        return self.fwd.eval(p)


@pytest.mark.parametrize("a, b, c", [
    (3, 1, 0.5),
    (1, 3, TWO_PI_I),
], ids=["3-1", "1-3"])
def test_product_preserving_germs_without_a_closed_form_have_no_inverse(a, b, c):
    """Only F (a = b) and H (a = b + 1) invert; every other germ gets
    one-sided records, each equal to a forward-only run's."""
    h = ProductPreservingMap(a, b, c)
    assert h.inverse() is None
    V = DomainBall(0.3)
    for s in lattice_seeds(0.3, 4, low=0.05):
        rec = iterate_orbit(h, s, V, budget=2_000, keep_points=True)
        want = iterate_orbit(ForwardOnly(h), s, V, budget=2_000, keep_points=True)
        assert rec.one_sided and rec.backward_points == []
        assert record_fields(rec) == record_fields(want)


@pytest.mark.parametrize("g_dg, target, reason", [
    # g' = 0 at the start point
    (lambda z: (z * z - 1.0, 2.0 * z), 0j, "hit a critical point"),
    # a derivative 1e40 too large makes every step vanish short of the root
    (lambda z: (1e-3 + 0j, 1e40 + 0j), 0.2 + 0j, "stalled short of a root"),
    # z^3 - 2z + 2: Newton from z = 0 cycles 0, 1, 0, ...
    (lambda z: (z ** 3 - 2.0 * z + 2.0, 3.0 * z * z - 2.0), 0j, "did not converge"),
], ids=["critical-point", "stall", "no-convergence"])
def test_newton_stop_rules(g_dg, target, reason):
    with pytest.raises(OrbitError, match=reason):
        orbits._newton(g_dg, target)


def test_parabolic_inverse_round_trip():
    h = OneVarParabolicMap(2, 0.5 + 1.0j)
    inv = h.inverse()
    for x in (0.2, -0.15 + 0.1j, 0.05j):
        assert abs(inv.eval(h.eval((x,)))[0] - x) < 1e-12


def test_parabolic_inverse_raises_when_newton_cycles():
    # x + x^2 = -1 has no real root; Newton from x = -1 cycles -1, 0, -1, ...
    inv = OneVarParabolicMap(1, 1.0).inverse()
    with pytest.raises(OrbitError, match="did not converge"):
        inv.eval((-1.0,))


def test_parabolic_inverse_raises_at_critical_point():
    # the derivative 1 + 2x of x + x^2 vanishes at the start point x = -1/2
    inv = OneVarParabolicMap(1, 1.0).inverse()
    with pytest.raises(OrbitError, match="critical point"):
        inv.eval((-0.5,))


def reference_parabolic_inverse(d, c, target):
    """The former inverse of x -> x + c x^(d+1): its own Newton loop."""
    scale = max(1.0, abs(target))
    x = target
    for _ in range(60):
        gx = x + c * x ** (d + 1) - target
        if abs(gx) < 1e-16 * scale:
            return x
        dgx = 1.0 + (d + 1) * c * x ** d
        if dgx == 0:
            raise OrbitError("reference Newton iteration hit a critical point")
        x = x - gx / dgx
    if abs(x + c * x ** (d + 1) - target) < 1e-14 * scale:
        return x
    raise OrbitError("reference Newton iteration did not converge")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_parabolic_inverse_equals_the_reference_newton(d):
    """The shared Newton gives the former parabolic loop's values bit for
    bit on seeded targets with |target| <= 0.9, and raises on the same ones."""
    rng = np.random.default_rng(100 + d)
    r = 0.9 * np.sqrt(rng.uniform(size=1000))
    targets = [complex(z) for z in r * np.exp(2j * math.pi * rng.uniform(size=1000))]
    targets += [-1.0, -0.5, -0.5 + 1e-9j]  # for d = c = 1: a Newton cycle, a critical point and a point next to it
    raised = 0
    for c in (1.0, -0.5, 0.5 + 1.0j, 2j, 3.0 - 1.0j):
        inv = OneVarParabolicMap(d, c).inverse()
        for q in targets:
            try:
                want = reference_parabolic_inverse(d, c, q)
            except OrbitError:
                raised += 1
                with pytest.raises(OrbitError):
                    inv.eval((q,))
                continue
            assert inv.eval((q,)) == (want,)
    assert raised > 0


def test_domain_ball_needs_a_finite_positive_radius():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            DomainBall(bad)


@pytest.mark.parametrize("make, reason", [
    (lambda: ProductPreservingMap(1.5, 1, TWO_PI_I), "exponent a must be an integer, got 1.5"),
    (lambda: ProductPreservingMap(2, 1.9, TWO_PI_I), "exponent b must be an integer, got 1.9"),
    (lambda: ProductPreservingMap(2, 1, complex(math.inf, 1)), "c must be finite, got (inf+1j)"),
    (lambda: OneVarParabolicMap(2.7, 1), "d must be an integer, got 2.7"),
    (lambda: MonomialFlowMap(1, 1, 1.5, 0), "a must be an integer, got 1.5"),
    (lambda: MonomialFlowMap(1.5, 1, 1, 1), "n must be an integer, got 1.5"),
    (lambda: OneVarParabolicMap(2, math.nan), "c must be finite, got (nan+0j)"),
    (lambda: OneVarParabolicMap(1, complex(0, math.inf)), "c must be finite, got infj"),
], ids=["F-a", "H-b", "H-inf-c", "parabolic-d", "phiX-a", "phiX-n", "parabolic-nan", "parabolic-inf"])
def test_map_classes_refuse_non_integer_parameters_and_a_non_finite_c(make, reason):
    """A truncated exponent would build another germ, and pick another inverse."""
    with pytest.raises(ValueError, match=re.escape(reason)):
        make()


def test_the_base_map_has_no_eval():
    """EvaluableMap is the base of every map class: its own eval raises a
    bare NotImplementedError, and it has no inverse."""
    h = EvaluableMap()
    with pytest.raises(NotImplementedError) as raised:
        h.eval((0.1 + 0j,))
    assert str(raised.value) == ""
    assert h.inverse() is None


@pytest.mark.parametrize("a, b", [(0, 1), (1, 0)])
def test_product_preserving_map_refuses_a_non_positive_exponent(a, b):
    with pytest.raises(ValueError, match="exponents a, b must be positive"):
        ProductPreservingMap(a, b, 1)


def test_lattice_seeds_refuses_a_count_list_of_another_length():
    with pytest.raises(ValueError, match="2 lattice counts for 3 variables"):
        lattice_seeds(0.3, [2, 3], n_vars=3)


# -- grid experiments ---------------------------------------------------------


def test_finite_orbit_grid_small():
    h = presets.map_H()
    V = DomainBall(0.3)
    seeds = lattice_seeds(0.3, 5, n_vars=2, low=0.05)
    assert all(iterate_orbit(h, s, V, budget=100_000).status != "BudgetExhausted"
               for s in seeds)


def test_infinite_contrast_level_seed():
    h = presets.map_F()
    C = presets.F_LEVEL_CONSTANT
    seed = (0.55, C / 0.55)
    rec = iterate_orbit(h, seed, V1, budget=5000, keep_points=True)
    assert rec.status == "BudgetExhausted"
    pts = rec.forward_points + rec.backward_points
    assert all(V1.contains(p) for p in pts)
    # irrational rotation: many distinct points, no cycle
    assert rec.cardinality > 5000


# the level-circle orbit's worst drift from its closed form, measured at
# 3.1e-12 forward and 5.0e-12 backward over 2,000 steps, bounded with a
# margin of four
LEVEL_CIRCLE_DRIFT_BOUND = 2e-11


def test_level_circle_orbit_follows_its_closed_form_at_40_digits():
    """F = (x u, y / u), u = 1 + c x y, keeps w = x y, so F^n(x0, y0) =
    (x0 u^n, y0 u^-n) with u = 1 + c x0 y0: the kept points of one
    level-circle orbit, 2,000 steps each way, stay within
    LEVEL_CIRCLE_DRIFT_BOUND of this closed form, evaluated at 40 digits
    from the seed's and the map's float values."""
    mpmath = pytest.importorskip("mpmath")
    h = presets.map_F()
    [seed] = presets.level_circle_seeds(1)
    rec = iterate_orbit(h, seed, V1, budget=2000, keep_points=True)
    assert rec.status == "BudgetExhausted"
    assert len(rec.forward_points) == len(rec.backward_points) == 2000
    with mpmath.workdps(40):
        x0, y0 = map(mpmath.mpc, seed)
        u = 1 + mpmath.mpc(h.c) * x0 * y0
        for points, sign in ((rec.forward_points, 1), (rec.backward_points, -1)):
            drift = max(max(abs(x - x0 * u ** (sign * n)), abs(y - y0 * u ** (-sign * n)))
                        for n, (x, y) in enumerate(points, start=1))
            assert drift < LEVEL_CIRCLE_DRIFT_BOUND


def test_time_one_map_claim_grid():
    phi = presets.load_map("phiX(1,1,1,1)")
    V = DomainBall(0.4)
    seeds = [(0.2, 0.25), (0.3, 0.2), (-0.25, 0.3)]
    assert all(iterate_orbit(phi, s, V, budget=3000).status == "Escaped" for s in seeds)


def test_escaped_stable_under_budget_increase():
    h = presets.map_H()
    V = DomainBall(0.3)
    seed = (0.2, 0.2)
    r1 = iterate_orbit(h, seed, V, budget=50_000)
    r2 = iterate_orbit(h, seed, V, budget=100_000)
    assert r1.status == r2.status == "Escaped"
    assert r1.mu == r2.mu


# -- the orbit loop against the scalar loop ---------------------------------------


def reference_iterate_orbit(h, p, V, budget=DEFAULT_BUDGET, keep_points=False):
    """The former iterate_orbit: every test after every step, in Python, with
    the dedup key as a tuple of (re, im) pairs; its run loop is verbatim, but
    a failed step counts the steps before it, as the Dom(h^n) rule asks."""
    def quantize(q, eps):
        return tuple((round(c.real / eps), round(c.imag / eps)) for c in q)

    p = tuple(complex(c) for c in p)
    if not V.contains(p):
        raise OrbitError("seed lies outside the domain ball")
    eps_cycle, eps_dedup = V.cycle_eps, V.dedup_eps
    seen = {quantize(p, eps_dedup)}
    fwd_pts, bwd_pts = [], []

    inside = float(V.radius).__ge__

    def run(direction_map, store):
        step_map = direction_map.eval
        add = seen.add
        cur = p
        for step in range(1, budget + 1):
            prev = cur
            try:
                cur = step_map(cur)
            except STEP_FAILURES:
                return "escaped", step - 1
            if not all(map(inside, map(abs, cur))):
                return "escaped", step
            if max(map(abs, map(sub, cur, p))) < eps_cycle:
                return "periodic", step
            if max(map(abs, map(sub, cur, prev))) < eps_cycle:
                return "budget", step
            add(tuple([(round(c.real / eps_dedup), round(c.imag / eps_dedup)) for c in cur]))
            if keep_points:
                store.append(cur)
        return "budget", budget

    f_out, f_steps = run(h, fwd_pts)
    inv = None if f_out == "periodic" else h.inverse()
    b_out, b_steps = run(inv, bwd_pts) if inv is not None else (None, 0)
    if "periodic" in (f_out, b_out):
        status, period, mu = "Periodic", f_steps if f_out == "periodic" else b_steps, None
    elif f_out == "escaped" and b_out in ("escaped", None):
        status, period, mu = "Escaped", None, f_steps + b_steps + 1 if b_out else f_steps
    else:
        status, period, mu = "BudgetExhausted", None, None
    return OrbitRecord(seed=p, status=status, period=period, mu=mu, cardinality=len(seen),
                       one_sided=f_out != "periodic" and inv is None,
                       forward_points=fwd_pts, backward_points=bwd_pts)


def record_fields(rec):
    return (rec.seed, rec.status, rec.period, rec.mu, rec.cardinality, rec.one_sided,
            rec.forward_points, rec.backward_points)


def complex_H_seeds(n, seed):
    """n seeds with moduli uniform in [0.05, 0.3] and uniform phases."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.05, 0.3, size=(n, 2)) * np.exp(2j * math.pi * rng.uniform(size=(n, 2)))
    return [tuple(complex(c) for c in row) for row in z]


@functools.lru_cache(maxsize=None)
def example3_jet():
    return holonomy_series(presets.load_foliation("example3"), 6)[0]


def example3_jet_map():
    return TruncatedJetMap(example3_jet(), name="example3")


# name -> (map, seeds, ball radius, budget): the orbit experiments and the two
# benchmark orbit workloads (level circle 20,000 and jet map 6,000 steps)
DIFFERENTIAL_GRIDS = {
    "H-lattice": (presets.map_H, lambda: LATTICE, 0.3, DEFAULT_BUDGET),
    "H-complex": (presets.map_H, lambda: complex_H_seeds(400, seed=17), 0.3, DEFAULT_BUDGET),
    "F-level-circle": (presets.map_F, lambda: presets.level_circle_seeds(2), 1.0, 20_000),
    "example3-jet": (example3_jet_map,
                     lambda: [(0.008, 0.008j), (-0.006 + 0.005j, 0.007)], 0.3, 6_000),
    "parabolic": (lambda: presets.load_map("parabolic(2,0.5+1i)"),
                  lambda: lattice_seeds(0.3, 20, n_vars=1), 0.3, 2_000),
    "h1": (presets.map_h1, lambda: lattice_seeds(0.3, 4) + [(0.0, 0.2)], 0.3, DEFAULT_BUDGET),
}


@pytest.fixture(scope="module")
def differential_records():
    """name -> (V, iterate_orbit records, reference records) on DIFFERENTIAL_GRIDS."""
    out = {}
    for name, (make, seeds, radius, budget) in DIFFERENTIAL_GRIDS.items():
        h, V = make(), DomainBall(radius)
        out[name] = (V, *([run(h, s, V, budget=budget, keep_points=True) for s in seeds()]
                          for run in (iterate_orbit, reference_iterate_orbit)))
    return out


@pytest.mark.parametrize("name", DIFFERENTIAL_GRIDS)
def test_chunked_orbit_records_equal_the_scalar_loop(differential_records, name):
    """Every record field and every kept point, bit for bit."""
    _, records, reference = differential_records[name]
    assert [record_fields(r) for r in records] == [record_fields(r) for r in reference]
    statuses = {r.status for r in records}
    if name == "h1":
        assert statuses == {"Periodic"}
        assert {r.period for r in records} == {6, 3}
        assert records[-1].period == 3
    elif name in ("F-level-circle", "example3-jet"):
        assert statuses == {"BudgetExhausted"}
    elif name.startswith("H-"):
        assert statuses == {"Escaped"}


def test_numpy_keys_and_filter_parts_against_the_scalar_values(differential_records):
    """On every visited point q, the NumPy dedup key holds the values of
    ``_quantize``, Python's round, and the cycle filter's premise holds:
    |Re(q0 - r0)|, which the filter compares, is at most the max over
    coordinates of abs(q - r), which the scalar rule compares, for r the
    seed and r the point before q.  So the filter passes every step the
    rule can stop at."""
    for V, records, _ in differential_records.values():
        eps = V.dedup_eps
        for rec in records:
            p = rec.seed
            for run in (rec.forward_points, rec.backward_points):
                if not run:
                    continue
                assert [tuple(np.frombuffer(k, np.int64).tolist())
                        for k in _dedup_keys(run, eps)] == [_quantize(q, eps) for q in run]
                for q, prev in zip(run, [p] + run[:-1]):
                    for r in (p, prev):
                        assert abs(q[0].real - r[0].real) <= max(map(abs, map(sub, q, r)))


# -- per-point helpers against the generator forms they replace ---------------------


def generator_contains(V: DomainBall, p) -> bool:
    """``DomainBall.contains`` as a generator over the coordinates."""
    return all(abs(c) <= V.radius for c in p)


def generator_quantize(p, eps: float):
    """``_quantize`` as a flat list comprehension."""
    return tuple([round(v / eps) for c in p for v in (c.real, c.imag)])


def outcome(f, *args):
    """("value", f(*args)), or ("raises", its exception's type and text)."""
    try:
        return ("value", f(*args))
    except (ArithmeticError, ValueError) as e:
        return ("raises", type(e), str(e))


NAN, INF = math.nan, math.inf
HUGE = complex(1.5e308, 1.5e308)  # |HUGE| overflows a float: abs raises
# (point, radius, eps): every case runs through both helpers
HELPER_EDGES = [
    ((0.1, complex(NAN, 0.0)), 1.0, 1e-9),
    ((complex(INF, 0.0), 0.1), 1.0, 1e-9),
    ((0.1, complex(0.0, -INF)), 1.0, 1e-9),
    ((complex(NAN, INF),), 1.0, 1e-9),
    ((3 + 4j, 0.2), 5.0, 1e-9),                      # |c| == radius exactly
    ((0.5, -0.5j), 0.5, 1e-9),
    ((complex(-0.0, -0.0), complex(0.0, -0.0)), 1.0, 1e-9),
    ((complex(2.5, -0.5), complex(3.5, 0.5)), 4.0, 1.0),    # half-integers: to even
    ((complex(0.25, 0.75), complex(-1.25, 1.25)), 2.0, 0.5),
    ((0.1, HUGE), 1.0, 1e-9),                        # abs raises at coordinate 1
    ((2.0, HUGE), 1.0, 1e-9),                        # outside at coordinate 0 first
    ((0.1, HUGE), 1e308, 1e300),
    ((0.1, complex(1e308, 1e308)), 1.0, 1e-9),       # modulus 1.41e308: no overflow
    ((0.1, complex(1e308, 1e308)), 1e308, 1.0),
    (np.array([[1, 1j], [-0.5, 0.5 + 0.5j]], dtype=complex).ravel(), 1.0, 1e-12),
    (np.array([[1.5, 0], [0, 1]], dtype=complex).ravel(), 1.0, 1.0),
]


@pytest.mark.parametrize("p, radius, eps", HELPER_EDGES)
def test_point_helpers_equal_their_generator_forms_on_edge_cases(p, radius, eps):
    V = DomainBall(radius)
    assert outcome(V.contains, p) == outcome(generator_contains, V, p)
    assert outcome(_quantize, p, eps) == outcome(generator_quantize, p, eps)


def test_the_huge_coordinate_raises_in_abs_and_its_neighbour_does_not():
    V = DomainBall(1.0)
    with pytest.raises(OverflowError, match="absolute value too large"):
        V.contains((0.1, HUGE))
    assert abs(complex(1e308, 1e308)) == pytest.approx(1.41421356e308)
    assert not V.contains((0.1, complex(1e308, 1e308)))


coordinates = st.complex_numbers(allow_nan=True, allow_infinity=True)


@given(p=st.lists(coordinates, min_size=1, max_size=4).map(tuple),
       radius=st.floats(min_value=1e-300, max_value=1e300),
       eps=st.floats(min_value=1e-300, max_value=1e300))
def test_point_helpers_equal_their_generator_forms(p, radius, eps):
    V = DomainBall(radius)
    assert outcome(V.contains, p) == outcome(generator_contains, V, p)
    assert outcome(_quantize, p, eps) == outcome(generator_quantize, p, eps)


@given(p=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4).map(tuple),
       radius=st.floats(min_value=0.01, max_value=2.0))
def test_point_helpers_equal_their_generator_forms_near_the_ball(p, radius):
    V = DomainBall(radius)
    assert V.contains(p) == generator_contains(V, p)
    for eps in (V.dedup_eps, orbits.SNAP, 0.5):
        assert _quantize(p, eps) == generator_quantize(p, eps)


def test_the_scalar_cycle_rule_runs_only_where_the_filter_passes(monkeypatch):
    """x -> 0.99 x from 0.5 is real, so every imaginary part is 0, and its
    real parts stay more than the cycle eps from the seed's and the previous
    point's for 1,000 steps: the rule is never called."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _cycle_event(*args)

    monkeypatch.setattr(orbits, "_cycle_event", counted)
    rec = iterate_orbit(LinearMap([[0.99]]), (0.5,), V1, budget=1000)
    assert rec.status == "BudgetExhausted"
    assert calls == []


SCRIPT_SEED = (0.5 + 0j,)


class Scripted(EvaluableMap):
    """A germ of C^1 that walks from SCRIPT_SEED along distinct points of the
    circle of ``radius`` (golden-angle steps from ``phase``) and then stays
    put; ``event`` is what step ``at`` does.  Every point it is evaluated at
    goes to ``inputs``, so a test can check that none lies outside V."""

    name = "scripted"
    n_vars = 1

    def __init__(self, at, event, radius=0.5, phase=0.0, backward=None):
        golden = (math.sqrt(5) - 1) / 2
        path = [SCRIPT_SEED] + [(radius * cmath.exp(2j * math.pi * (golden * k + phase)),)
                                for k in range(1, at + 2)]
        self.raises = None
        if event == "closes":
            path[at] = (SCRIPT_SEED[0] + 1e-12,)
        elif event == "converges":
            path[at] = (path[at - 1][0] - 1e-12j,)
        elif event == "escapes":
            path[at] = (1.5,)
        elif event == "nan":
            path[at] = (complex(math.nan, 0.0),)
        else:
            self.raises = (path[at - 1], {"OrbitError": OrbitError,
                                          "ZeroDivisionError": ZeroDivisionError}[event])
        self.path = path
        self.next = dict(zip(path, path[1:]))
        self.backward = backward
        self.inputs = []

    def eval(self, p):
        self.inputs.append(p)
        if self.raises and p == self.raises[0]:
            raise self.raises[1]("scripted")
        return self.next.get(p, p)

    def inverse(self):
        return self.backward


def _orbit_and_reference(make, budget):
    """The records (or the ZeroDivisionError) of iterate_orbit and of the
    reference on the orbit of SCRIPT_SEED, and the points each of them
    evaluated its maps at, forward then backward."""
    out, inputs = [], []
    for run in (iterate_orbit, reference_iterate_orbit):
        h = make()
        try:
            out.append(record_fields(run(h, SCRIPT_SEED, V1, budget=budget, keep_points=True)))
        except ZeroDivisionError as exc:
            out.append(repr(exc))
        inputs.append(h.inputs + (h.backward.inputs if h.backward else []))
    return out[0], out[1], inputs[0], inputs[1]


# step 1, steps around small powers of two (15-17, 32-33, 64-65, 128-129)
# and around multiples of 1,024 (1024-1025, 2048-2049, 3072-3073): steps
# where a chunked or batched run loop would split, so a regression to one
# shows against the reference record
EVENT_STEPS = (1, 15, 16, 17, 32, 33, 64, 65, 128, 129, 1024, 1025, 2048, 2049, 3072, 3073)
EVENTS = ("closes", "converges", "escapes", "OrbitError", "nan", "ZeroDivisionError")


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("at", EVENT_STEPS)
def test_chunk_boundaries_give_the_scalar_record(at, event):
    """An event at every step of EVENT_STEPS, forward with a backward run
    that escapes at step 20, and backward after a forward run of 30 steps:
    the record (or the exception) is the reference's, with the budget at the
    event's step or beyond it, and the maps are evaluated at exactly the
    reference's points, none outside V."""
    def forward():
        return Scripted(at, event, backward=Scripted(20, "escapes", radius=0.3, phase=0.3))

    def backward():
        return Scripted(30, "escapes", backward=Scripted(at, event, radius=0.3, phase=0.3))

    for make in (forward, backward):
        for budget in (at, at + 1, 4096):
            got, want, inputs, reference_inputs = _orbit_and_reference(make, budget)
            assert got == want
            assert inputs == reference_inputs
            assert all(V1.contains(q) for q in inputs)


def test_a_cycle_event_comes_before_a_later_exception_in_its_chunk():
    """The map would raise ZeroDivisionError at step 21 of an orbit that
    closes at step 20: the scalar loop never takes step 21, and neither does
    iterate_orbit, so the map is called 20 times and never raises."""
    class ClosesThenRaises(Scripted):
        def eval(self, p):
            if len(self.inputs) == 20:
                self.inputs.append(p)
                raise ZeroDivisionError("past the closure")
            return super().eval(p)

    got, want, inputs, reference_inputs = _orbit_and_reference(
        lambda: ClosesThenRaises(20, "closes"), 100)
    assert got == want
    assert got[1:5] == ("Periodic", 20, None, 20)
    assert len(inputs) == len(reference_inputs) == 20


class CountedMap(EvaluableMap):
    """``h`` with every point it and its inverse are evaluated at appended
    to ``inputs``."""

    def __init__(self, h, inputs):
        self.h, self.inputs = h, inputs
        self.name, self.n_vars = h.name, h.n_vars

    def eval(self, p):
        self.inputs.append(p)
        return self.h.eval(p)

    def inverse(self):
        inv = self.h.inverse()
        return None if inv is None else CountedMap(inv, self.inputs)


# name -> (map, seeds, budget) of the real-map call counts, in the ball of radius 0.3
COUNTED_GRIDS = {
    "h1": (presets.map_h1, lambda: lattice_seeds(0.3, 20), 1_000),
    "swap": (lambda: presets.load_map("swap"), lambda: lattice_seeds(0.3, 20), 1_000),
    "phiX(1,1,999,0)": (lambda: presets.load_map("phiX(1,1,999,0)"),
                        lambda: lattice_seeds(0.3, 6), 1_000),
    "parabolic": (lambda: presets.load_map("parabolic(2,0.5+1i)"),
                  lambda: lattice_seeds(0.3, 20, n_vars=1), 2_000),
    # closes at step 37, past the first 16 steps
    "rotation(37)": (lambda: LinearMap([[cmath.exp(2j * math.pi / 37)]]),
                     lambda: lattice_seeds(0.3, 20, n_vars=1), 1_000),
}


@pytest.mark.parametrize("name", COUNTED_GRIDS)
def test_real_maps_are_evaluated_at_the_reference_points(name):
    """The real maps and their inverses are called at exactly the points,
    and so as many times, as in the reference, with equal records."""
    make, seeds, budget = COUNTED_GRIDS[name]
    V = DomainBall(0.3)
    records, inputs = [], []
    for run in (iterate_orbit, reference_iterate_orbit):
        calls = []
        h = CountedMap(make(), calls)
        records.append([record_fields(run(h, s, V, budget=budget, keep_points=True))
                        for s in seeds()])
        inputs.append(calls)
    assert records[0] == records[1]
    assert inputs[0] == inputs[1]


@pytest.mark.parametrize("at", [12, 20, 40, 1030])
def test_dedup_merges_two_points_that_round_to_one_key(at):
    """Steps at - 10 and at land 0.8 dedup eps apart, at (k + 0.6) eps and
    (k + 1.4) eps: no cycle event, one key by rounding (two by flooring), so
    the cardinality is one less than the points, as in the reference."""
    class Revisits(Scripted):
        def __init__(self):
            super().__init__(at + 10, "escapes")
            eps = V1.dedup_eps
            x = round(-0.4 / eps) * eps
            path = self.path
            path[at - 10], path[at] = (x + 0.6 * eps,), (x + 1.4 * eps,)
            self.next = dict(zip(path, path[1:]))

    got, want, _, _ = _orbit_and_reference(Revisits, 4096)
    assert got == want
    assert got[1:5] == ("Escaped", None, at + 10, at + 9)


@pytest.mark.parametrize("budget", [15, 16, 17, 32, 33, 1024, 1025])
def test_budget_at_a_chunk_size_gives_the_scalar_record(budget):
    """No event before the budget: a budget-exhausted record of exactly
    ``budget`` points each way, as the reference gives."""
    def make():
        return Scripted(5000, "escapes", backward=Scripted(5000, "escapes", 0.3, 0.3))

    got, want, inputs, reference_inputs = _orbit_and_reference(make, budget)
    assert got == want and got[1] == "BudgetExhausted"
    assert len(got[6]) == len(got[7]) == budget
    assert inputs == reference_inputs and len(inputs) == 2 * budget


class LastCoordinateEscapes(EvaluableMap):
    """A germ of C^n_vars, with no inverse, that walks from (0.5, ..., 0.5)
    along distinct points of modulus 0.5 and at step ``at`` maps into a
    point whose last coordinate is ``bad`` while every other coordinate
    stays inside V1; every point it is evaluated at goes to ``inputs``."""

    def __init__(self, n_vars, at, bad):
        golden = (math.sqrt(5) - 1) / 2
        self.n_vars = n_vars
        path = [(0.5 + 0j,) * n_vars] + [
            tuple(0.5 * cmath.exp(2j * math.pi * (golden * k + j / 7)) for j in range(n_vars))
            for k in range(1, at + 1)]
        path[at] = path[at][:-1] + (bad,)
        self.seed = path[0]
        self.next = dict(zip(path, path[1:]))
        self.inputs = []

    def eval(self, p):
        self.inputs.append(p)
        return self.next[p]


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), 1.5 + 0j])
@pytest.mark.parametrize("at", [1, 17, 1025])
@pytest.mark.parametrize("n_vars", [2, 3])
def test_an_escape_in_the_last_coordinate_ends_the_run_at_its_step(n_vars, at, bad):
    """Only the last coordinate of step ``at`` is NaN, inf or beyond the
    radius: the run escapes at that step, with the reference's record and
    the map evaluated at the reference's points."""
    records, inputs = [], []
    for run in (iterate_orbit, reference_iterate_orbit):
        h = LastCoordinateEscapes(n_vars, at, bad)
        records.append(record_fields(run(h, h.seed, V1, budget=4096, keep_points=True)))
        inputs.append(h.inputs)
    assert records[0] == records[1]
    assert inputs[0] == inputs[1] and len(inputs[0]) == at
    assert records[0][1:6] == ("Escaped", None, at, at, True)


def test_a_step_where_u_vanishes_escapes_both_ways():
    """ProductPreservingMap(1, 1, -1) at (1, 1): u = 1 + xy c = 0 exactly,
    so the map and its closed-form inverse both raise at step 1.  The record
    is the reference's: Escaped with mu = 1 and cardinality 1, since neither
    h nor h^-1 is defined at the seed and the Dom(h^n) count holds n = 0
    alone; a failed step earns no escape credit."""
    h, seed = ProductPreservingMap(1, 1, -1), (1.0, 1.0)
    for step in (h.eval, h.inverse().eval):
        with pytest.raises(OrbitError, match=r"u = 0"):
            step(seed)
    got, want = (record_fields(run(h, seed, V1, keep_points=True))
                 for run in (iterate_orbit, reference_iterate_orbit))
    assert got == want
    assert got[1:6] == ("Escaped", None, 1, 1, False)


# -- pseudogroup ----------------------------------------------------------------


def test_pseudogroup_orbit_bounded_by_24():
    gens = presets.pseudogroup_preset("h1h2")
    orb = pseudogroup_orbit(gens, (0.3, 0.7), V1)
    assert orb.cardinality <= 24
    assert 24 % orb.cardinality == 0
    assert not orb.truncated


def test_pseudogroup_word_budget_truncates_the_search_at_that_word_length():
    gens = presets.pseudogroup_preset("h1h2")
    orb = pseudogroup_orbit(gens, (0.3, 0.5), V1, word_budget=1)
    # g1^-1 = g1 (the swap) reaches no new point
    assert orb.words == ["", "g0", "g0^-1", "g1"]
    assert orb.truncated


def test_pseudogroup_point_budget_truncates_the_search_at_that_point_count():
    gens = presets.pseudogroup_preset("h1h2")
    orb = pseudogroup_orbit(gens, (0.3, 0.5), V1, point_budget=5)
    assert orb.words == ["", "g0", "g0^-1", "g1", "g0 g0"]
    assert orb.cardinality == 5 and orb.truncated
    # the whole orbit has 24 points: a budget of 24 holds it untruncated
    full = pseudogroup_orbit(gens, (0.3, 0.5), V1, point_budget=24)
    assert full.cardinality == 24 and not full.truncated


def test_pseudogroup_single_generator_matches_iterate():
    rot = LinearMap([[cmath.exp(2j * math.pi / 7)]])
    rec = iterate_orbit(rot, (0.5,), V1, keep_points=True)
    orb = pseudogroup_orbit([rot], (0.5,), V1)
    assert rec.status == "Periodic" and rec.period == 7
    assert orb.cardinality == 7


def test_pseudogroup_domain_rule_prunes_outward_step():
    # x -> x/2 from 0.9: forward images shrink and stay, the inverse step
    # to 1.8 leaves the ball and is pruned
    half = LinearMap([[0.5]])
    orb = pseudogroup_orbit([half], (0.9,), V1, word_budget=60)
    assert all(abs(p[0]) <= 1.0 for p in orb.points)
    assert max(abs(p[0]) for p in orb.points) <= 0.9 + 1e-12


def test_pseudogroup_seed_outside_ball_rejected():
    with pytest.raises(OrbitError, match=re.escape(
            "seed ((2+0j), 0j) lies outside the domain ball of radius 1.0")):
        pseudogroup_orbit(presets.pseudogroup_preset("h1h2"), (2.0, 0.0), V1)


def test_pseudogroup_skips_a_generator_that_overflows():
    """g0 raises OverflowError at every point and has no inverse: the orbit
    is the 7 points of the g1 rotation, reached by g1 and g1^-1 alone."""
    class Overflows(EvaluableMap):
        name, n_vars = "overflows", 1

        def eval(self, p):
            raise OverflowError("overflows")

    rot = LinearMap([[cmath.exp(2j * math.pi / 7)]])
    orb = pseudogroup_orbit([Overflows(), rot], (0.5,), V1)
    assert orb.cardinality == 7 and not orb.truncated
    assert set(" ".join(orb.words).split()) == {"g1", "g1^-1"}


def test_pseudogroup_witness_words_valid():
    gens = presets.pseudogroup_preset("h1h2")
    orb = pseudogroup_orbit(gens, (0.3, 0.7), V1)
    lookup = {"g0": gens[0], "g0^-1": gens[0].inverse(),
              "g1": gens[1], "g1^-1": gens[1].inverse()}
    for word, point in zip(orb.words, orb.points):
        cur = orb.seed
        for step in word.split():
            cur = lookup[step].eval(cur)
        assert max(abs(a - b) for a, b in zip(cur, point)) < 1e-10


# -- closures and periodicity -----------------------------------------------------


def brute_closure_order(mats, cap=1000):
    """Independent brute-force oracle with rounded-tuple keys."""
    def key(M):
        return tuple((round(v.real, 9), round(v.imag, 9)) for v in M.ravel())

    elems = {key(np.eye(2, dtype=complex))}
    frontier = [np.eye(2, dtype=complex)]
    all_elems = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for M in frontier:
            for G in mats:
                P = G @ M
                k = key(P)
                if k not in elems:
                    elems.add(k)
                    nxt.append(P)
                    all_elems.append(P)
                    if len(elems) > cap:
                        return -1
        frontier = nxt
    return len(elems)


def test_group_closure_order_24_matches_oracle():
    gens = presets.pseudogroup_preset("h1h2")
    closure = group_closure(gens)
    assert closure.order == 24
    mats = [np.array(g.matrix, dtype=complex) for g in gens]
    assert brute_closure_order(mats) == 24
    assert not closure.is_abelian
    assert closure.non_commuting_pair == (0, 1)


def test_group_closure_cyclic_and_trivial():
    c4 = group_closure([LinearMap([[1j, 0], [0, 1j]])])
    assert c4.order == 4 and c4.is_abelian
    triv = group_closure([LinearMap([[1.0, 0], [0, 1.0]])])
    assert triv.order == 1


def test_group_closure_gives_up_past_the_budget():
    """An irrational rotation generates an infinite group: order None."""
    rot = cmath.exp(2j * math.pi * presets.GOLDEN_ROTATION)
    closure = group_closure([LinearMap([[rot, 0], [0, 1]])])
    assert closure.order is None and closure.is_abelian


@pytest.mark.parametrize("perm", [[1, -1], [0, 0], [0, 5], [0.5, 1]])
def test_permutation_map_refuses_what_is_not_a_permutation(perm):
    """A wrapped index, a repeat, an index past n - 1 and a fraction: each
    would build a wrong or singular matrix, or fail on an index."""
    with pytest.raises(ValueError, match=re.escape(f"perm {perm} is not a permutation of 0..1")):
        PermutationMap(perm)


def test_periodicity_linear_maps():
    assert periodicity_test(presets.map_h1(), 10) == 6
    assert periodicity_test(presets.map_h2(), 10) == 2
    assert periodicity_test(PermutationMap([1, 2, 0]), 10) == 3
    # coefficientwise, not on probes: h^3 is off the identity by 1.9e-10 in
    # its coefficient but by less than 1e-11 at every probe
    near = LinearMap([[cmath.exp(2j * math.pi * (1 / 3 + 1e-11))]])
    assert periodicity_test(near, 10) is None


def test_periodicity_jet_map():
    m = JetMap.linear([[-1.0, 0.0], [0.0, -1.0]], 4)
    assert periodicity_test(m, 5) == 2


class Rotation(EvaluableMap):
    """x_j -> e^(2 pi i turns_j) x_j, evaluated as a formula: a map with no jet."""

    def __init__(self, turns):
        self.factors = [cmath.exp(2j * math.pi * q) for q in turns]
        self.n_vars = len(turns)

    def eval(self, p):
        return tuple(f * c for f, c in zip(self.factors, p))


@pytest.mark.parametrize("turns, period", [((1 / 3, -1 / 3), 3), ((1 / 5, 2 / 5), 5)])
def test_periodicity_test_finds_a_time_one_rotation_pointwise(turns, period):
    """The time-one map of the linear field with eigenvalues 2 pi i * turns
    rotates each coordinate by its turn: the pointwise rule finds its period."""
    assert periodicity_test(Rotation(turns), 10) == period


def test_H_not_periodic_up_to_200():
    assert periodicity_test(presets.map_H(), 200) is None


def reference_periodicity_test(h, n_max, probe_radius=0.05, tol=1e-10):
    """The former four-branch periodicity test: a NumPy matrix power for
    linear maps, coefficientwise for jet maps, a recursion for truncated jet
    maps and pointwise probes for everything else."""
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
        return reference_periodicity_test(h.jmap, n_max, probe_radius, tol)
    probes = [tuple(probe_radius * (0.4 + 0.12 * i) * cmath.exp(2j * math.pi * (3 * i + j + 1) / 11)
                    for j in range(h.n_vars)) for i in range(5)]
    current = list(probes)
    ptol = max(tol, 1e-9 * probe_radius)
    for n in range(1, n_max + 1):
        current = [h.eval(p) for p in current]
        if all(max(abs(a - b) for a, b in zip(c, p)) < ptol for c, p in zip(current, probes)):
            return n
    return None


def _monomial_linear_maps(count, seed=15):
    """Seeded permutation-times-diagonal matrices of size 1-4 whose entries
    are roots of unity of order <= 12."""
    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        n = rng.randint(1, 4)
        perm = rng.sample(range(n), n)
        matrix = [[0j] * n for _ in range(n)]
        for i, j in enumerate(perm):
            q = rng.randint(1, 12)
            matrix[i][j] = cmath.exp(2j * math.pi * rng.randrange(q) / q)
        maps.append(LinearMap(matrix))
    return maps


def test_periodicity_test_matches_the_former_test_on_linear_maps():
    maps = _monomial_linear_maps(300) + [presets.map_h1(), presets.map_h2(),
                                         PermutationMap([1, 2, 0])]
    got = [periodicity_test(h, 24) for h in maps]
    assert got == [reference_periodicity_test(h, 24) for h in maps]
    assert got[-3:] == [6, 2, 3]
    # the seeded sample reaches both answers: some maps have no period <= 24
    assert None in got and len(set(got)) > 5


@pytest.mark.parametrize("make", [
    lambda: JetMap.linear([[1.0, 0.0], [0.0, 1.0]], 4),
    lambda: JetMap.linear([[-1.0, 0.0], [0.0, -1.0]], 4),
    lambda: TruncatedJetMap(JetMap.linear([[-1.0, 0.0], [0.0, -1.0]], 4)),
    lambda: TruncatedJetMap(JetMap.linear([[0, 1j, 0], [1j, 0, 0], [0, 0, -1]], 3)),
    presets.map_H,
], ids=["I", "-I", "-I-truncated", "3x3-truncated", "H"])
def test_periodicity_test_matches_the_former_test_on_jet_and_point_maps(make):
    h = make()
    assert periodicity_test(h, 200) == reference_periodicity_test(h, 200)


# the example1(n,m,a,b) fields whose time-one maps phiX(n,m,a,b) are checked
EXAMPLE1_ARGS = ["(1,1,1,1)", "(1,2,1,0)", "(2,1,0,1)", "(3,2,2,1)", "(1,3,2,2)", "(5,7,1,3)",
                 "(1,1,3,0)", "(2,3,1,2)"]


def example1_points(args, k=20):
    """k seeded points with real and imaginary parts in [-0.3, 0.3]."""
    rng = random.Random(args)
    return [tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(2))
            for _ in range(k)]


def distance(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


@pytest.mark.parametrize("args", EXAMPLE1_ARGS)
def test_phiX_and_its_inverse_are_the_numeric_flow_at_plus_and_minus_one(monkeypatch, args):
    """The closed form against numeric_flow(X, p, +-1) of the example1 field,
    at the former time-one maps' atol 1e-12: within 1e-10 (1.8e-11 at worst)."""
    monkeypatch.setattr(flows, "DEFAULT_ATOL", 1e-12)
    phi, X = presets.load_map("phiX" + args), presets.load_field("example1" + args)
    assert isinstance(phi, MonomialFlowMap)
    for p in example1_points(args):
        assert distance(phi.eval(p), numeric_flow(X, p, 1.0)) < 1e-10
        assert distance(phi.inverse().eval(p), numeric_flow(X, p, -1.0)) < 1e-10


@pytest.mark.parametrize("args", EXAMPLE1_ARGS)
def test_phiX_inverse_round_trips_to_rounding(args):
    """phi^-1(phi(p)) and phi(phi^-1(p)) return p within 1e-15 (1.8e-16 at worst)."""
    phi = presets.load_map("phiX" + args)
    inv = phi.inverse()
    for p in example1_points(args):
        assert distance(inv.eval(phi.eval(p)), p) < 1e-15
        assert distance(phi.eval(inv.eval(p)), p) < 1e-15


@pytest.mark.parametrize("spec", ["phiX(1,1,1,1)", "phiX(2,3,1,2)"])
def test_phiX_inverse_is_the_closed_form_at_time_minus_one(spec):
    """With w = x^a y^b, lam = n/m and kappa = a - b lam, the time-t map is
    (x E, y E^-lam), E = (1 - kappa w t)^(-1/kappa) (e^(w t) when kappa = 0);
    the inverse is it at t = -1, and its own inverse is phiX."""
    phi = presets.load_map(spec)
    inv = phi.inverse()
    assert inv.name == "phiX^-1" and inv.inverse() is phi
    lam = phi.n / phi.m
    kappa = phi.a - phi.b * lam
    for x, y in example1_points(spec, 40):
        w = x ** phi.a * y ** phi.b
        E = cmath.exp(-w) if kappa == 0 else (1 + kappa * w) ** (-1 / kappa)
        want = (x * E, y * E ** -lam)
        assert distance(inv.eval((x, y)), want) < 1e-15


def test_phiX_escapes_where_its_flow_blows_up():
    """phiX(1,1,2,0): w = x^2 solves w' = 2 w^2, so from (0.8, 0.1) the flow
    blows up at t = 1 / 1.28: the first forward step raises OrbitError and
    escapes with no credit (the seed is not in Dom(phi)), and the backward run
    escapes at step 78 (x y = 0.08 is kept, so |y| > 1 once x^2 < 0.0064):
    mu = 0 + 78 + 1 = 79."""
    phi = presets.load_map("phiX(1,1,2,0)")
    with pytest.raises(OrbitError, match="blows up"):
        phi.eval((0.8, 0.1))
    rec = iterate_orbit(phi, (0.8, 0.1), V1)
    assert (rec.status, rec.mu, rec.cardinality, rec.one_sided) == ("Escaped", 79, 78, False)


# -- petals -----------------------------------------------------------------------


def test_petal_directions_d1():
    rep = petal_analysis(1, 1.0)
    assert rep.attracting_dirs == [math.pi]
    assert rep.repelling_dirs == [0.0]
    assert rep.sector_count == 2


def test_petal_directions_d2_with_convergence():
    rep = petal_analysis(2, 1.0)
    assert np.allclose(rep.attracting_dirs, [math.pi / 2, 3 * math.pi / 2])
    for run in rep.runs:
        assert run["converged"]
        assert run["arg_error"] < 1e-3


def test_petal_rotated_coefficient():
    # c = i rotates the flower by -pi/2 per direction formula
    rep = petal_analysis(1, 1.0j)
    assert abs(rep.attracting_dirs[0] - math.pi / 2) < 1e-12


def reference_petal_runs(d, c):
    """The runs of petal_analysis(d, c) by the former loop, each step one
    ``h.eval((x,))`` call."""
    h = OneVarParabolicMap(d, c)
    runs = []
    for ang in petal_analysis(d, c).attracting_dirs:
        x = orbits.PETAL_SEED_RADIUS * cmath.exp(1j * (ang + orbits.PETAL_SEED_OFFSET))
        start_mod = abs(x)
        for _ in range(orbits.PETAL_ITERATIONS):
            (x,) = h.eval((x,))
            if abs(x) > 10.0:
                break
        final_arg = cmath.phase(x) % (2 * math.pi)
        runs.append({"direction": ang, "final_modulus": abs(x), "start_modulus": start_mod,
                     "converged": abs(x) < start_mod * 0.5,
                     "arg_error": abs((final_arg - ang + math.pi) % (2 * math.pi) - math.pi)})
    return runs


def hexed(run):
    return {k: v if isinstance(v, bool) else v.hex() for k, v in run.items()}


@pytest.mark.parametrize("d, c", [(1, 1.0), (2, 0.5 + 1j), (3, -1j), (4, 2.0), (5, 0.3 - 0.4j),
                                  (1, 1e4), (2, 3e5 + 1e5j), (3, 1e7j)])
def test_petal_runs_equal_the_map_eval_loop_bit_for_bit(d, c):
    """petal_analysis steps x = x + c * x ** (d + 1) in place: every run's
    values have the bits of the loop through OneVarParabolicMap.eval.  The
    large c's throw each run past |x| = 10 within a few steps."""
    runs = petal_analysis(d, c).runs
    reference = reference_petal_runs(d, c)
    assert [hexed(r) for r in runs] == [hexed(r) for r in reference]
    assert len(runs) == d
    if abs(c) >= 1e4:
        assert all(r["final_modulus"] > 10.0 for r in runs)


def test_H_level_restriction_matches_petal_model():
    """On the level set xy = C the first coordinate of the H-type germ
    (a, b) = (2, 1) moves as x -> x + C f(0) x^2 + higher order, the d = 1
    parabolic model with coefficient c = C f(0)."""
    h = presets.map_H()
    C = 0.01
    x = 0.05
    y = C / x
    x1 = h.eval((x, y))[0]
    model = x + C * (2j * math.pi) * x ** 2
    assert abs(x1 - model) < 5 * abs(C * x) ** 2


# -- truncated jet maps --------------------------------------------------------------


def test_truncated_jet_map_inverse_quality():
    good = TruncatedJetMap(JetMap.linear([[0.5, 0], [0, 2.0]], 4))
    assert good.inverse() is not None
    rec = iterate_orbit(good, (0.1, 0.001), V1)
    assert not rec.one_sided


def test_truncated_jet_map_keeps_a_failed_inverse(monkeypatch):
    """A singular linear part has no inverse jet: None, found once."""
    calls = []
    invert = JetMap.inverse
    monkeypatch.setattr(JetMap, "inverse", lambda self: calls.append(self) or invert(self))
    h = TruncatedJetMap(JetMap.linear([[0.5, 0], [0, 0]], 4))
    assert h.inverse() is None and h.inverse() is None
    assert len(calls) == 1


def test_truncated_jet_map_refuses_an_inverse_that_misses_the_probe_round_trip():
    """(x + 100 x^2, y) at order 2 has an inverse jet, but its truncation
    misses the round trip on the probes: no inverse, so the orbit of
    (0.01, 0.01) is one-sided and escapes at step 3 (x = 0.02, 0.06, 0.42)."""
    jmap = JetMap([Jet(2, 2, {(1, 0): 1.0, (2, 0): 100.0}), Jet(2, 2, {(0, 1): 1.0})])
    h = TruncatedJetMap(jmap)
    assert jmap.inverse() is not None and h.inverse() is None
    rec = iterate_orbit(h, (0.01, 0.01), DomainBall(0.3))
    assert (rec.status, rec.mu, rec.one_sided) == ("Escaped", 3, True)


# -- one inverse per map ---------------------------------------------------------------


# one map of each class: the product-preserving, parabolic, linear, permutation,
# closed-form time-one and truncated jet maps
ONE_INVERSE_MAPS = {
    "H": presets.map_H,
    "F": presets.map_F,
    "parabolic": lambda: presets.load_map("parabolic(2,0.5+1i)"),
    "h1": presets.map_h1,
    "h2": presets.map_h2,
    "phiX": lambda: presets.load_map("phiX(1,1,1,1)"),
    "example3-jet": example3_jet_map,
}


@pytest.mark.parametrize("name", ONE_INVERSE_MAPS)
def test_a_map_inverts_once_for_a_whole_grid(monkeypatch, name):
    """A 20 x 20 grid (20 seeds for the germ of C^1) makes one ``_invert``
    call, every later inverse() is that same object, and every record equals
    the one a fresh map, inverted for its own seed, gives.  h1 and h2 close
    on every seed before any backward run, so their one call is the test's."""
    make = ONE_INVERSE_MAPS[name]
    h, V = make(), DomainBall(0.3)
    calls = []
    invert = type(h)._invert
    monkeypatch.setattr(type(h), "_invert", lambda self: calls.append(self) or invert(self))
    seeds = lattice_seeds(0.3, 20, n_vars=h.n_vars)
    records = [iterate_orbit(h, s, V, budget=10, keep_points=True) for s in seeds]
    assert h.inverse() is h.inverse() is not None
    assert calls == [h]
    fresh = [iterate_orbit(make(), s, V, budget=10, keep_points=True) for s in seeds]
    assert [record_fields(r) for r in records] == [record_fields(r) for r in fresh]


def test_pseudogroup_orbits_invert_each_generator_once(monkeypatch):
    calls = []
    invert = LinearMap._invert
    monkeypatch.setattr(LinearMap, "_invert", lambda self: calls.append(self) or invert(self))
    gens = presets.pseudogroup_preset("h1h2")
    seeds = presets.pseudogroup_seeds(100, 1.0, 2)
    for s in seeds:
        pseudogroup_orbit(gens, s, V1)
    assert len(seeds) == 100 and calls == gens


@pytest.mark.parametrize("make", [
    presets.map_F,
    presets.map_H,
    lambda: OneVarParabolicMap(2, 0.5 + 1j),
], ids=["F", "H", "parabolic"])
def test_the_inverse_of_an_inverse_map_is_the_map(make):
    h = make()
    assert h.inverse().inverse() is h


def test_lattice_seeds_deterministic():
    a = lattice_seeds(0.3, 4, n_vars=2, low=0.05)
    b = lattice_seeds(0.3, 4, n_vars=2, low=0.05)
    assert a == b and len(a) == 16


def test_pseudogroup_seeds_are_the_cut_lattice_of_radius_0_8():
    # the reproduction check's 100 seeds: a 10 x 10 lattice of radius 0.8
    assert presets.pseudogroup_seeds(100, 1.0, 2) == lattice_seeds(0.8, 10, n_vars=2)
    assert presets.pseudogroup_seeds(5, 0.5, 2) == lattice_seeds(0.4, 2, n_vars=2)[:4]
    assert presets.pseudogroup_seeds(10, 1.0, 3) == lattice_seeds(0.8, 3, n_vars=3)[:10]


def test_level_circle_seeds_lie_on_the_level_set():
    C = presets.F_LEVEL_CONSTANT
    # the first seed is the infinite-contrast check's (0.55, C/0.55)
    assert presets.level_circle_seeds(1) == [(0.55 + 0j, C / (0.55 + 0j))]
    seeds = presets.level_circle_seeds(8)
    assert len(seeds) == 8 and seeds[0] == presets.level_circle_seeds(1)[0]
    for k, (x, y) in enumerate(seeds):
        assert abs(x - 0.55 * cmath.exp(2j * math.pi * k / 8)) < 1e-15
        assert abs(x * y - C) < 1e-15


# -- linear maps are order-1 jet maps ---------------------------------------


def reference_linear_eval(matrix, p):
    """The former ``LinearMap.eval``, the matrix loop, kept verbatim as the
    bit-for-bit oracle of the compiled order-1 evaluator."""
    return tuple(
        sum(a * x for a, x in zip(row, p)) for row in matrix
    )


def packed(point):
    """The bytes of a point's re and im parts, so that -0.0 differs from 0.0."""
    return struct.pack(f"{2 * len(point)}d", *(v for c in point for v in (c.real, c.imag)))


def rechunked(points, n):
    """The coordinates of ``points``, in order, cut into points of n coordinates."""
    flat = [c for p in points for c in p]
    return [tuple(flat[i:i + n]) for i in range(0, len(flat) - n + 1, n)]


# the rotation maps of the tests above
ROTATIONS = {
    "rot5": [[cmath.exp(2j * math.pi / 5)]],
    "rot7": [[cmath.exp(2j * math.pi / 7)]],
    "rot37": [[cmath.exp(2j * math.pi / 37)]],
    "quarter-turn": [[1j]],
    "c4": [[1j, 0], [0, 1j]],
    "golden": [[cmath.exp(2j * math.pi * presets.GOLDEN_ROTATION), 0], [0, 1]],
}


@functools.lru_cache(maxsize=None)
def linear_eval_points():
    """Three point sets of two coordinates: the 20 x 20 lattice, the points
    of the h1h2 BFS orbits of the 100 pseudogroup seeds, and seeded random
    points whose parts are often +0.0 or -0.0."""
    lattice = lattice_seeds(0.3, 20, n_vars=2, low=0.05)
    gens = presets.pseudogroup_preset("h1h2")
    bfs = [q for s in presets.pseudogroup_seeds(100, 1.0, 2)
           for q in pseudogroup_orbit(gens, s, V1).points]
    rng = random.Random(23)
    part = lambda: rng.choice((0.0, -0.0, rng.uniform(-0.9, 0.9)))
    signed = [(complex(part(), part()), complex(part(), part())) for _ in range(2000)]
    return {"lattice": lattice, "bfs": bfs, "signed-zeros": signed}


@pytest.mark.parametrize("name, make", [
    ("h1", presets.map_h1),
    ("h2", presets.map_h2),
    ("perm(1,2,0)", lambda: PermutationMap([1, 2, 0])),
    *((name, lambda m=m: LinearMap(m)) for name, m in ROTATIONS.items()),
])
def test_linear_map_images_are_the_matrix_loop_bit_for_bit(name, make):
    """Forward and inverse images equal the former matrix loop's byte for
    byte, on the former inverse matrix, np.linalg.inv's, entry for entry."""
    h = make()
    forward = [[complex(v) for v in row] for row in h.matrix]
    backward = np.linalg.inv(np.array(forward, dtype=complex)).tolist()
    inv = h.inverse()
    assert inv.name == h.name + "^-1"
    assert inv.jmap.linear_part() == backward
    counted = 0
    for label, points in linear_eval_points().items():
        for p in rechunked(points, h.n_vars):
            for m, matrix in ((h, forward), (inv, backward)):
                assert packed(m.eval(p)) == packed(reference_linear_eval(matrix, p)), (label, p)
                counted += 1
    assert counted > 2 * 2000


SINGULAR = {"zero": [[0.0]], "rank-1-diagonal": [[1, 0], [0, 0]], "rank-1-full": [[1, 1], [1, 1]]}


@pytest.mark.parametrize("matrix", SINGULAR.values(), ids=SINGULAR)
def test_a_singular_linear_map_is_one_sided_as_its_jet_map(matrix):
    """No inverse, so one-sided records: the same as the order-1 truncated
    jet map's, where np.linalg.inv used to raise LinAlgError."""
    h, jet = LinearMap(matrix), TruncatedJetMap(JetMap.linear(matrix, 1))
    assert h.inverse() is None and jet.inverse() is None
    V = DomainBall(0.3)
    seeds = [(0.1,) * h.n_vars, (0.2, -0.05j)[:h.n_vars], (0.29,) * h.n_vars]
    for s in seeds:
        rec = iterate_orbit(h, s, V, keep_points=True)
        assert rec.one_sided
        assert record_fields(rec) == record_fields(
            iterate_orbit(jet, s, V, keep_points=True))
        orb = pseudogroup_orbit([h], s, V)
        want = pseudogroup_orbit([jet], s, V)
        assert (orb.points, orb.words, orb.truncated) == (want.points, want.words, want.truncated)
        assert "g0^-1" not in " ".join(orb.words)


def test_a_small_scaled_identity_has_an_inverse_and_two_sided_records():
    """1e-7 I has |det| = 1e-14: singular for the former absolute bound
    |det| < 1e-12, invertible for the relative one (1e-12 times the rows'
    2-norms, 1e-26 here).  Forward it converges onto 0 (budget-exhausted);
    backward, 1e7 I escapes at its first step."""
    h = LinearMap([[1e-7, 0], [0, 1e-7]])
    inv = h.inverse()
    assert inv is not None and inv.jmap.linear_part() == [[1e7, 0], [0, 1e7]]
    for s in [(0.1, 0.2), (0.2, -0.05j), (0.29, 0.29)]:
        rec = iterate_orbit(h, s, DomainBall(0.3))
        assert not rec.one_sided and rec.status == "BudgetExhausted"


@pytest.mark.parametrize("matrix, row", [
    ([[1, 2, 3]], 0),
    ([[1, 2], [3]], 1),
    ([[1, 0], [0, 1], [1, 1]], 0),
])
def test_a_linear_map_refuses_a_matrix_that_is_not_square(matrix, row):
    with pytest.raises(ValueError, match=f"matrix row {row} has length"):
        LinearMap(matrix)
