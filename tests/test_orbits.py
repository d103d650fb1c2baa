"""Orbit lab: trichotomy, pseudogroups, closures, periodicity, petals."""
import cmath
import math

import numpy as np
import pytest

from holodyn import presets
from holodyn.jets import Jet, JetMap
from holodyn.orbits import (
    DEFAULT_BUDGET,
    DomainBall,
    EvaluableMap,
    LinearMap,
    OneVarParabolicMap,
    OrbitError,
    PermutationMap,
    ProductPreservingMap,
    TruncatedJetMap,
    classify_seed_grid,
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
    for (a, b) in ((1, 1), (2, 1), (1, 3)):
        h = ProductPreservingMap(a, b, presets.const_f_jet())
        inv = h.inverse()
        for p in [(0.2, 0.3), (0.1 + 0.05j, 0.25), (-0.15, 0.2j)]:
            q = h.eval(p)
            back = inv.eval(q)
            assert max(abs(u - v) for u, v in zip(p, back)) < 1e-12
            # and the other way round
            there = h.eval(inv.eval(p))
            assert max(abs(u - v) for u, v in zip(p, there)) < 1e-12


def reference_product_inverse(fwd, q):
    """The former inverse of a ProductPreservingMap: Newton on the level set
    x*y = C with a finite-difference derivative, for every (a, b, f)."""
    a, b, f = fwd.a, fwd.b, fwd.f
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
        u = 1.0 + w * f.eval((w,))
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
    """F (a = b) and H (a = b + 1, constant f) take closed forms; on 2,000
    points of the 0.3-ball they agree with the reference to 1e-12
    (relative) and return h(h^-1(q)) to q within 4e-15 (relative), a bound
    the reference itself misses."""
    points = ball_points(2000, 0.3, seed=6)
    for h in (presets.map_F(), presets.map_H()):
        inv = h.inverse()
        assert type(inv).__name__ != "_ProductPreservingInverse"
        for q in points:
            p = inv.eval(q)
            ref = reference_product_inverse(h, q)
            assert max(abs(s - t) / abs(t) for s, t in zip(p, ref)) <= 1e-12
            assert max(abs(s - t) / abs(t) for s, t in zip(h.eval(p), q)) <= 4e-15


LATTICE = lattice_seeds(0.3, 20, n_vars=2, low=0.05)


@pytest.fixture(scope="module")
def H_lattice_records():
    """H on the 400-seed lattice of the finite-orbits check."""
    return classify_seed_grid(presets.map_H(), DomainBall(0.3), LATTICE).records


def test_orbit_verdicts_unchanged_with_the_reference_inverse(H_lattice_records):
    ref_H = ReferenceInverseMap(2, 1, presets.const_f_jet(), "H")
    old = classify_seed_grid(ref_H, DomainBall(0.3), LATTICE).records
    assert [(r.status, r.mu, r.cardinality) for r in H_lattice_records] \
        == [(r.status, r.mu, r.cardinality) for r in old]
    C = presets.F_LEVEL_CONSTANT
    seed = (0.55 + 0j, C / 0.55)
    new = iterate_orbit(presets.map_F(), seed, V1, budget=20_000)
    ref_F = ReferenceInverseMap(1, 1, presets.const_f_jet(), "F")
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


def test_newton_fallback_round_trip():
    """(1, 3) and (3, 1) with a non-constant f have no closed form."""
    f = Jet(1, 4, {(0,): 2j * math.pi, (1,): 0.3})
    for a, b in ((1, 3), (3, 1)):
        h = ProductPreservingMap(a, b, f)
        inv = h.inverse()
        assert type(inv).__name__ == "_ProductPreservingInverse"
        for p in ball_points(50, 0.3, seed=a):
            assert max(abs(u - v) for u, v in zip(inv.eval(h.eval(p)), p)) < 1e-13
            assert max(abs(u - v) for u, v in zip(h.eval(inv.eval(p)), p)) < 1e-13


def test_newton_fallback_raises_when_it_cannot_converge():
    # (3, 1), f = -1/2 at the target (1, 1): the level-set equation is
    # z - z^3/2 = 1, on which Newton from z = 1 cycles 1, 0, 1, ...
    inv = ProductPreservingMap(3, 1, presets.const_f_jet(-0.5)).inverse()
    with pytest.raises(OrbitError, match="did not converge"):
        inv.eval((1.0 + 0j, 1.0 + 0j))


def test_newton_fallback_checks_the_residual_when_the_step_stalls():
    # a derivative 1e40 too large makes the first step vanish off the level set
    inv = ProductPreservingMap(3, 1, presets.const_f_jet(0.5)).inverse()
    inv.df = Jet(1, 4, {(0,): 1e40})
    with pytest.raises(OrbitError, match="stalled off the level set"):
        inv.eval((0.2 + 0j, 0.1 + 0j))


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


# -- grid experiments ---------------------------------------------------------


def test_finite_orbit_grid_small():
    h = presets.map_H()
    V = DomainBall(0.3)
    seeds = lattice_seeds(0.3, 5, n_vars=2, low=0.05)
    summary = classify_seed_grid(h, V, seeds, budget=100_000)
    assert summary.counts["BudgetExhausted"] == 0


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


def test_time_one_map_claim_grid():
    phi = presets.load_map("phiX(1,1,1,1)")
    V = DomainBall(0.4)
    seeds = [(0.2, 0.25), (0.3, 0.2), (-0.25, 0.3)]
    summary = classify_seed_grid(phi, V, seeds, budget=3000)
    assert summary.counts["Escaped"] == len(seeds)


def test_escaped_stable_under_budget_increase():
    h = presets.map_H()
    V = DomainBall(0.3)
    seed = (0.2, 0.2)
    r1 = iterate_orbit(h, seed, V, budget=50_000)
    r2 = iterate_orbit(h, seed, V, budget=100_000)
    assert r1.status == r2.status == "Escaped"
    assert r1.mu == r2.mu


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


def test_periodicity_linear_maps():
    assert periodicity_test(presets.map_h1(), 10) == 6
    assert periodicity_test(presets.map_h2(), 10) == 2
    assert periodicity_test(PermutationMap([1, 2, 0]), 10) == 3


def test_periodicity_jet_map():
    m = JetMap.linear([[-1.0, 0.0], [0.0, -1.0]], 4)
    assert periodicity_test(m, 5) == 2


def test_H_not_periodic_up_to_200():
    assert periodicity_test(presets.map_H(), 200) is None


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


def test_lattice_seeds_deterministic():
    a = lattice_seeds(0.3, 4, n_vars=2, low=0.05)
    b = lattice_seeds(0.3, 4, n_vars=2, low=0.05)
    assert a == b and len(a) == 16


def test_level_circle_seeds_lie_on_the_level_set():
    C = presets.F_LEVEL_CONSTANT
    # the first seed is the infinite-contrast check's (0.55, C/0.55)
    assert presets.level_circle_seeds(1) == [(0.55 + 0j, C / (0.55 + 0j))]
    seeds = presets.level_circle_seeds(8)
    assert len(seeds) == 8 and seeds[0] == presets.level_circle_seeds(1)[0]
    for k, (x, y) in enumerate(seeds):
        assert abs(x - 0.55 * cmath.exp(2j * math.pi * k / 8)) < 1e-15
        assert abs(x * y - C) < 1e-15
