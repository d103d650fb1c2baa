"""Orbit lab: trichotomy, pseudogroups, closures, periodicity, petals."""
import cmath
import math

import numpy as np
import pytest

from holodyn import presets
from holodyn.jets import Jet, JetMap
from holodyn.orbits import (
    DomainBall,
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


def test_double_sided_escape_mu():
    # x -> 2x on an annulus-avoiding seed cannot happen linearly; use an
    # affine-free product map instead: H escapes both ways off the axes
    h = presets.map_H()
    rec = iterate_orbit(h, (0.25, 0.25), DomainBall(0.3), budget=100_000)
    assert rec.status == "Escaped"
    assert rec.mu is not None and rec.mu > 0
    assert not rec.one_sided


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


# -- grid experiments ---------------------------------------------------------


def test_finite_orbit_grid_small():
    h = presets.map_H()
    V = DomainBall(0.3)
    seeds = lattice_seeds(0.3, 5, n_vars=2, low=0.05)
    summary = classify_seed_grid(h, V, seeds, budget=100_000)
    assert summary.counts["BudgetExhausted"] == 0
    assert summary.infinite_suspected == 0


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
