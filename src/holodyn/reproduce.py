"""One-shot reproduction suite: every headline computation as a named check.

Each check returns a :class:`CheckResult`; ``CHECKS`` names them in order
and :func:`render_report` renders a markdown pass/fail report.  The same
checks back the acceptance test suite.
"""
from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from . import presets
from .exppoly import ExpPoly, Frequency, TWO_PI_I
from .flows import formal_flow, flow_coefficient_table, first_integral_drift, lie_derivative
from .holonomy import (
    extract_normal_form,
    holonomy_cross_check,
    holonomy_numeric,
    monodromy_invariant_drift,
    holonomy_series,
    realize_as_holonomy,
)
from .jets import Jet
from .orbits import (
    DomainBall,
    group_closure,
    iterate_orbit,
    lattice_seeds,
    periodicity_test,
    pseudogroup_orbit,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


# -- 1: exact holonomy of the degree-4 Siegel example ------------------------


def check_holonomy_exact() -> CheckResult:
    F = presets.load_foliation("thmB")
    h, table = holonomy_series(F, 4)
    low = 0.0
    for comp in h.components:
        for exp, c in comp.terms():
            if 2 <= sum(exp) <= 3:
                low = max(low, abs(complex(c)))
    a31 = complex(h.components[0].coeff((3, 1)))
    b22 = complex(h.components[1].coeff((2, 2)))
    err = max(abs(a31 + TWO_PI_I), abs(b22 - TWO_PI_I))
    resid = table.ode_residual_max()
    passed = low < 1e-12 and err < 1e-10 and resid < 1e-12
    return CheckResult(
        "holonomy-exact",
        passed,
        f"deg-2/3 max |c| = {low:.2e}, a31(1) = {a31:.6f}, b22(1) = {b22:.6f}, "
        f"ODE residual {resid:.1e}",
    )


# -- 2: numeric monodromy oracle ---------------------------------------------


def check_holonomy_oracle() -> CheckResult:
    F = presets.load_foliation("thmB")
    h, _ = holonomy_series(F, 8)
    vals = np.linspace(0.01, 0.05, 5)
    rows = holonomy_cross_check(F, h, [(x, y) for x in vals for y in vals])
    worst = max(err for *_, err in rows)
    passed = worst < 1e-6
    return CheckResult(
        "holonomy-oracle",
        passed,
        f"max |series - numeric| over the 5x5 grid = {worst:.2e} (< 1e-6)",
    )


# -- 3: normal form of the degree-3 example ----------------------------------


def check_normal_form() -> CheckResult:
    F = presets.load_foliation("example3")
    h, _ = holonomy_series(F, 6)
    nf = extract_normal_form(h)
    mod_err = abs(abs(nf.f0) - 2 * math.pi)
    # numeric route: recover f(0) from one monodromy return, f0 ~ (x'/x - 1)/w
    p = (0.04, 0.05)
    numeric = holonomy_numeric(F, p)
    w = p[0] * p[1]
    f0_numeric = (numeric[0] / p[0] - 1.0) / w
    sign_ok = (
        abs(f0_numeric - nf.f0) < 0.05 * abs(nf.f0)
        and f0_numeric.imag * nf.f0.imag > 0
    )
    passed = nf.a == 1 and nf.b == 1 and mod_err < 1e-9 and sign_ok
    return CheckResult(
        "normal-form",
        bool(passed),
        f"(a, b) = ({nf.a}, {nf.b}), f(0) = {nf.f0:.6f}, ||f(0)| - 2pi| = {mod_err:.1e}, "
        f"numeric-route f(0) ~ {complex(f0_numeric):.4f} (sign agrees: {sign_ok})",
    )


# -- 4: product preservation and covariant law -------------------------------


def check_product_preservation() -> CheckResult:
    worst_exact = 0.0
    for name in ("example3", "thmB"):
        F = presets.load_foliation(name)
        h, _ = holonomy_series(F, 8)
        xy = Jet(2, 8, {(1, 1): 1.0 + 0j})
        worst_exact = max(worst_exact, xy.compose(h).max_abs_diff(xy))
    # covariant law along the numeric monodromy: xy(t) = x0 y0 e^(-4 pi i t)
    F3 = presets.load_foliation("example3")
    xy = Jet(2, 12, {(1, 1): 1.0 + 0j})
    expected = ExpPoly.exponential(Frequency(-2))
    drift = monodromy_invariant_drift(F3, xy, (0.04, 0.05), expected=expected)
    passed = worst_exact < 1e-13 and drift < 1e-8
    return CheckResult(
        "product-preservation",
        passed,
        f"coefficientwise defect of xy o h = {worst_exact:.1e}; "
        f"covariant drift |xy(t) - x0 y0 e^(-4 pi i t)| = {drift:.2e} (< 1e-8)",
    )


# -- 5: realization identity ---------------------------------------------------


def check_realization() -> CheckResult:
    worst = 0.0
    for name in ("genF", "genH", "genLinear"):
        Y = presets.load_field(name)
        F = realize_as_holonomy(Y)
        h, _ = holonomy_series(F, 6)
        flow = formal_flow(Y, 1.0, 6)
        worst = max(worst, h.max_abs_diff(flow))
    passed = worst < 1e-10
    return CheckResult(
        "realization",
        passed,
        f"max coefficientwise |holonomy - time-one flow| over generator presets = {worst:.2e}",
    )


# -- 6: linear model ----------------------------------------------------------


def check_linear_model() -> CheckResult:
    worst = 0.0
    for lambdas in ((1, -1, -2), (2, -1, -3)):
        F = presets.load_foliation("linear(%s)" % ",".join(str(v) for v in lambdas))
        h, _ = holonomy_series(F, 4)
        lam0 = lambdas[0]
        for j, lam in enumerate(lambdas[1:]):
            expect = cmath.exp(TWO_PI_I * lam / lam0)
            got = complex(h.components[j].coeff(tuple(1 if k == j else 0 for k in range(2))))
            worst = max(worst, abs(got - expect))
        for comp in h.components:
            for exp, c in comp.terms():
                if sum(exp) > 1:
                    worst = max(worst, abs(complex(c)))
    passed = worst < 1e-12
    return CheckResult(
        "linear-model",
        passed,
        f"max |holonomy - diag(e^(2 pi i lambda_j / lambda_axis))| = {worst:.2e}",
    )


# -- 7: finite-orbit experiment ------------------------------------------------


def check_finite_orbits() -> CheckResult:
    h = presets.map_H()
    V = DomainBall(0.3)
    seeds = lattice_seeds(0.3, 20, n_vars=2, low=0.05)
    counts = Counter(iterate_orbit(h, s, V).status for s in seeds)
    passed = counts["BudgetExhausted"] == 0 and len(seeds) == 400
    return CheckResult(
        "finite-orbits",
        passed,
        f"400-seed grid in ball 0.3: {counts['Escaped']} escaped, "
        f"{counts['Periodic']} periodic, {counts['BudgetExhausted']} budget-exhausted",
    )


# -- 8: infinite-orbit contrast -------------------------------------------------


def check_infinite_contrast() -> CheckResult:
    h = presets.map_F()
    [seed] = presets.level_circle_seeds(1)
    V = DomainBall(1.0)
    rec = iterate_orbit(h, seed, V, budget=20_000, keep_points=True)
    bounded = all(
        V.contains(p) for p in rec.forward_points + rec.backward_points
    )
    passed = rec.status == "BudgetExhausted" and bounded
    return CheckResult(
        "infinite-contrast",
        passed,
        f"level-set seed on |1 + 2 pi i C| = 1 (rotation number (sqrt5-1)/2): "
        f"status {rec.status}, {rec.cardinality} distinct points, bounded = {bounded}",
    )


# -- 9: pseudogroup -------------------------------------------------------------


BRUTE_FORCE_BUDGET = 5000


def brute_force_closure(matrices: List[np.ndarray]) -> int:
    """Independent dense closure oracle (no snapping machinery shared with
    group_closure): repeated pairwise products until saturation, or -1 past
    ``BRUTE_FORCE_BUDGET`` elements."""
    def key(M):
        flat = M.ravel()
        both = np.concatenate([flat.real, flat.imag])
        return tuple(np.round(both * 1e10).astype(np.int64).tolist())

    elems = {key(np.eye(matrices[0].shape[0], dtype=complex)): np.eye(
        matrices[0].shape[0], dtype=complex)}
    frontier = list(elems.values())
    while frontier:
        new = []
        for M in frontier:
            for G in matrices:
                P = G @ M
                k = key(P)
                if k not in elems:
                    if len(elems) >= BRUTE_FORCE_BUDGET:
                        return -1
                    elems[k] = P
                    new.append(P)
        frontier = new
    return len(elems)


def check_pseudogroup() -> CheckResult:
    h1, h2 = presets.pseudogroup_preset("h1h2")
    closure = group_closure([h1, h2])
    oracle = brute_force_closure(
        [np.array(h1.matrix, dtype=complex), np.array(h2.matrix, dtype=complex)]
    )
    V = DomainBall(1.0)
    card_ok = True
    worst_card = 0
    for seed in presets.pseudogroup_seeds(100, 1.0, 2):
        orb = pseudogroup_orbit([h1, h2], seed, V)
        worst_card = max(worst_card, orb.cardinality)
        if orb.cardinality > 24 or 24 % orb.cardinality != 0:
            card_ok = False
    period_H = periodicity_test(presets.map_H(), 200)
    passed = (
        closure.order == 24
        and oracle == 24
        and not closure.is_abelian
        and card_ok
        and period_H is None
    )
    pair = closure.non_commuting_pair
    return CheckResult(
        "pseudogroup",
        passed,
        f"closure order {closure.order} (oracle {oracle}), non-commuting generator pair "
        f"{pair}, 100 lattice orbits all of cardinality dividing 24 (max {worst_card}), "
        f"H-map periodicity up to 200: {period_H}",
    )


# -- 10: conservation ------------------------------------------------------------


def check_conservation() -> CheckResult:
    worst = 0.0
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        X = presets.load_field(f"example1({n},{m},{a},{b})")
        g = Jet(2, 8, {(n, m): 1.0 + 0j})
        drift = first_integral_drift(X, g, (0.1, 0.12))
        worst = max(worst, drift)
    X3 = presets.load_field("thmB")
    g3 = Jet(3, 8, {(1, 1, 2): 1.0 + 0j})
    lie = lie_derivative(X3, g3)
    lie_zero = lie.is_zero()
    passed = worst < 1e-8 and lie_zero
    return CheckResult(
        "conservation",
        passed,
        f"max |x^n y^m| drift along numeric flows = {worst:.2e} (< 1e-8); "
        f"symbolic derivative of x y z^2 along the degree-4 field vanishes: {lie_zero}",
    )


# -- 11: property sweep -----------------------------------------------------------


def _random_jet(rng: random.Random, n: int, order: int) -> Jet:
    """Up to eight random monomials of degree <= order."""
    coeffs = {}
    for _ in range(8):
        exp = [0] * n
        deg = rng.randrange(0, order + 1)
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        coeffs[tuple(exp)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Jet(n, order, coeffs)


def check_property_sweep() -> CheckResult:
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(10):
        a = _random_jet(rng, 2, 6)
        b = _random_jet(rng, 2, 6)
        c = _random_jet(rng, 2, 6)
        worst = max(worst, (a * b).max_abs_diff(b * a))
        worst = max(worst, ((a * b) * c).max_abs_diff(a * (b * c)))
        worst = max(worst, (a * (b + c)).max_abs_diff(a * b + a * c))
    # flow group law for the (1,1,1,1) conserved field
    X = presets.load_field("example1(1,1,1,1)")
    table = flow_coefficient_table(X, 6)
    fs, ft = table.at_time(0.3), table.at_time(0.7)
    group_err = table.at_time(1.0).max_abs_diff(fs.compose(ft))
    # exact ODE residual for the holonomy table of the degree-3 example
    _, tab = holonomy_series(presets.load_foliation("example3"), 6)
    resid = tab.ode_residual_max()
    passed = worst < 1e-12 and group_err < 1e-10 and resid < 1e-12
    return CheckResult(
        "property-sweep",
        passed,
        f"ring-law defect {worst:.1e}, flow group-law defect {group_err:.1e}, "
        f"holonomy ODE residual {resid:.1e}",
    )


CHECKS: Dict[str, Callable[[], CheckResult]] = {
    "holonomy-exact": check_holonomy_exact,
    "holonomy-oracle": check_holonomy_oracle,
    "normal-form": check_normal_form,
    "product-preservation": check_product_preservation,
    "realization": check_realization,
    "linear-model": check_linear_model,
    "finite-orbits": check_finite_orbits,
    "infinite-contrast": check_infinite_contrast,
    "pseudogroup": check_pseudogroup,
    "conservation": check_conservation,
    "property-sweep": check_property_sweep,
}


def render_report(results: List[CheckResult]) -> str:
    lines = ["# Reproduction report", ""]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed.")
    lines.append("")
    lines.append("| check | status | detail |")
    lines.append("|---|---|---|")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"| {r.name} | {status} | {r.detail} |")
    lines.append("")
    return "\n".join(lines)
