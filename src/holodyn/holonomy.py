"""Holonomy of a foliation with respect to an invariant coordinate axis.

The loop z = z0 * e^(2 pi i t), t in [0, 1], around the singular point is
lifted into the leaves; the return map on the transversal {z = z0} is the
holonomy.  It is computed by two independent routes:

* an exact coefficient recursion in the exponential-polynomial ring
  (:func:`holonomy_series`): substituting the loop into the leafwise
  equations and dividing by the axis unit on jets yields a truncated
  non-autonomous polynomial system in the transverse variables
  ("monodromy system"), whose series coefficients are solved in closed
  form;
* adaptive numeric integration of the leafwise equations themselves over
  one period (:func:`holonomy_numeric`), with no truncation.  It shares
  only the integrator with the exact route.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .coefficients import CoefficientTable, solve_coefficient_system
from .exppoly import ExpPoly, TWO_PI_I
from .flows import VectorField, integrate_ode, DEFAULT_RTOL, DEFAULT_ATOL
from .jets import Jet, JetMap, JetError

LINEAR_TOL = 1e-12
NORMAL_FORM_TOL = 1e-10


class HolonomyError(ValueError):
    pass


@dataclass
class Foliation:
    """A polynomial foliation representative with a distinguished invariant axis."""

    field: VectorField
    separatrix_axis: int
    transversal_radius: float = 0.1

    def __post_init__(self):
        n = self.field.n_vars
        axis = self.separatrix_axis
        if not 0 <= axis < n:
            raise HolonomyError(f"axis index {axis} out of range for n={n}")
        if self.transversal_radius <= 0:
            raise HolonomyError("transversal_radius must be positive")
        # axis invariance: every transverse component must vanish on the axis,
        # i.e. each of its monomials contains a transverse variable
        for j, comp in enumerate(self.field.components):
            if j == axis:
                continue
            for exp, c in comp.terms():
                if all(exp[k] == 0 for k in range(n) if k != axis):
                    raise HolonomyError(
                        f"axis is not invariant: component {j} contains "
                        f"the axis-only monomial {exp}"
                    )
        # the axis component must be z * unit with a nonzero eigenvalue
        axis_comp = self.field.components[axis]
        for exp, c in axis_comp.terms():
            if exp[axis] == 0:
                raise HolonomyError(
                    "axis component must be divisible by the axis coordinate"
                )
        if abs(self.axis_eigenvalue()) < LINEAR_TOL:
            raise HolonomyError("axis eigenvalue must be nonzero")

    def axis_eigenvalue(self) -> complex:
        n = self.field.n_vars
        exp = tuple(1 if k == self.separatrix_axis else 0 for k in range(n))
        return complex(self.field.components[self.separatrix_axis].coeff(exp))

    @property
    def transverse_indices(self) -> List[int]:
        return [j for j in range((self.field.n_vars)) if j != self.separatrix_axis]


@dataclass
class MonodromySystem:
    """dx_j/dt = sum_m e^(2 pi i m t) * J_{m,j}(x) on the transverse variables."""

    n_transverse: int
    order: int
    terms: List[List[Tuple[int, Jet]]]  # per transverse component: (m, jet)
    z0: complex = 1.0 + 0j
    period: float = 1.0

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_transverse, dtype=complex)
        for j, terms in enumerate(self.terms):
            acc = 0.0 + 0j
            for m, jet in terms:
                phase = cmath.exp(TWO_PI_I * m * t) if m else 1.0
                acc += phase * jet.eval(x)
            out[j] = acc
        return out

    def linear_diagonal(self) -> List[complex]:
        """Diagonal of the frequency-0 linear part; raises if the degree-1
        structure is not triangularizable (non-diagonal or oscillating)."""
        n = self.n_transverse
        diag = [0.0 + 0j] * n
        for j, terms in enumerate(self.terms):
            for m, jet in terms:
                for exp, c in jet.terms():
                    if sum(exp) != 1:
                        continue
                    if m != 0:
                        raise HolonomyError(
                            "degree-1 term with nonzero loop frequency; "
                            "coefficient recursion is not triangular"
                        )
                    k = exp.index(1)
                    if k == j:
                        diag[j] = complex(c)
                    else:
                        raise HolonomyError(
                            "non-diagonal linear part in the monodromy system"
                        )
        return diag

    def nonlinear_terms(self) -> List[List[Tuple[int, Jet]]]:
        out = []
        for terms in self.terms:
            rows = []
            for m, jet in terms:
                kept = {e: c for e, c in jet.coeffs.items() if sum(e) >= 2}
                jet2 = Jet(jet.n_vars, jet.order, kept)
                if not jet2.is_zero():
                    rows.append((m, jet2))
            out.append(rows)
        return out


def build_monodromy_system(
    F: Foliation, order: int, z0: complex = 1.0 + 0j
) -> MonodromySystem:
    """Substitute z = z0*e^(2 pi i t) into the leafwise equations.

    dx_j/dt = 2 pi i * z * A_j / C with C = z*u; the division is carried
    out as A_j * u^{-1} on jets, and each z-power k becomes the loop
    frequency e^(2 pi i k t) * z0^k.
    """
    n = F.field.n_vars
    axis = F.separatrix_axis
    zmax = max(c.max_degree_in(axis) for c in F.field.components)
    work_order = order + max(zmax, 1)

    axis_comp = F.field.components[axis].extend(work_order)
    # u = C / z (exact shift; divisibility was checked by the Foliation)
    u_coeffs = {}
    for exp, c in axis_comp.coeffs.items():
        e = list(exp)
        e[axis] -= 1
        u_coeffs[tuple(e)] = c
    u = Jet(n, work_order, u_coeffs)
    u_inv = u.reciprocal()

    trans = F.transverse_indices
    unit_constant = all(sum(e) == 0 for e in u.coeffs)

    terms: List[List[Tuple[int, Jet]]] = []
    for j in trans:
        numer = F.field.components[j].extend(work_order) * u_inv * TWO_PI_I
        if not unit_constant:
            # truncation of u^{-1} must not clip the transverse-degree <= order part
            check = (
                F.field.components[j].extend(work_order + 1)
                * u.extend(work_order + 1).reciprocal()
                * TWO_PI_I
            )
            _check_division_stable(numer, check, trans, order, axis)
        by_freq = {}
        for exp, c in numer.coeffs.items():
            t_exp = tuple(exp[k] for k in trans)
            if sum(t_exp) > order:
                continue
            m = exp[axis]
            scaled = c * z0 ** m if m else c
            bucket = by_freq.setdefault(m, {})
            bucket[t_exp] = bucket.get(t_exp, 0.0 + 0j) + scaled
        rows = [
            (m, Jet(len(trans), order, coeffs)) for m, coeffs in sorted(by_freq.items())
        ]
        terms.append([(m, jet) for m, jet in rows if not jet.is_zero()])
    return MonodromySystem(len(trans), order, terms, z0=complex(z0))


def _check_division_stable(numer: Jet, check: Jet, trans, order: int, axis: int):
    for exp, c in check.coeffs.items():
        if sum(exp[k] for k in trans) > order:
            continue
        if abs(numer.coeffs.get(exp, 0.0 + 0j) - c) > 1e-10:
            raise HolonomyError(
                "division by the axis unit does not stabilize under truncation; "
                "the monodromy system is not polynomial-after-truncation"
            )


def holonomy_coefficient_table(
    F: Foliation, order: int, z0: complex = 1.0 + 0j
) -> CoefficientTable:
    system = build_monodromy_system(F, order, z0=z0)
    diag = system.linear_diagonal()
    return solve_coefficient_system(diag, system.nonlinear_terms(), order)


def holonomy_series(
    F: Foliation, order: int, z0: complex = 1.0 + 0j
) -> Tuple[JetMap, CoefficientTable]:
    """Exact holonomy jet (values at t = 1) and the full coefficient table."""
    table = holonomy_coefficient_table(F, order, z0=z0)
    return table.at_time(1.0), table


def holonomy_numeric(
    F: Foliation,
    p,
    z0: complex = 1.0 + 0j,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    escape_radius: float = 10.0,
) -> np.ndarray:
    """Numeric holonomy: integrate the leaf through p over t in [0, 1].

    Independent oracle for :func:`holonomy_series`.  The leafwise equations
    dx_j/dt = 2 pi i * z * X_j(x, z) / X_axis(x, z) along z = z0*e^(2 pi i t)
    are integrated as they stand, with no monodromy system and no
    truncation; the only code shared with the exact route is the
    integrator.  Raises HolonomyError when the loop encloses or meets
    another singular point of the axis, and DomainEscape when the leaf
    leaves the integration domain.
    """
    return integrate_ode(
        _leafwise_rhs(F, z0), 0.0, 1.0, np.array(p, dtype=complex),
        rtol=rtol, atol=atol, escape_radius=escape_radius,
    )


def monodromy_invariant_drift(
    F: Foliation,
    g: Jet,
    p,
    expected: ExpPoly | None = None,
    z0: complex = 1.0 + 0j,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> float:
    """Max over the loop of |g(x(t)) - g(p)*expected(t)| along the leaf through p."""
    base = g.eval(p)
    worst = 0.0

    def watch(t, x):
        nonlocal worst
        target = base if expected is None else base * expected.eval(t)
        worst = max(worst, abs(g.eval(x) - target))

    integrate_ode(
        _leafwise_rhs(F, z0), 0.0, 1.0, np.array(p, dtype=complex),
        rtol=rtol, atol=atol, escape_radius=10.0, observer=watch,
    )
    return worst


def _leafwise_rhs(F: Foliation, z0: complex):
    """dx_j/dt = 2 pi i * z * X_j / X_axis at z = z0*e^(2 pi i t)."""
    _check_loop(F, z0)
    axis = F.separatrix_axis
    axis_comp = F.field.components[axis]
    trans_comps = [F.field.components[j] for j in F.transverse_indices]

    def rhs(t, x):
        z = z0 * cmath.exp(TWO_PI_I * t)
        point = x.tolist()
        point.insert(axis, z)
        scale = TWO_PI_I * z / axis_comp.eval(point)
        return np.array([scale * comp.eval(point) for comp in trans_comps], dtype=complex)

    return rhs


def _check_loop(F: Foliation, z0: complex):
    """The loop |z| = |z0| must not enclose or meet a zero of the axis unit
    u(0, z) = X_axis(0, z) / z: there the axis has another singular point,
    and the leaves' return map is not the holonomy at the origin."""
    axis = F.separatrix_axis
    unit = {exp[axis] - 1: complex(c) for exp, c in F.field.components[axis].coeffs.items()
            if sum(exp) == exp[axis]}
    top = max(unit)
    if top == 0:
        return
    for root in np.roots([unit.get(k, 0j) for k in range(top, -1, -1)]):
        if abs(root) <= abs(z0):
            raise HolonomyError(
                f"the axis unit u(0, z) vanishes at z = {complex(root):.6g}, on or "
                f"inside the loop |z| = {abs(z0):.6g}: the loop encircles another "
                f"singular point of the axis"
            )


def realize_as_holonomy(Y: VectorField) -> Foliation:
    """Lift a planar field Y to Y + 2 pi i z d/dz on (C^3, 0); the holonomy
    of the z-axis is then the time-one map of Y."""
    if Y.n_vars != 2:
        raise HolonomyError("realization expects a planar vector field")
    order = Y.order
    comps3 = []
    for c in Y.components:
        coeffs = {(e[0], e[1], 0): v for e, v in c.coeffs.items()}
        comps3.append(Jet(3, order, coeffs))
    comps3.append(Jet(3, order, {(0, 0, 1): TWO_PI_I}))
    return Foliation(VectorField(comps3), separatrix_axis=2)


@dataclass
class NormalForm:
    """h(x, y) = (x*(1 + w f(w)), y*(1 + w f(w))^{-1}) with w = x^a y^b."""

    a: int
    b: int
    f: Jet  # one-variable jet in w
    residual: float

    @property
    def f0(self) -> complex:
        return complex(self.f.coeff((0,)))


class NormalFormError(HolonomyError):
    pass


def extract_normal_form(h: JetMap, tol: float = NORMAL_FORM_TOL) -> NormalForm:
    """Fit the product-preserving normal form to a planar jet map.

    Requires h tangent to the identity and preserving x*y through the
    truncation order; raises NormalFormError otherwise or when no
    monomial pattern x^a y^b fits.
    """
    if h.n_vars != 2:
        raise NormalFormError("normal form extraction needs a planar map")
    order = h.order
    ident = [[1, 0], [0, 1]]
    L = h.linear_part()
    if max(abs(L[i][j] - ident[i][j]) for i in range(2) for j in range(2)) > tol:
        raise NormalFormError("map is not tangent to the identity")
    xy = Jet(2, order, {(1, 1): 1.0 + 0j})
    pres = xy.compose(h).max_abs_diff(xy)
    if pres > tol:
        raise NormalFormError(f"map does not preserve x*y (defect {pres:.2e})")

    # u = h1/x - 1, supported on powers of a single monomial x^a y^b
    v_terms = []
    for exp, c in h.components[0].terms():
        if abs(c) <= tol and exp != (1, 0):
            continue
        if exp[0] == 0:
            raise NormalFormError("first component is not divisible by x")
        shifted = (exp[0] - 1, exp[1])
        if shifted == (0, 0):
            continue  # the leading x itself
        v_terms.append((shifted, c))
    if not v_terms:
        return NormalForm(0, 0, Jet.zero(1, order), 0.0)

    v_terms.sort(key=lambda item: (sum(item[0]), item[0]))
    (p0, q0), _ = v_terms[0]
    g = math.gcd(p0, q0)
    a, b = p0 // g, q0 // g
    f_coeffs = {}
    for (p, q), c in v_terms:
        if p * b != q * a:
            raise NormalFormError(
                f"monomial x^{p} y^{q} is not a power of x^{a} y^{b}"
            )
        k = p // a if a else q // b
        if (a and p != k * a) or (b and q != k * b) or k < 1:
            raise NormalFormError(
                f"monomial x^{p} y^{q} is not a power of x^{a} y^{b}"
            )
        f_coeffs[(k - 1,)] = c
    f = Jet(1, order, f_coeffs)
    return NormalForm(a, b, f, residual=pres)
