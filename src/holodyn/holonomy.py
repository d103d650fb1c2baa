"""Holonomy of a foliation with respect to an invariant coordinate axis.

The loop z = z0 * e^(2 pi i t), t in [0, 1], around the singular point is
lifted into the leaves; the return map on the transversal {z = z0} is the
holonomy.  It is computed by two independent routes:

* an exact coefficient recursion in the exponential-polynomial ring
  (:func:`holonomy_series`): substituting the loop into the leafwise
  equations and dividing by the axis unit on jets yields a truncated
  non-autonomous polynomial system in the transverse variables
  ("monodromy system"), whose series coefficients are solved in closed
  form.  It accepts a field exactly when the axis unit u(0, z) =
  X_axis(0, z)/z is constant and the linear part of the system is diagonal
  with loop frequency 0; neither condition depends on the order;
* adaptive numeric integration of the leafwise equations themselves over
  one period (:func:`holonomy_numeric`), with no truncation.  The exact
  route never integrates; the two share only the Foliation, its axis unit
  u(0, z) (:meth:`Foliation.axis_unit_on_axis`) and the check z0 != 0.

:func:`holonomy_numeric` is the one leafwise integration: the cross-check
calls it point by point, and :func:`monodromy_invariant_drift` watches it
through its observer.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .coefficients import CoefficientTable, solve_coefficient_system
from .exppoly import ExpPoly, TWO_PI_I
from .flows import VectorField, integrate_ode, observed_drift, series_vs_numeric
from .jets import Jet, JetError, JetMap, PRUNE_TOL, WRONG_DIMENSION, _binder, _integer

LINEAR_TOL = 1e-12
NORMAL_FORM_TOL = 1e-10


class HolonomyError(ValueError):
    pass


class BasePointUnderflow(ArithmeticError):
    """|z0|^m < PRUNE_TOL for a kept loop frequency m: its terms would be pruned."""


class AxisComponentVanishes(ArithmeticError):
    """X_axis is 0 on the leaf, so the leafwise equations are undefined there."""


@dataclass
class Foliation:
    """A polynomial foliation representative with a distinguished invariant axis."""

    field: VectorField
    separatrix_axis: int

    def __post_init__(self):
        n = self.field.n_vars
        axis = self.separatrix_axis
        if n < 2:
            raise HolonomyError(
                f"a foliation on C^{n} has no variable transverse to the axis; "
                f"the holonomy needs n >= 2"
            )
        if not 0 <= axis < n:
            raise HolonomyError(f"axis index {axis} out of range for n={n}")
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
        if abs(self.field.linear_part()[axis][axis]) < LINEAR_TOL:
            raise HolonomyError("axis eigenvalue must be nonzero")

    def axis_unit_on_axis(self) -> dict:
        """u(0, z) = X_axis(0, z) / z as {power of z: coefficient}."""
        axis = self.separatrix_axis
        return {exp[axis] - 1: complex(c)
                for exp, c in self.field.components[axis].coeffs.items()
                if sum(exp) == exp[axis]}

    @property
    def transverse_indices(self) -> List[int]:
        return [j for j in range((self.field.n_vars)) if j != self.separatrix_axis]

    @classmethod
    def from_json_dict(cls, d: dict) -> "Foliation":
        """``{"field": <JetMap dict>, "separatrix_axis": int}``, at the field's own order."""
        return cls(VectorField.from_json_dict(d["field"]),
                   _integer(d["separatrix_axis"], "separatrix_axis"))


@dataclass
class MonodromySystem:
    """dx_j/dt = sum_m e^(2 pi i m t) * J_{m,j}(x) on the transverse variables."""

    n_transverse: int
    terms: List[List[Tuple[int, Jet]]]  # per transverse component: (m, jet)

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_transverse, dtype=complex)
        for j, terms in enumerate(self.terms):
            acc = 0.0 + 0j
            for m, jet in terms:
                phase = cmath.exp(TWO_PI_I * m * t) if m else 1.0
                acc += phase * jet.eval(x)
            out[j] = acc
        return out


def build_monodromy_system(
    F: Foliation, order: int, z0: complex = 1.0 + 0j
) -> MonodromySystem:
    """Substitute z = z0*e^(2 pi i t) into the leafwise equations.

    dx_j/dt = 2 pi i * z * X_j / X_axis with X_axis = z*u is formed as
    X_j * u^{-1} on jets, keeping transverse degree <= ``order``; each
    z-power m becomes the loop frequency e^(2 pi i m t) * z0^m; a kept m with
    |z0|^m below ``PRUNE_TOL`` raises :class:`BasePointUnderflow`.

    The exact route accepts a field whatever the order when u(0, z) is
    constant and the linear part is diagonal with frequency 0 (checked by
    :func:`solve_coefficient_system`).  A unit with z-only terms is
    rejected: 1/u then has infinitely many loop frequencies.  Otherwise a
    kept term x^T z^m has m <= zmax + rho*(order - 1), with zmax the
    largest z-degree of the transverse components and rho the largest
    k/|T| over the terms x^T z^k of u - u(0), so one division at total
    degree order + zmax + floor(rho*(order - 1)) clips no kept term.
    """
    _check_base_point(z0)
    axis = F.separatrix_axis
    trans = F.transverse_indices
    unit_on_axis = F.axis_unit_on_axis()
    if len(unit_on_axis) > 1:
        poly = " + ".join(f"({c:.6g})*z^{k}" for k, c in sorted(unit_on_axis.items()))
        raise HolonomyError(
            f"the axis unit u(0, z) = {poly} is not constant: 1/u has infinitely "
            f"many loop frequencies, so no truncation of the monodromy system is exact"
        )
    axis_comp = F.field.components[axis]
    zmax = max(F.field.components[j].max_degree_in(axis) for j in trans)
    # floor(k*(order - 1)/|T|) for each term x^T z^(k+1) of X_axis with |T| > 0
    rho_steps = [(exp[axis] - 1) * (order - 1) // (sum(exp) - exp[axis])
                 for exp in axis_comp.coeffs if sum(exp) > exp[axis]]
    work_order = order + zmax + max(rho_steps, default=0)

    u_coeffs = {exp[:axis] + (exp[axis] - 1,) + exp[axis + 1:]: c
                for exp, c in axis_comp.truncate(work_order).coeffs.items()}
    u_inv = Jet._from_clean(F.field.n_vars, work_order, u_coeffs).reciprocal()

    terms: List[List[Tuple[int, Jet]]] = []
    for j in trans:
        numer = F.field.components[j].truncate(work_order) * u_inv * TWO_PI_I
        by_freq = {}
        for exp, c in numer.coeffs.items():
            t_exp = tuple(exp[k] for k in trans)
            if sum(t_exp) > order:
                continue
            m = exp[axis]
            scaled = c * z0 ** m if m else c
            bucket = by_freq.setdefault(m, {})
            bucket[t_exp] = bucket.get(t_exp, 0.0 + 0j) + scaled
        for m in by_freq:
            if abs(z0) ** m < PRUNE_TOL:
                raise BasePointUnderflow(f"|z0|^{m} = {abs(z0) ** m:.3g} at loop frequency "
                                         f"m = {m} is below PRUNE_TOL = {PRUNE_TOL:g}")
        rows = [(m, Jet._from_clean(len(trans), order, coeffs))
                for m, coeffs in sorted(by_freq.items())]
        terms.append([(m, jet) for m, jet in rows if not jet.is_zero()])
    return MonodromySystem(len(trans), terms)


def holonomy_series(
    F: Foliation, order: int, z0: complex = 1.0 + 0j
) -> Tuple[JetMap, CoefficientTable]:
    """Exact holonomy jet (values at t = 1) and the full coefficient table."""
    table = solve_coefficient_system(build_monodromy_system(F, order, z0=z0).terms, order)
    return table.at_time(1.0), table


def holonomy_numeric(
    F: Foliation,
    p,
    z0: complex = 1.0 + 0j,
    observer: Callable[[float, list], None] | None = None,
) -> np.ndarray:
    """Numeric holonomy: integrate the leaf through p over t in [0, 1].

    Independent oracle for :func:`holonomy_series`.  The leafwise equations
    dx_j/dt = 2 pi i * z * X_j(x, z) / X_axis(x, z) along z = z0*e^(2 pi i t)
    are integrated by :func:`integrate_ode`, with no monodromy system and no
    truncation; the exact route never calls the integrator.  Their
    right-hand side (:func:`_leafwise_rhs`) is compiled once per number of
    variables and axis: z, one call of the field's compiled evaluator and
    the scaling 2 pi i * z / X_axis.  This is the module's one leafwise
    integration: the drift check watches it through ``observer(t, x)``,
    which gets every accepted state.  Raises HolonomyError when the loop
    encloses or meets another singular point of the axis, DomainEscape when
    the leaf leaves the ball of radius ``flows.ESCAPE_RADIUS``, and
    :class:`AxisComponentVanishes` when X_axis is 0 at a point the
    integrator evaluates.
    """
    try:
        return integrate_ode(_leafwise_rhs(F, z0), p, observer=observer)
    except ZeroDivisionError:
        raise AxisComponentVanishes(
            f"the axis component X_{F.separatrix_axis} vanishes on the leaf through "
            f"{tuple(complex(v) for v in p)}: the leafwise equations divide by it") from None


def holonomy_cross_check(F: Foliation, h: JetMap, points, z0: complex = 1.0 + 0j):
    """The exact holonomy jet h against :func:`holonomy_numeric`, point by point."""
    return series_vs_numeric(h, lambda p: holonomy_numeric(F, p, z0=z0), points)


def monodromy_invariant_drift(
    F: Foliation,
    g: Jet,
    p,
    expected: ExpPoly | None = None,
    z0: complex = 1.0 + 0j,
) -> float:
    """Max over the loop of |g(x(t)) - g(p)*expected(t)| along the leaf through p."""
    return observed_drift(g, p, expected,
                          lambda watch: holonomy_numeric(F, p, z0=z0, observer=watch))


def _leafwise_rhs(F: Foliation, z0: complex):
    """dx_j/dt = 2 pi i * z * X_j / X_axis at z = z0*e^(2 pi i t): the
    :func:`_leafwise_source` function bound to the field's compiled evaluator."""
    _check_loop(F, z0)
    bind = _binder(_leafwise_source(F.field.n_vars, F.separatrix_axis))
    return bind(F.field.evaluator(), z0, TWO_PI_I, cmath.exp, JetError, WRONG_DIMENSION)


@functools.lru_cache(maxsize=128)
def _leafwise_source(n_vars: int, axis: int) -> str:
    """The source of the leafwise right-hand side ``rhs(t, [y0, ...])`` on a
    foliation of n_vars variables with this axis, f the field's evaluator
    and P = z0.  A point of the wrong size raises JetError, as f does."""
    ys = [f"y{i}" for i in range(n_vars - 1)]
    vs = [f"v{i}" for i in range(n_vars)]
    return f"""\
def bind(f, P, TWO_PI_I, exp, JetError, WRONG_DIMENSION):
    def rhs(t, x):
        try:
            [{", ".join(ys)}] = x
        except ValueError:
            raise JetError(WRONG_DIMENSION) from None
        z = P * exp(TWO_PI_I * t)
        [{", ".join(vs)}] = f(({", ".join(ys[:axis] + ["z"] + ys[axis:])},))
        w = TWO_PI_I * z / v{axis}
        return [{", ".join(f"w * {v}" for v in vs[:axis] + vs[axis + 1:])}]
    return rhs
"""


def _check_loop(F: Foliation, z0: complex):
    """The loop |z| = |z0| must not enclose or meet a zero of the axis unit
    u(0, z) = X_axis(0, z) / z: there the axis has another singular point,
    and the leaves' return map is not the holonomy at the origin."""
    _check_base_point(z0)
    unit = F.axis_unit_on_axis()
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


def _check_base_point(z0: complex):
    if z0 == 0:
        raise HolonomyError(
            "z0 = 0 puts the loop z = z0*e^(2 pi i t) on the singular point; "
            "the transversal needs z0 != 0"
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

    @property
    def f0(self) -> complex:
        return complex(self.f.coeff((0,)))


class NormalFormError(HolonomyError):
    pass


def normal_form_or_reason(h: JetMap) -> NormalForm | NormalFormError:
    """:func:`extract_normal_form` of h, or the NormalFormError saying why h has none."""
    try:
        return extract_normal_form(h)
    except NormalFormError as e:
        return e


def extract_normal_form(h: JetMap) -> NormalForm:
    """Fit the product-preserving normal form to a planar jet map.

    Requires h tangent to the identity up to ``NORMAL_FORM_TOL``, and
    preserving x*y through the truncation order: each coefficient of
    (x*y)(h) - x*y at most ``NORMAL_FORM_TOL`` times that of |x|*|y| composed
    with |h|, the composition run on magnitudes.  Raises NormalFormError
    otherwise or when no monomial pattern x^a y^b fits.  A non-linear
    coefficient of the first component counts as zero when its modulus is at
    most ``NORMAL_FORM_TOL`` times the largest one, so the fit does not
    depend on the scale the base point gives the jet.
    """
    if h.n_vars != 2:
        raise NormalFormError("normal form extraction needs a planar map")
    order = h.order
    ident = [[1, 0], [0, 1]]
    L = h.linear_part()
    if max(abs(L[i][j] - ident[i][j]) for i in range(2) for j in range(2)) > NORMAL_FORM_TOL:
        raise NormalFormError("map is not tangent to the identity")
    xy = Jet(2, order, {(1, 1): 1.0 + 0j})
    defect = (xy.compose(h) - xy).coeffs
    scale = xy.compose([Jet._from_clean(2, order, {e: abs(c) for e, c in comp.coeffs.items()})
                        for comp in h.components])
    if any(abs(c) > NORMAL_FORM_TOL * abs(scale.coeff(e)) for e, c in defect.items()):
        pres = max(map(abs, defect.values()))
        raise NormalFormError(f"map does not preserve x*y (defect {pres:.2e})")

    # u = h1/x - 1, supported on powers of a single monomial x^a y^b; the
    # tangency check above has settled the linear terms
    nonlinear = [(exp, c) for exp, c in h.components[0].terms() if sum(exp) >= 2]
    cut = NORMAL_FORM_TOL * max((abs(c) for _, c in nonlinear), default=0.0)
    v_terms = []
    for exp, c in nonlinear:
        if abs(c) <= cut:
            continue
        if exp[0] == 0:
            raise NormalFormError("first component is not divisible by x")
        v_terms.append(((exp[0] - 1, exp[1]), c))
    if not v_terms:
        return NormalForm(0, 0, Jet.zero(1, order))

    v_terms.sort(key=lambda item: (sum(item[0]), item[0]))
    (p0, q0), _ = v_terms[0]
    g = math.gcd(p0, q0)
    a, b = p0 // g, q0 // g
    f_coeffs = {}
    for (p, q), c in v_terms:
        k = p // a if a else q // b
        if (p, q) != (k * a, k * b) or k < 1:
            raise NormalFormError(f"monomial x^{p} y^{q} is not a power of x^{a} y^{b}")
        f_coeffs[(k - 1,)] = c
    return NormalForm(a, b, Jet._from_clean(1, order, f_coeffs))
