"""Polynomial vector fields on (C^n, 0) and their time-t maps.

Two routes are provided and cross-check each other:

* :func:`formal_flow` computes the degree-N truncation of the flow map
  exactly, through the triangular coefficient recursion in the
  exponential-polynomial ring (requires a diagonal linear part).
* :func:`numeric_flow` integrates the field with an adaptive embedded
  Dormand-Prince 5(4) scheme over one complex-time segment [0, t].
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientTable, solve_coefficient_system
from .jets import Jet, JetMap, JetError

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-10
MAX_STEPS = 100_000  # listed with the bound table in holodyn.presets
ESCAPE_RADIUS = 10.0


class FlowError(RuntimeError):
    pass


class DomainEscape(FlowError):
    def __init__(self, t, point, radius):
        super().__init__(f"trajectory left the domain (|x| > {radius}) at t={t}")
        self.t = t
        self.point = point


class StepUnderflow(FlowError):
    def __init__(self, t, point):
        super().__init__(f"step size underflow at t={t}; probable blow-up")
        self.t = t
        self.point = point


class MaxStepsExceeded(FlowError):
    """The integrator took ``MAX_STEPS`` steps without reaching s = 1."""


class VectorField(JetMap):
    """The right-hand side of dx/dt = X(x): a :class:`JetMap`, with cached eigenvalue data.

    ``eigenvalues`` is populated iff the linear part is diagonal.
    """

    __slots__ = ("eigenvalues",)

    def __init__(self, components: Sequence[Jet]):
        super().__init__(components)
        # the coefficient solver's rule: any stored off-diagonal linear
        # coefficient is non-diagonal (stored ones are >= PRUNE_TOL, others 0)
        L = self.linear_part()
        is_diag = all(v == 0 for i, row in enumerate(L) for j, v in enumerate(row) if i != j)
        self.eigenvalues = [row[i] for i, row in enumerate(L)] if is_diag else None

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            **super().to_json_dict(),
            "eigenvalues": None
            if self.eigenvalues is None
            else [[l.real, l.imag] for l in self.eigenvalues],
        }

    def __repr__(self):
        return f"VectorField({self.components!r})"


def lie_derivative(X: VectorField, g: Jet) -> Jet:
    """X(g) = sum_i X_i * dg/dx_i, truncated at g's order."""
    if g.n_vars != X.n_vars:
        raise JetError("vector field and function have different n_vars")
    out = Jet.zero(g.n_vars, g.order)
    for i, comp in enumerate(X.components):
        out = out + comp.truncate(g.order) * g.diff(i)
    return out


# -- formal flow -----------------------------------------------------------


def flow_coefficient_table(X: VectorField, order: int) -> CoefficientTable:
    """Exact series coefficients of the flow map of X (diagonal linear part)."""
    if X.eigenvalues is None:
        raise FlowError("formal flow requires a diagonal linear part")
    return solve_coefficient_system([[(0, comp)] for comp in X.components], order)


def formal_flow(X: VectorField, t: complex, order: int) -> JetMap:
    """Degree-``order`` truncation of the time-t map of X."""
    return flow_coefficient_table(X, order).at_time(t)


# -- numeric flow ----------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# first same as last: _DP_A[6] == _DP_B5[:6] and _DP_C[6] == 1, so the
# seventh stage is f at the 5th-order solution x5 at time s + h


def integrate_ode(
    f: Callable[[float, list], Sequence[complex]],
    x0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    observer: Callable[[float, list], None] | None = None,
) -> np.ndarray:
    """Adaptive DP 5(4) over the real parameter interval s in [0, 1].

    ``f(s, x)`` gets the state as a list of complex and returns a sequence
    of complex (a list, or an ndarray).  ``observer(s, x)``, if given, gets
    the start and every accepted state, each a fresh list of complex.  The
    pair is first same as last: the seventh stage of a step is f at the
    5th-order solution, so an accepted step hands it on as the next step's
    first stage and a rejected step keeps its own; each step costs six
    calls of f, one integration 1 + 6 * (accepted + rejected).

    The error norm is an RMS of the componentwise error scaled by
    atol + rtol*|x|.  Returns the end state as a complex ndarray.  Raises
    :class:`DomainEscape` when the max-norm exceeds ``ESCAPE_RADIUS`` and
    :class:`StepUnderflow` when the step falls below 1e-14; their ``point``
    is an ndarray.  Raises :class:`MaxStepsExceeded` after ``MAX_STEPS``
    steps.  Both bounds are read at call time.
    """
    t = 0.0
    x = np.asarray(x0, dtype=complex).tolist()
    n = len(x)
    h = 1e-2
    if observer is not None:
        observer(t, x)
    _, c2, c3, c4, c5, _, _ = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A[1:6]
    b1, _, b3, b4, b5, b6, _ = _DP_B5
    e1, _, e3, e4, e5, e6, e7 = (p - q for p, q in zip(_DP_B5, _DP_B4))
    k1 = f(t, x)
    for _ in range(MAX_STEPS):
        if t + h > 1.0:
            h = 1.0 - t
        k2 = f(t + c2 * h, [xc + h * (a21 * p) for xc, p in zip(x, k1)])
        k3 = f(t + c3 * h, [xc + h * (a31 * p + a32 * q) for xc, p, q in zip(x, k1, k2)])
        k4 = f(t + c4 * h, [xc + h * (a41 * p + a42 * q + a43 * r)
                            for xc, p, q, r in zip(x, k1, k2, k3)])
        k5 = f(t + c5 * h, [xc + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                            for xc, p, q, r, s in zip(x, k1, k2, k3, k4)])
        k6 = f(t + h, [xc + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
                       for xc, p, q, r, s, u in zip(x, k1, k2, k3, k4, k5)])
        x5 = [xc + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * v)
              for xc, p, r, s, u, v in zip(x, k1, k3, k4, k5, k6)]
        k7 = f(t + h, x5)
        total = 0.0
        for xc, yc, p, r, s, u, v, w in zip(x, x5, k1, k3, k4, k5, k6, k7):
            err = h * (e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w)
            q = abs(err) / (atol + rtol * max(abs(xc), abs(yc)))
            total += q * q
        err_norm = math.sqrt(total / n)
        if err_norm <= 1.0:
            t = t + h
            x = x5
            k1 = k7
            if max(abs(v) for v in x) > ESCAPE_RADIUS:
                raise DomainEscape(t, np.array(x, dtype=complex), ESCAPE_RADIUS)
            if observer is not None:
                observer(t, x)
            if t >= 1.0 or 1.0 - t < 1e-14:
                return np.array(x, dtype=complex)
            factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
        else:
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h = h * factor
        if h < 1e-14:
            raise StepUnderflow(t, np.array(x, dtype=complex))
    raise MaxStepsExceeded(f"integration did not finish within {MAX_STEPS} steps")


def numeric_flow(
    X: VectorField,
    p,
    t: complex = 1.0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    observer: Callable[[complex, list], None] | None = None,
) -> np.ndarray:
    """Integrate dx/dt = X(x) over the complex-time segment [0, t].

    The segment is integrated as dx/ds = t * X(x), s in [0, 1], and
    ``observer(s * t, x)`` gets the start and every accepted state.  t = 0
    returns p.  Raises DomainEscape when the trajectory leaves the ball of
    radius ``ESCAPE_RADIUS`` and StepUnderflow when the step underflows,
    each at the time s * t of the failure (a float when t is real).
    """
    t = complex(t)
    if t == 0:
        return np.array(p, dtype=complex)

    def rhs(s, y):
        return [t * v for v in X.eval(y)]

    watch = None if observer is None else lambda s, y: observer(s * t, y)
    span = t.real if t.imag == 0 else t
    try:
        return integrate_ode(rhs, p, rtol=rtol, atol=atol, observer=watch)
    except DomainEscape as e:
        raise DomainEscape(e.t * span, e.point, ESCAPE_RADIUS) from None
    except StepUnderflow as e:
        raise StepUnderflow(e.t * span, e.point) from None


def series_vs_numeric(jmap: JetMap, numeric: Callable, points):
    """One (point, series, numeric, abs_error) row per point: the jet map's
    value against ``numeric(point)``, the error their max-norm distance."""
    rows = []
    for p in points:
        series, value = np.array(jmap.eval(p), dtype=complex), numeric(p)
        rows.append((p, series, value, float(np.max(np.abs(series - value)))))
    return rows


def flow_cross_check(X: VectorField, fmap: JetMap, points, t: complex = 1.0):
    """The time-t map jet ``fmap`` of X against :func:`numeric_flow`, point by point."""
    return series_vs_numeric(fmap, lambda p: numeric_flow(X, p, t), points)


def first_integral_drift(X: VectorField, g: Jet, p) -> float:
    """Max of |g(x(t)) - g(p)| over the time-one trajectory of X from p."""
    return observed_drift(g, p, None, lambda watch: numeric_flow(X, p, observer=watch))


def observed_drift(g: Jet, p, expected, integrate: Callable) -> float:
    """Max of |g(x) - g(p) * expected(t)| over the states (t, x) that
    ``integrate(observer)`` reports while it integrates from p."""
    base = g.eval(p)
    worst = 0.0

    def watch(t, x):
        nonlocal worst
        target = base if expected is None else base * expected.eval(t)
        worst = max(worst, abs(g.eval(x) - target))

    integrate(watch)
    return worst
