"""Polynomial vector fields on (C^n, 0) and their time-t maps.

Two routes are provided and cross-check each other:

* :func:`formal_flow` computes the degree-N truncation of the flow map
  exactly, through the triangular coefficient recursion in the
  exponential-polynomial ring (requires a diagonal linear part).
* :func:`numeric_flow` integrates the field with an adaptive embedded
  Dormand-Prince 5(4) scheme over one complex-time segment [0, t].
"""
from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .coefficients import CoefficientTable, solve_coefficient_system
from .exppoly import TWO_PI_I
from .jets import Jet, JetMap, JetError, _binder

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


_DP54_TEMPLATE = """\
def bind({names}):
    def integrate(f, P, x, rtol, atol, observer, max_steps, radius):
        [{x}] = x
        t = 0.0
        h = 1e-2
        if observer is not None:
            observer(t, x)
        {first}
        for _ in range(max_steps):
            if t + h > 1.0:
                h = 1.0 - t
            {stages}
            err_norm = sqrt(total / {n})
            if err_norm <= 1.0:
                t = t + h
                {accept}
                if {size} > radius:
                    raise DomainEscape(t, array([{x}], dtype=complex), radius)
                if observer is not None:
                    observer(t, [{x}])
                if t >= 1.0 or 1.0 - t < 1e-14:
                    return array([{x}], dtype=complex)
                factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
            else:
                factor = max(0.2, 0.9 * err_norm ** -0.2)
            h = h * factor
            if h < 1e-14:
                raise StepUnderflow(t, array([{x}], dtype=complex))
        raise MaxStepsExceeded(f"integration did not finish within {{max_steps}} steps")
    return integrate
"""
# the names the generated integrator is bound to: the nonzero tableau
# entries a<i><j>, b<j> (5th order), e<j> (5th minus 4th order) and c<i>
_DP_NAMES = {
    **{f"a{i + 1}{j + 1}": a for i, row in enumerate(_DP_A[:6]) for j, a in enumerate(row)},
    **{f"b{j + 1}": b for j, b in enumerate(_DP_B5) if b},
    **{f"e{j + 1}": b - c for j, (b, c) in enumerate(zip(_DP_B5, _DP_B4)) if b - c},
    **{f"c{i}": _DP_C[i - 1] for i in range(2, 6)},
    "TWO_PI_I": TWO_PI_I, "exp": cmath.exp, "sqrt": math.sqrt, "array": np.array,
    "DomainEscape": DomainEscape, "StepUnderflow": StepUnderflow,
    "MaxStepsExceeded": MaxStepsExceeded,
}
TERMS_PER_LINE = 100  # of the error norm's sum, in the code _dp54_source generates


class InlineStep(NamedTuple):
    """How :func:`integrate_ode` writes a right-hand side out inline.

    ``stage`` is one DP5(4) stage as a :meth:`str.format` template:
    statements, one a line, that set the slopes ``{k[0]}``, ``{k[1]}``, ...
    from the state ``{y[0]}``, ``{y[1]}``, ... at the time ``{time}``.  They
    may call ``f``, read ``P`` and use the integrator's ``TWO_PI_I`` and
    ``exp``; any other name they set starts with v, w or z, which the
    integrator leaves free.  A right-hand side carries one as its
    ``inline`` attribute, and ``stage`` does what its own body does, float
    operation by float operation.  A ``stage`` of None calls
    ``f(s, [y0, ...])`` as it stands.
    """

    size: int  # the number of state components ``stage`` is written for
    stage: str | None
    f: Callable
    P: object


def _dp54_source(n: int, stage: str | None) -> str:
    """The source of one DP5(4) integrator for a state of n components.

    Each stage sets its slopes from the :class:`InlineStep` template
    ``stage``, or, when it is None, by the call
    ``[k<k>_0, ...] = f(s, [y0, ...])`` of any right-hand side f.  Every
    state component and stage slope is its own local name, and each float
    operation is the one the loop over components did, in the same order
    on the same operands.
    """
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    rows = {k: [(f"a{k}{j}", j) for j in range(1, k)] for k in range(2, 7)}
    rows[7] = [(f"b{j}", j) for j in range(1, 8) if f"b{j}" in _DP_NAMES]
    error = [(f"e{j}", j) for j in range(1, 8) if f"e{j}" in _DP_NAMES]

    def slopes(k, time, args):
        ks = [f"k{k}_{i}" for i in range(n)]
        if stage is None:
            return [f"[{', '.join(ks)}] = f({time}, [{', '.join(args)}])"]
        return stage.format(time=time, y=args, k=ks).splitlines()

    def combination(row, i):
        return " + ".join(f"{name} * k{j}_{i}" for name, j in row)

    body = []
    for k in range(2, 8):  # stage 7 is at the 5th-order solution y
        body += [f"y{i} = x{i} + h * ({combination(rows[k], i)})" for i in range(n)]
        body += slopes(k, f"t + c{k} * h" if k < 6 else "t + h", ys)
    body += [f"q{i} = abs(h * ({combination(error, i)})) / "
             f"(atol + rtol * max(abs(x{i}), abs(y{i})))" for i in range(n)]
    squares = [f"q{i} * q{i}" for i in range(n)]
    body.append(" + ".join(["total = 0.0"] + squares[:TERMS_PER_LINE]))
    body += [" + ".join(["total = total"] + squares[at:at + TERMS_PER_LINE])
             for at in range(TERMS_PER_LINE, n, TERMS_PER_LINE)]
    accept = [f"x{i} = y{i}" for i in range(n)] + [f"k1_{i} = k7_{i}" for i in range(n)]
    return _DP54_TEMPLATE.format(
        names=", ".join(_DP_NAMES), x=", ".join(xs), n=n,
        first="\n        ".join(slopes(1, "t", xs)),
        stages="\n            ".join(body),
        accept="\n                ".join(accept),
        size=f"max({', '.join(f'abs({x})' for x in xs)})" if n != 1 else "abs(x0)")


@functools.lru_cache(maxsize=128)
def _dp54(n: int, stage: str | None):
    """The integrator of :func:`_dp54_source`, compiled once per shape."""
    return _binder(_dp54_source(n, stage))(**_DP_NAMES)


def integrate_ode(
    f: Callable[[float, list], Sequence[complex]],
    x0,
    atol: float = DEFAULT_ATOL,
    observer: Callable[[float, list], None] | None = None,
) -> np.ndarray:
    """Adaptive DP 5(4) over the real parameter interval s in [0, 1].

    ``f(s, x)`` gets the state as a list of complex and returns a sequence
    of as many complex (a list, or an ndarray); another count raises
    ValueError.  ``observer(s, x)``, if
    given, gets the start and every accepted state, each a fresh list of
    complex.  The pair is first same as last: the seventh stage of a step
    is f at the 5th-order solution, so an accepted step hands it on as the
    next step's first stage and a rejected step keeps its own; each step
    costs six calls of f, one integration 1 + 6 * (accepted + rejected).

    The step is generated code, one integrator per state size and stage
    (:func:`_dp54_source`), compiled on first use.  An f whose ``inline``
    attribute is an :class:`InlineStep` for a state of this size has its
    stage written out inline, as the leafwise equations of
    :func:`holodyn.holonomy.holonomy_numeric` do; any other f, a wrapped
    one included, is called as it stands.  Both do the float operations of
    the one loop over components, in its order, so inlining changes no bit
    of a result or a failure.

    The error norm is an RMS of the componentwise error scaled by
    atol + rtol*|x|.  Returns the end state as a complex ndarray.  Raises
    :class:`DomainEscape` when the max-norm exceeds ``ESCAPE_RADIUS`` and
    :class:`StepUnderflow` when the step falls below 1e-14; their ``point``
    is an ndarray.  Raises :class:`MaxStepsExceeded` after ``MAX_STEPS``
    steps.  rtol is ``DEFAULT_RTOL``, read at call time as both bounds are.
    """
    x = np.asarray(x0, dtype=complex).tolist()
    n = len(x)
    step = getattr(f, "inline", None)
    if not isinstance(step, InlineStep) or step.size != n:
        step = InlineStep(n, None, f, None)
    return _dp54(n, step.stage)(step.f, step.P, x, DEFAULT_RTOL, atol, observer,
                                MAX_STEPS, ESCAPE_RADIUS)


def numeric_flow(
    X: VectorField,
    p,
    t: complex = 1.0,
    atol: float = DEFAULT_ATOL,
    observer: Callable[[complex, list], None] | None = None,
) -> np.ndarray:
    """Integrate dx/dt = X(x) over the complex-time segment [0, t].

    The segment is integrated as dx/ds = t * X(x), s in [0, 1], and
    ``observer(s * t, x)`` gets the start and every accepted state; the
    error norm's rtol is ``DEFAULT_RTOL``.  t = 0 returns p.  Raises
    DomainEscape when the trajectory leaves the ball of radius
    ``ESCAPE_RADIUS`` and StepUnderflow when the step underflows, each at
    the time s * t of the failure (a float when t is real).
    """
    t = complex(t)
    if t == 0:
        return np.array(p, dtype=complex)

    def rhs(s, y):
        return [t * v for v in X.eval(y)]

    watch = None if observer is None else lambda s, y: observer(s * t, y)
    span = t.real if t.imag == 0 else t
    try:
        return integrate_ode(rhs, p, atol=atol, observer=watch)
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
