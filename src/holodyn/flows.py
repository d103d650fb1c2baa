"""Polynomial vector fields on (C^n, 0) and their time-t maps.

Two routes are provided and cross-check each other:

* :func:`formal_flow` computes the degree-N truncation of the flow map
  exactly, through the triangular coefficient recursion in the
  exponential-polynomial ring (requires a diagonal linear part).
* :func:`numeric_flow` integrates the field with an adaptive embedded
  Dormand-Prince 5(4) scheme along a complex-time polyline.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientTable, solve_coefficient_system
from .jets import Jet, JetMap, JetError

DIAG_TOL = 1e-13
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-10
DEFAULT_MAX_STEPS = 1_000_000
DEFAULT_ESCAPE_RADIUS = 10.0


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


class VectorField:
    """Polynomial field vanishing at the origin, with cached eigenvalue data.

    ``eigenvalues`` is populated iff the linear part is diagonal.
    """

    __slots__ = ("components", "eigenvalues")

    def __init__(self, components: Sequence[Jet]):
        comps = list(components)
        n = comps[0].n_vars
        if len(comps) != n:
            raise JetError("VectorField must have one component per variable")
        for c in comps:
            if c.n_vars != n or c.order != comps[0].order:
                raise JetError("components must share n_vars and order")
            if abs(complex(c.constant_term())) > DIAG_TOL:
                raise JetError("vector field must vanish at the origin")
        self.components = comps
        diag = []
        is_diag = True
        for i, c in enumerate(comps):
            for j in range(n):
                exp = tuple(1 if k == j else 0 for k in range(n))
                val = complex(c.coeff(exp))
                if i == j:
                    diag.append(val)
                elif abs(val) > DIAG_TOL:
                    is_diag = False
        self.eigenvalues = diag if is_diag else None

    @property
    def n_vars(self) -> int:
        return self.components[0].n_vars

    @property
    def order(self) -> int:
        return self.components[0].order

    def eval(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.components], dtype=complex)

    def extend(self, order: int) -> "VectorField":
        return VectorField([c.extend(order) for c in self.components])

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "components": [c.to_json_dict() for c in self.components],
            "eigenvalues": None
            if self.eigenvalues is None
            else [[l.real, l.imag] for l in self.eigenvalues],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "VectorField":
        return cls([Jet.from_json_dict(c) for c in d["components"]])

    def __repr__(self):
        return f"VectorField({self.components!r})"


def lie_derivative(X: VectorField, g: Jet) -> Jet:
    """X(g) = sum_i X_i * dg/dx_i, truncated at g's order."""
    if g.n_vars != X.n_vars:
        raise JetError("vector field and function have different n_vars")
    out = Jet.zero(g.n_vars, g.order)
    for i, comp in enumerate(X.components):
        out = out + comp.truncate(g.order).extend(g.order) * g.diff(i)
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


def integrate_ode(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    x0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    observer: Callable[[float, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Adaptive DP 5(4) over the real parameter interval [t0, t1].

    The state is a complex vector; the error norm is an RMS of the
    componentwise error scaled by atol + rtol*|x|.  Raises
    :class:`DomainEscape` when the max-norm exceeds ``escape_radius`` and
    :class:`StepUnderflow` when the controller stalls.
    """
    x = np.array(x0, dtype=complex)
    t = float(t0)
    t1 = float(t1)
    span = t1 - t0
    if span == 0:
        return x
    direction = 1.0 if span > 0 else -1.0
    h = direction * min(abs(span), 1e-2)
    h_min = abs(span) * 1e-14
    if observer is not None:
        observer(t, x)
    k = [None] * 7
    for _ in range(max_steps):
        if direction * (t + h - t1) > 0:
            h = t1 - t
        k[0] = f(t, x)
        for i in range(1, 7):
            xi = x + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = f(t + _DP_C[i] * h, xi)
        x5 = x + h * sum(b * ki for b, ki in zip(_DP_B5, k) if b)
        err = h * sum((b5 - b4) * ki for b5, b4, ki in zip(_DP_B5, _DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        err_norm = math.sqrt(float(np.mean(np.abs(err / scale) ** 2)))
        if err_norm <= 1.0:
            t = t + h
            x = x5
            if np.max(np.abs(x)) > escape_radius:
                raise DomainEscape(t, x, escape_radius)
            if observer is not None:
                observer(t, x)
            if direction * (t - t1) >= 0 or abs(t - t1) < h_min:
                return x
            factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
        else:
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h = h * factor
        if abs(h) < h_min:
            raise StepUnderflow(t, x)
    raise FlowError(f"integration did not finish within {max_steps} steps")


def numeric_flow(
    X: VectorField,
    p,
    path: Sequence[complex] | complex = 1.0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    observer: Callable[[complex, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Integrate dx/dt = X(x) along a complex-time polyline starting at 0.

    ``path`` is either the final time (straight segment from 0) or a list
    of waypoints starting at 0.
    """
    if isinstance(path, (int, float, complex)):
        waypoints = [0.0 + 0j, complex(path)]
    else:
        waypoints = [complex(z) for z in path]
    if abs(waypoints[0]) > 1e-15:
        raise FlowError("complex-time path must start at 0")
    x = np.array(p, dtype=complex)
    for za, zb in zip(waypoints, waypoints[1:]):
        dz = zb - za
        if dz == 0:
            continue

        def seg_rhs(s, y, dz=dz):
            return dz * X.eval(y)

        seg_obs = None
        if observer is not None:

            def seg_obs(s, y, za=za, dz=dz):
                observer(za + s * dz, y)

        x = integrate_ode(
            seg_rhs, 0.0, 1.0, x, rtol=rtol, atol=atol,
            escape_radius=escape_radius, observer=seg_obs,
        )
    return x


def first_integral_drift(
    X: VectorField,
    g: Jet,
    p,
    path: Sequence[complex] | complex = 1.0,
    expected=None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
) -> float:
    """Max over the trajectory of |g(x(t)) - g(p) * expected(t)|.

    ``expected`` is None for a true first integral, or an ExpPoly
    modulation for covariant integrals.
    """
    base = g.eval(p)
    worst = 0.0

    def watch(tz, x):
        nonlocal worst
        target = base if expected is None else base * expected.eval(tz)
        worst = max(worst, abs(g.eval(x) - target))

    numeric_flow(X, p, path, rtol=rtol, atol=atol,
                 escape_radius=escape_radius, observer=watch)
    return worst
