"""Holonomy and local-dynamics toolkit for singular holomorphic foliations."""

from .jets import Jet, JetMap, JetError, DEFAULT_ORDER
from .exppoly import ExpPoly, Frequency, solve_linear_ode, TWO_PI_I
from .coefficients import CoefficientTable, solve_coefficient_system
from .flows import (
    VectorField,
    FlowError,
    DomainEscape,
    StepUnderflow,
    MaxStepsExceeded,
    formal_flow,
    flow_coefficient_table,
    numeric_flow,
    integrate_ode,
    lie_derivative,
    first_integral_drift,
)
from .holonomy import (
    Foliation,
    MonodromySystem,
    HolonomyError,
    NormalForm,
    NormalFormError,
    build_monodromy_system,
    holonomy_series,
    holonomy_numeric,
    holonomy_cross_check,
    monodromy_invariant_drift,
    extract_normal_form,
    realize_as_holonomy,
)
from .orbits import (
    DomainBall,
    EvaluableMap,
    LinearMap,
    PermutationMap,
    ProductPreservingMap,
    OneVarParabolicMap,
    TimeOneMap,
    TruncatedJetMap,
    OrbitRecord,
    OrbitError,
    PseudogroupOrbit,
    GridSummary,
    GroupClosure,
    PetalReport,
    iterate_orbit,
    classify_seed_grid,
    lattice_seeds,
    pseudogroup_orbit,
    periodicity_test,
    group_closure,
    petal_analysis,
)
from . import presets

__version__ = "0.1.0"
