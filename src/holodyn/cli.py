"""Command-line front end.

Exit codes: 0 success, 1 reproduction-check failure, 2 bad configuration
(unknown preset, malformed JSON, invalid parameters), 3 numeric failure
(integrator blow-up / escape); FAILURES sends each library failure to 2 or 3.

All emitted files embed the resolved configuration: JSON outputs carry a
"config" field, CSV and SVG outputs a leading comment block.  Grids are
deterministic lattices unless --random-seeds is given (seeded by --seed:
NumPy default_rng, PCG64).
"""
from __future__ import annotations

import contextlib
import json
import math
import sys
from collections import Counter
from typing import Optional, Sequence, Tuple

import click
import numpy as np
from click.core import ParameterSource

from . import presets, reproduce
from .coefficients import CoefficientSystemError, solve_coefficient_system
from .flows import (
    DomainEscape,
    MaxStepsExceeded,
    StepUnderflow,
    first_integral_drift,
    flow_coefficient_table,
    flow_cross_check,
    lie_derivative,
)
from .holonomy import (
    AxisComponentVanishes,
    BasePointUnderflow,
    HolonomyError,
    NormalFormError,
    build_monodromy_system,
    holonomy_cross_check,
    normal_form_or_reason,
)
from .jets import Jet, JetError, DEFAULT_ORDER
from .orbits import (
    DEFAULT_BUDGET,
    DEFAULT_POINT_BUDGET,
    DEFAULT_WORD_BUDGET,
    DomainBall,
    OrbitError,
    group_closure,
    iterate_orbit,
    lattice_seeds,
    petal_analysis,
    pseudogroup_orbit,
)
from .presets import PresetError

EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3
SVG_WIDTH = 480


class ConfigError(click.ClickException):
    exit_code = EXIT_BAD_CONFIG


class NumericFailure(click.ClickException):
    exit_code = EXIT_NUMERIC


# library failure -> the CLI error it becomes, found along the failure's MRO;
# each FlowError the integrator raises is one of the three numeric failures below
FAILURES = {
    **dict.fromkeys((PresetError, HolonomyError, CoefficientSystemError, JetError,
                     OrbitError), ConfigError),
    **dict.fromkeys((DomainEscape, StepUnderflow, MaxStepsExceeded, BasePointUnderflow,
                     AxisComponentVanishes, OverflowError), NumericFailure),
}
_VERBS = {OverflowError: "overflows", BasePointUnderflow: "underflows"}


@contextlib.contextmanager
def _library_failures(subject: Optional[str] = None):
    """Re-raise a library failure as its CLI error from FAILURES.  Given a ``subject``
    ("--z0 '1e200': the monodromy system"), an overflow or underflow reads
    "<subject> overflows (<e>)" or "<subject> underflows (<e>)"."""
    try:
        yield
    except tuple(FAILURES) as e:
        kind = next(k for k in type(e).__mro__ if k in FAILURES)
        verb = _VERBS.get(kind) if subject else None
        raise FAILURES[kind](f"{subject} {verb} ({e})" if verb else str(e)) from e


class _Main(click.Group):
    """Runs every command inside :func:`_library_failures`."""

    def invoke(self, ctx):
        with _library_failures():
            return super().invoke(ctx)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}i"


def _parse_complex(s: str) -> complex:
    try:
        return presets.parse_complex(s)
    except presets.NonFiniteNumber:
        raise ConfigError(f"complex number {s!r} is not finite")
    except ValueError:
        raise ConfigError(f"cannot parse complex number {s!r}")


def _parse_point(s: str, n_vars: int) -> Tuple[complex, ...]:
    point = tuple(_parse_complex(p) for p in s.split(","))
    if len(point) != n_vars:
        raise ConfigError(
            f"--point {s!r} has {len(point)} coordinate(s); the field has {n_vars} variables"
        )
    return point


def _check_finite(option: str, value: Optional[float], positive: bool = False) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{option} must be a finite number, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{option} must be positive, got {value}")


def _check_count(option: str, value: Optional[int], bound: str = "", unit: str = "") -> None:
    """Refuse a count below 1, or above the entry ``bound`` names in the bound
    table of :mod:`holodyn.presets`; a count of ``unit`` reads "asks for"."""
    if value is None:
        return
    if value < 1:
        raise ConfigError(f"{option} must be a positive integer, got {value}")
    limit = getattr(presets, bound) if bound else math.inf
    if value > limit:
        asks = f"asks for {value} {unit}," if unit else f"{value} is"
        raise ConfigError(f"{option} {asks} more than {bound} = {limit}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}")


def _write_csv(path: str, config: dict, header: Sequence[str], rows) -> None:
    lines = [f"# config: {json.dumps(config, sort_keys=True)}", ",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, config: dict, payload: dict) -> None:
    _write_text(path, json.dumps({**payload, "config": config}, sort_keys=True, indent=1) + "\n")


def _write_svg(path: str, config: dict, points) -> None:
    """Static scatter of complex points (re, im of the chosen projection)."""
    width = SVG_WIDTH
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1e-12) * 1.1

    def sx(v):
        return (v / span + 1.0) * width / 2

    def sy(v):
        return (1.0 - v / span) * width / 2

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}">']
    parts.append(f"<!-- config: {json.dumps(config, sort_keys=True)} -->")
    parts.append(f'<rect width="{width}" height="{width}" fill="white"/>')
    parts.append(
        f'<line x1="0" y1="{width/2}" x2="{width}" y2="{width/2}" stroke="#ccc"/>'
        f'<line x1="{width/2}" y1="0" x2="{width/2}" y2="{width}" stroke="#ccc"/>'
    )
    for x, y in points:
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.5" fill="#1f77b4" fill-opacity="0.6"/>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _echo_jet_map(title: str, jmap) -> None:
    click.echo(title)
    for j, comp in enumerate(jmap.components):
        for exp, c in comp.terms():
            click.echo(f"  component {j}, x^{list(exp)}: {_fmt_complex(complex(c))}")


@click.group(cls=_Main)
def main():
    """Holonomy maps, formal/numeric flows and orbit experiments."""


@main.command()
@click.option("--field", "field_spec", required=True,
              help="Foliation preset (thmB, example3, linear(...), genF, ...) or JSON path.")
@click.option("--order", type=int, default=4, show_default=True)
@click.option("--z0", default="1", show_default=True, help="Transversal base point.")
@click.option("--emit", "emit_path", type=click.Path(), default=None,
              help="Write the coefficient table and t=1 jet map as JSON.")
@click.option("--oracle", "oracle_path", type=click.Path(), default=None,
              help="Write the series-vs-numeric cross-check CSV.")
def holonomy(field_spec, order, z0, emit_path, oracle_path):
    """Exact holonomy of the separatrix axis, plus the normal-form summary."""
    _check_count("--order", order, "MAX_ORDER")
    z0c = _parse_complex(z0)
    F = presets.load_foliation(field_spec)
    config = {"command": "holonomy", "field": field_spec, "order": order,
              "z0": [z0c.real, z0c.imag]}
    # holonomy_series in two steps, so that an overflow names the input it comes from
    with _library_failures(f"--z0 {z0!r}: the monodromy system"):
        system = build_monodromy_system(F, order, z0=z0c)
    with _library_failures(f"--order {order}: the coefficient table"):
        table = solve_coefficient_system(system.terms, order)
        h = table.at_time(1.0)

    _echo_jet_map(f"holonomy of {field_spec} (axis {F.separatrix_axis}, order {order}):", h)
    nf = normal_form_or_reason(h)
    if isinstance(nf, NormalFormError):
        click.echo(f"normal form: not applicable ({nf})")
    else:
        click.echo(
            f"normal form: (a, b) = ({nf.a}, {nf.b}), f(0) = {_fmt_complex(nf.f0)}, "
            f"|f(0)| = {abs(nf.f0):.12g}"
        )

    if emit_path:
        _write_json(emit_path, config, {
            "table": table.to_json_dict(),
            "holonomy_jet": h.to_json_dict(),
        })
        click.echo(f"wrote {emit_path}")
    if oracle_path:
        n_t = len(F.transverse_indices)
        points = [tuple(v * (1 + 0.2 * k) for k in range(n_t))
                  for v in np.linspace(0.01, 0.05, 5)]
        checked = holonomy_cross_check(F, h, points, z0=z0c)
        rows = [[";".join(_fmt_complex(c) for c in p),
                 ";".join(_fmt_complex(c) for c in series),
                 ";".join(_fmt_complex(complex(c)) for c in numeric),
                 f"{err:.3e}"] for p, series, numeric, err in checked]
        _write_csv(oracle_path, config,
                   ["point", "series_value", "monodromy_value", "abs_error"], rows)
        click.echo(f"wrote {oracle_path}")


@main.command()
@click.option("--field", "field_spec", required=True)
@click.option("--time", "time_str", default="1", show_default=True)
@click.option("--order", type=int, default=DEFAULT_ORDER, show_default=True)
@click.option("--point", default=None, help="Optional point for a numeric cross-check.")
@click.option("--emit", "emit_path", type=click.Path(), default=None)
def flow(field_spec, time_str, order, point, emit_path):
    """Formal time-t map of a polynomial field (and a numeric spot check)."""
    _check_count("--order", order, "MAX_ORDER")
    t = _parse_complex(time_str)
    X = presets.load_field(field_spec)
    p = _parse_point(point, X.n_vars) if point else None
    config = {"command": "flow", "field": field_spec, "time": [t.real, t.imag],
              "order": order, "point": point}
    # formal_flow in two steps, so that an overflow names the input it comes from
    with _library_failures(f"--order {order}: the coefficient table"):
        table = flow_coefficient_table(X, order)
    with _library_failures(f"--time {time_str!r}: the time-t map"):
        fmap = table.at_time(t)
    _echo_jet_map(f"time-{time_str} map of {field_spec} (order {order}):", fmap)
    if p is not None:
        with _library_failures(f"--point {point!r}: the numeric cross-check"):
            [(_, _, _, err)] = flow_cross_check(X, fmap, [p], t)
        click.echo(f"numeric cross-check at {point}: max abs error {err:.3e}")
    if emit_path:
        _write_json(emit_path, config, {"flow_jet": fmap.to_json_dict()})
        click.echo(f"wrote {emit_path}")


def _orbit_seeds(map_obj, radius, grid, grid_low, level_circle, random_seeds, seed):
    n = map_obj.n_vars
    if level_circle:
        if n != 2:
            raise ConfigError("--level-circle needs a planar map")
        return presets.level_circle_seeds(random_seeds or 8)
    if random_seeds:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-radius, radius, size=(random_seeds, n))
        return [tuple(complex(v) for v in row) for row in pts]
    try:
        counts = [int(v) for v in grid.lower().split("x")]
    except ValueError:
        raise ConfigError(f"cannot parse --grid {grid!r}; expected e.g. 20x20")
    if min(counts) < 1:
        raise ConfigError(f"--grid {grid!r}: every count must be a positive integer")
    _check_count(f"--grid {grid!r}", math.prod(counts), "MAX_SEEDS", "seeds")
    if n == 1:
        counts = [math.prod(counts)]
    elif len(counts) != n:
        raise ConfigError(
            f"--grid {grid!r} gives {len(counts)} counts but the map has {n} variables; "
            f"give one count per variable"
        )
    return lattice_seeds(radius, counts, n_vars=n, low=grid_low)


@main.command()
@click.option("--map", "map_spec", required=True,
              help="Map preset (F, H, h1, h2, parabolic(d,c), phiX(n,m,a,b)) or jet-map JSON.")
@click.option("--radius", type=float, default=None,
              help="Ball radius (default 0.3; --level-circle runs in the ball of radius 1).")
@click.option("--grid", default="20x20", show_default=True,
              help="Lattice counts, one per variable; a one-variable map takes their product.")
@click.option("--grid-low", type=float, default=None,
              help="Lower lattice bound (default -radius).")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--level-circle", is_flag=True,
              help="Seed on the invariant level set x*y = C with the documented "
                   "golden-mean constant instead of a lattice.")
@click.option("--random-seeds", type=int, default=None,
              help="Number of random seeds (instead of the lattice).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="RNG seed for --random-seeds (NumPy default_rng / PCG64).")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@click.option("--svg-projection", type=click.Choice(["re-re", "re-im"]),
              default="re-re", show_default=True,
              help="Scatter plane: Re x vs Re y, or Re x vs Im x.")
def orbit(map_spec, radius, grid, grid_low, budget, level_circle,
          random_seeds, seed, csv_path, svg_path, svg_projection):
    """Classify orbits of a germ on the polydisc of the given radius."""
    if level_circle and radius is not None:
        raise ConfigError("--radius does not apply to --level-circle, which runs in the "
                          "ball of radius 1")
    if radius is None:
        radius = 1.0 if level_circle else 0.3
    _check_finite("--radius", radius, positive=True)
    _check_finite("--grid-low", grid_low)
    _check_count("--budget", budget, "MAX_BUDGET")
    _check_count("--random-seeds", random_seeds, "MAX_SEEDS", "seeds")
    picker = "--level-circle" if level_circle else "--random-seeds" if random_seeds else None
    ctx = click.get_current_context()
    given = {name for name in ("grid", "seed", "svg_projection")
             if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE}
    for option, ignored in (("--grid", "grid" in given), ("--grid-low", grid_low is not None)):
        if picker and ignored:
            raise ConfigError(f"{option} does not apply to {picker}, which picks its own seeds")
    if "seed" in given and picker != "--random-seeds":
        raise ConfigError("--seed does not apply unless --random-seeds picks random seeds")
    if "svg_projection" in given and svg_path is None:
        raise ConfigError("--svg-projection does not apply without --svg")
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    h = presets.load_map(map_spec)
    config = {"command": "orbit", "map": map_spec, "radius": radius, "grid": grid,
              "grid_low": grid_low, "budget": budget, "level_circle": level_circle,
              "random_seeds": random_seeds, "seed": seed}
    V = DomainBall(radius)
    seeds = _orbit_seeds(h, radius, grid, grid_low, level_circle, random_seeds, seed)
    records = [iterate_orbit(h, s, V, budget=budget, keep_points=svg_path is not None)
               for s in seeds]
    counts = Counter(r.status for r in records)
    click.echo(
        f"{len(records)} seeds: {counts['Escaped']} escaped, {counts['Periodic']} "
        f"periodic, {counts['BudgetExhausted']} budget-exhausted (infinite-suspected)"
    )
    if csv_path:
        # two seed columns per coordinate; a one-variable seed gets y = 0
        n_cols = max(2, h.n_vars)
        axes = "xyz"[:n_cols] if n_cols <= 3 else [f"x{k}" for k in range(n_cols)]
        rows = []
        for r in records:
            coords = list(r.seed) + [0j] * (n_cols - len(r.seed))
            rows.append([f"{v:.12g}" for c in coords for v in (c.real, c.imag)] + [
                "infinite-suspected" if r.status == "BudgetExhausted" else r.status,
                r.period if r.period is not None else "",
                r.mu_label, r.cardinality,
            ])
        _write_csv(csv_path, config,
                   [f"seed_{part}_{a}" for a in axes for part in ("re", "im")]
                   + ["status", "period", "mu", "cardinality"], rows)
        click.echo(f"wrote {csv_path}")
    if svg_path:
        pts = []
        for r in records:
            for p in [r.seed] + r.forward_points + r.backward_points:
                if svg_projection == "re-re" and len(p) > 1:
                    pts.append((p[0].real, p[1].real))
                else:
                    pts.append((p[0].real, p[0].imag))
        _write_svg(svg_path, {**config, "svg_projection": svg_projection}, pts)
        click.echo(f"wrote {svg_path}")


@main.command()
@click.option("--preset", default="h1h2", show_default=True)
@click.option("--seeds", "n_seeds", type=int, default=100, show_default=True)
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--word-budget", type=int, default=DEFAULT_WORD_BUDGET, show_default=True)
@click.option("--point-budget", type=int, default=DEFAULT_POINT_BUDGET, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def pseudogroup(preset, n_seeds, radius, word_budget, point_budget, json_path):
    """Pseudogroup orbits and the linear group closure of a generator preset."""
    gens = presets.pseudogroup_preset(preset)
    _check_finite("--radius", radius, positive=True)
    _check_count("--seeds", n_seeds, "MAX_SEEDS", "seeds")
    _check_count("--word-budget", word_budget)
    _check_count("--point-budget", point_budget)
    config = {"command": "pseudogroup", "preset": preset, "seeds": n_seeds,
              "radius": radius, "word_budget": word_budget,
              "point_budget": point_budget}
    closure = group_closure(gens)
    click.echo(
        f"closure order: {closure.order} "
        f"({'non-abelian' if not closure.is_abelian else 'abelian'}"
        + (f", non-commuting pair {closure.non_commuting_pair}" if closure.non_commuting_pair else "")
        + ")"
    )
    V = DomainBall(radius)
    orbits = [pseudogroup_orbit(gens, s, V, word_budget=word_budget, point_budget=point_budget)
              for s in presets.pseudogroup_seeds(n_seeds, radius, gens[0].n_vars)]
    cards = sorted({o.cardinality for o in orbits})
    click.echo(f"{len(orbits)} seed orbits, cardinalities {cards}, "
               f"truncated: {sum(o.truncated for o in orbits)}")
    if json_path:
        payload = {
            "closure_order": closure.order,
            "abelian": closure.is_abelian,
            "orbits": [
                {
                    "seed": [[c.real, c.imag] for c in o.seed],
                    "cardinality": o.cardinality,
                    "truncated": o.truncated,
                    "words": o.words,
                }
                for o in orbits
            ],
        }
        _write_json(json_path, config, payload)
        click.echo(f"wrote {json_path}")


@main.command()
@click.option("--d", type=int, required=True)
@click.option("--c", default="1", show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def petal(d, c, json_path):
    """Characteristic directions of x -> x + c x^(d+1), with empirical runs."""
    _check_count("--d", d, "MAX_PETAL_DEGREE")
    cc = _parse_complex(c)
    if cc == 0:
        raise ConfigError("--c must be nonzero")
    report = petal_analysis(d, cc)
    config = {"command": "petal", "d": d, "c": [cc.real, cc.imag]}
    click.echo(f"attracting directions: {[round(a, 6) for a in report.attracting_dirs]}")
    click.echo(f"repelling directions:  {[round(a, 6) for a in report.repelling_dirs]}")
    click.echo(f"characteristic directions: {report.sector_count} "
               f"({report.d} attracting + {report.d} repelling)")
    for run in report.runs:
        click.echo(
            f"  run at arg {run['direction']:.6f}: |x| {run['start_modulus']:.3g} -> "
            f"{run['final_modulus']:.3g}, arg error {run['arg_error']:.2e}, "
            f"converged: {run['converged']}"
        )
    if json_path:
        _write_json(json_path, config, {
            "attracting_dirs": report.attracting_dirs,
            "repelling_dirs": report.repelling_dirs,
            "runs": report.runs,
        })
        click.echo(f"wrote {json_path}")


@main.command("verify-integral")
@click.option("--field", "field_spec", required=True)
@click.option("--exponents", required=True,
              help="Monomial exponents of the candidate integral, e.g. 1,1,2.")
@click.option("--point", default=None, help="Seed for the numeric drift check.")
@click.option("--tol", type=float, default=1e-8, show_default=True)
def verify_integral(field_spec, exponents, point, tol):
    """Check that a monomial is a first integral (symbolically and numerically)."""
    _check_finite("--tol", tol, positive=True)
    X = presets.load_field(field_spec)
    try:
        exp = tuple(int(v) for v in exponents.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse --exponents {exponents!r}")
    if len(exp) != X.n_vars or any(e < 0 for e in exp):
        raise ConfigError("--exponents must list one non-negative integer per variable")
    if point is None:
        p = tuple(0.05 * (1 + 0.3 * k) for k in range(X.n_vars))
    else:
        p = _parse_point(point, X.n_vars)
    g = Jet(X.n_vars, sum(exp), {exp: 1.0 + 0j})
    symbolic_zero = lie_derivative(X, g).is_zero()
    click.echo(f"symbolic derivative along the field vanishes: {symbolic_zero}")
    with _library_failures(f"the numeric drift from {p}"):
        drift = first_integral_drift(X, g, p)
    click.echo(f"numeric drift over t in [0, 1] from {p}: {drift:.3e} (tol {tol:g})")
    if not (symbolic_zero and drift < tol):
        sys.exit(EXIT_CHECK_FAILED)


@main.command("reproduce-paper")
@click.option("--only", multiple=True, help="Run only the named checks.")
@click.option("--report", "report_path", type=click.Path(),
              default="reproduction-report.md", show_default=True)
def reproduce_paper(only, report_path):
    """Run the full reproduction suite and write a markdown report."""
    for name in only:
        if name not in reproduce.CHECKS:
            raise ConfigError(f"unknown check {name!r}; available: {', '.join(reproduce.CHECKS)}")
    results = [reproduce.CHECKS[name]() for name in only or reproduce.CHECKS]
    for r in results:
        click.echo(r.line)
    _write_text(report_path, reproduce.render_report(results))
    click.echo(f"wrote {report_path}")
    if not all(r.passed for r in results):
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
