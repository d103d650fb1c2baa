#!/usr/bin/env python3
"""Print the full holonomy coefficient table of a foliation preset.

Usage: python scripts/holonomy_table.py [preset] [order]

Each row shows the coefficient function (an exponential polynomial in t)
and its value at t = 1, i.e. the holonomy jet coefficient.
"""
import sys

from holodyn import presets
from holodyn.holonomy import NormalFormError, holonomy_series, normal_form_or_reason


def main():
    preset = sys.argv[1] if len(sys.argv) > 1 else "thmB"
    order = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    F = presets.load_foliation(preset)
    h, table = holonomy_series(F, order)
    print(f"# holonomy coefficient table: {preset}, order {order}")
    print(f"# ODE residual (symbolic): {table.ode_residual_max():.2e}")
    for j, exp in table.sorted_keys():
        poly = table.entries[(j, exp)]
        if not poly.terms:
            continue
        v = poly.eval(1.0)
        print(f"component {j}  x^{list(exp)}  {poly!r}")
        print(f"    value at t=1: {v.real:+.9g}{v.imag:+.9g}i")
    nf = normal_form_or_reason(h)
    if isinstance(nf, NormalFormError):
        print(f"normal form: n/a ({nf})")
    else:
        print(f"normal form: (a, b) = ({nf.a}, {nf.b}), f(0) = {nf.f0:.9g}")


if __name__ == "__main__":
    main()
