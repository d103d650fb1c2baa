#!/usr/bin/env python3
"""Side-by-side orbit survey: the finite-orbit germ vs. the irrational-rotation one.

Runs the two orbit reproduction checks: the H-type germ on a calibrated
400-seed grid (all orbits provably finite; the experiment should report 0
infinite-suspected) and the F-type germ seeded on the golden-mean level set
(bounded but never closing: infinite-suspected).  The level-set orbit gets
at most 20,000 steps each way.

Usage: python scripts/orbit_survey.py [budget]
"""
import sys
import time

from holodyn.reproduce import check_finite_orbits, check_infinite_contrast


def main():
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    for check, check_budget in ((check_finite_orbits, budget),
                                (check_infinite_contrast, min(budget, 20_000))):
        t0 = time.time()
        line = check(check_budget).line
        print(f"{line}  [budget {check_budget}, {time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
