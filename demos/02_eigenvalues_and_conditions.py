"""Hypothesis checks: the weighted eigenvalue and the smallness conditions.

The solvability conditions all compare a coefficient product against a
weighted Rayleigh supremum. This script computes the first eigenvalue on
interval and square, sweeps the H0 margin through its threshold, checks
the Sobolev-product condition on the cube, and prints an exponent witness.
"""

import numpy as np

from gqc import (
    GridFunction,
    GridSpec,
    ProblemData,
    build_operators,
    check_conditions,
    check_ferone_murat,
    find_exponents,
    first_eigen,
    parse_coefficient,
)


def problem_on(spec, c, mu, h, lam=0.0):
    return ProblemData(
        spec=spec,
        c=parse_coefficient(c, spec),
        mu=parse_coefficient(mu, spec),
        h=parse_coefficient(h, spec),
        lam=lam,
    )


# first eigenvalues of -lap phi = gamma c phi
for dim, n, analytic in ((1, 64, np.pi**2), (2, 64, 2 * np.pi**2)):
    spec = GridSpec(dim, ((0.0, 1.0),) * dim, (n,) * dim)
    ops = build_operators(spec)
    eig = first_eigen(GridFunction.constant(spec, 1.0), ops)
    print(f"dim {dim}: gamma1 = {eig.gamma:.6f}  (analytic {analytic:.6f}, "
          f"{eig.iterations} iterations)")

# H0 margin sweep: constants mu = 1, h = t; flips at t = 2 pi^2 = 19.74
spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (64, 64))
print("\nH0 margin for mu = 1, h = const on the unit square:")
for t in (10.0, 18.0, 19.7, 19.8, 25.0):
    rep = check_conditions(problem_on(spec, "1", "1", f"{t}"), ["H0"])[0]
    print(f"  h = {t:5.1f}: margin {rep.infimum_estimate:+.4f}  "
          f"({'holds' if rep.holds else 'fails'})")

# with c positive everywhere the restricted condition is vacuous
rep = check_conditions(problem_on(spec, "1", "5", "100"), ["Hc"])[0]
print(f"\nHc with c > 0 everywhere: holds={rep.holds}  ({rep.note})")

# the product condition on the unit cube: threshold S_3^2 = 5.478
cube = GridSpec(3, ((0.0, 1.0),) * 3, (32, 32, 32))
for h in ("5", "6"):
    rep = check_ferone_murat(problem_on(cube, "1", "1", h))
    print(f"product check, h = {h}: margin {rep.infimum_estimate:+.4f} "
          f"({'holds' if rep.holds else 'fails'})")

# an exponent witness for the a-priori-bound arithmetic
w = find_exponents(p=2.0, theta=0.5, dim=3)
print(f"\nexponent witness: alpha={w.alpha:.6g} r={w.r:.6g} "
      f"q={w.q:.6g} tau={w.tau:.6g}")
print(f"  q(1-alpha) = {w.q*(1-w.alpha):.6f} < 2")
