"""The no-solution-at-zero regime: norms escaping on the left of the axis.

When the smallness condition fails, the problem at lambda = 0 has no
solution and the branch norms blow up as lambda approaches 0 from the
left. On the (0,30)^2 box with h three times the first eigenvalue the
growth follows sup u ~ const/|lambda| until the resolvable window ends.
"""

import numpy as np

from gqc import (
    ContinuationOptions,
    GridSpec,
    ProblemData,
    build_operators,
    check_conditions,
    first_eigen,
    parse_coefficient,
    trace_branch,
)
from gqc.solver import solve_cascade

spec = GridSpec(2, ((0.0, 30.0), (0.0, 30.0)), (32, 32))
ops = build_operators(spec)
problem = ProblemData(
    spec=spec,
    c=parse_coefficient("1", spec),
    mu=parse_coefficient("1", spec),
    h=parse_coefficient("pi^2/150", spec),
    lam=-1.0,
    profile="A2",
)

gamma1 = first_eigen(problem.c, ops).gamma
h_sup = float(np.max(problem.h.values))
print(f"gamma1 = {gamma1:.6f}, h = {h_sup:.6f} = {h_sup/gamma1:.3f} * gamma1")
rep = check_conditions(problem, ["H0"])[0]
print(f"H0 margin: {rep.infimum_estimate:+.4f} -> no solution at lambda = 0\n")

print("warm-started solves toward the axis:")
print(f"{'lambda':>9} {'sup u':>9} {'|lambda|*sup':>13}")
u0 = None
for lam in (-8.0, -4.0, -2.0, -1.0, -0.5, -0.2, -0.1, -0.05, -0.02):
    u, strategy, _ = solve_cascade(problem.with_lambda(lam), ops, u0=u0)
    sup = np.max(np.abs(u.values))
    print(f"{lam:>9.2f} {sup:>9.4f} {abs(lam)*sup:>13.5f}")
    u0 = u

branch = trace_branch(problem, -2.0, ops,
                      ContinuationOptions(norm_cap=2.0, max_points=300))
print(f"\nbranch: {len(branch.points)} points, termination {branch.termination} "
      f"at lambda = {branch.points[-1].lam:.4f} "
      f"(sup {branch.points[-1].sup_norm:.3f})")
print("the cap is reached strictly left of the axis: the blow-up sits at "
      "lambda <= 0 on this family")
