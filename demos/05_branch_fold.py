"""Tracing the solution branch through its fold.

With positive data and the smallness condition holding, the branch enters
the right half plane, turns at a fold below the first eigenvalue and
climbs back toward the axis with growing norms. The trace is compared
against the independent reference tracer.
"""

import numpy as np

from gqc import (
    ContinuationOptions,
    GridSpec,
    ProblemData,
    analyze_branch,
    build_operators,
    first_eigen,
    locate_fold,
    parse_coefficient,
    trace_branch,
    two_solutions,
)
from gqc.oracle import reference_continuation

spec = GridSpec(1, ((0.0, 1.0),), (64,))
ops = build_operators(spec)
problem = ProblemData(
    spec=spec,
    c=parse_coefficient("1", spec),
    mu=parse_coefficient("1", spec),
    h=parse_coefficient("0.1*sin(pi*x1)", spec),
    lam=-1.0,
    profile="A2",
)

opts = ContinuationOptions(norm_cap=3.0, max_points=400)
branch = trace_branch(problem, -2.0, ops, opts)
gamma1 = first_eigen(problem.c, ops).gamma

print(f"{'idx':>4} {'lambda':>10} {'sup':>9} {'h10':>9}")
for i, p in enumerate(branch.points):
    if i % 4 == 0 or i in branch.folds:
        tag = "  <- fold" if i in branch.folds else ""
        print(f"{i:>4} {p.lam:>10.4f} {p.sup_norm:>9.4f} {p.h10_norm:>9.4f}{tag}")

analysis = analyze_branch(branch, gamma1)
print(f"\ntermination: {branch.termination} at lambda = {branch.points[-1].lam:.4f}")
print(f"fold abscissa: {analysis.max_lambda:.5f}  "
      f"(gamma1 = {gamma1:.5f}, margin {analysis.gamma1_margin:.3f})")
lam_fold, _ = locate_fold(branch, problem, ops, opts)
print(f"fold refined by Newton on the minimally augmented system: {lam_fold:.6f}")
pair = two_solutions(branch, 0.5 * analysis.max_lambda, problem, ops, opts)
print(f"two solutions at lambda = {pair.lam:.4f}: "
      f"sup {np.max(np.abs(pair.u_low.values)):.4f} and "
      f"{np.max(np.abs(pair.u_high.values)):.4f}")

ref = reference_continuation(problem, -2.0, ops, norm_cap=3.0)
rel = abs(ref.max_lambda() - analysis.max_lambda) / analysis.max_lambda
print(f"reference tracer fold: {ref.max_lambda():.5f}  "
      f"(relative gap {rel:.2e})")
