"""The constant-mu route: substitute, minimize, map back, polish.

For constant mu the exponential substitution turns the quadratic-gradient
problem into a semilinear one that is solved by minimizing a coercive
functional. This script shows the nonlinearity's shape, runs the pipeline
next to the direct Newton solver, and prints their agreement.
"""

import numpy as np

from gqc import (
    GridFunction,
    GridSpec,
    ProblemData,
    build_operators,
    cole_hopf,
    functional_I,
    g_and_G,
    newton_solve,
    parse_coefficient,
    solve_transformed,
)

# the nonlinearity: odd, superlinear, with an even nonnegative primitive
print("s        g(s, mu=1)   G(s, mu=1)   G/s^2")
for s in (0.5, 1.0, 3.0, 10.0, 100.0):
    g, G = g_and_G(s, 1.0)
    print(f"{s:7.1f} {g:12.5f} {G:12.4f} {G/s**2:9.4f}")

# the change of variables round-trips at machine precision
spec = GridSpec(2, ((0.0, 1.0), (0.0, 1.0)), (32, 32))
ops = build_operators(spec)
rng = np.random.default_rng(0)
u = GridFunction(spec, rng.uniform(-1, 1, spec.n_interior))
w = cole_hopf(u, 1.0, "fwd")
back = cole_hopf(w, 1.0, "inv")
print(f"\nround-trip error of the substitution: {np.max(np.abs(back.values - u.values)):.2e}")

# direct Newton vs the minimization route, on the same instance
problem = ProblemData(
    spec=spec,
    c=parse_coefficient("1", spec),
    mu=parse_coefficient("1", spec),
    h=parse_coefficient("0.2*sin(pi*x1)*sin(pi*x2)", spec),
    lam=-1.0,
)
u_direct, rep = newton_solve(problem, GridFunction.zeros(spec), ops)
v, u_transform = solve_transformed(problem, ops)
value, _ = functional_I(v, problem, ops)
print(f"direct Newton: {rep.iterations} iterations, sup u = {np.max(u_direct.values):.6f}")
print(f"minimization: I(v) = {value:.6e}, min v = {np.min(v.values):.2e}")
u_raw = cole_hopf(v, 1.0, "inv")
print(f"raw image vs discrete root (the O(h^2) gap): "
      f"{np.max(np.abs(u_transform.values - u_raw.values)):.2e}")
print(f"agreement after the polish: "
      f"{np.max(np.abs(u_direct.values - u_transform.values)):.2e}")
