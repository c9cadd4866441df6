"""Walk-through: the existence iteration on the flat 7-torus model, where
the answer is known (the flat structure itself) and certifies the solver
end-to-end.

Uses N = 4 to stay quick; the acceptance run uses N = 6.
"""

import numpy as np

from g2glue import torus
from g2glue.forms import phi0

cfg = torus.SolverConfig(N=4, eps=1e-2, seed=7, tol_residual=1e-10)
print(f"model problem: N = {cfg.N}, eps = {cfg.eps}, seed = {cfg.seed}")

phi, psi, sigma = torus.make_model_problem(cfg)
print("  perturbation size |phi - phi0| =",
      np.abs((phi - torus.constant(phi0(), cfg.N)).coeffs).max())
print("  torsion bookkeeping |psi| =", round(np.abs(psi.coeffs).max(), 6))
print("  initial torsion residual =", f"{torus.residual(phi):.3e}")

eta, report = torus.solve(cfg)
print("\nsolve report:")
for key in ("iterations", "residual", "distance_to_flat", "zero_mode_gap"):
    print(f"  {key}: {report[key]}")
print("  contraction factors:", [round(q, 5)
                                 for q in report["contraction_factors"]])

ops = torus.derivative_ops(cfg.N)
phi_tilde = phi + ops.d(torus.to_spectral(eta)).to_grid()
print("\nthe corrected structure equals the flat one to machine precision:")
print("  |phi + d eta - phi0| =",
      np.abs((phi_tilde - torus.constant(phi0(), cfg.N)).coeffs).max())
print("  grid average preserved (cohomology class):",
      np.abs(phi_tilde.coeffs.mean(axis=tuple(range(1, 8)))
             - phi0().coeffs).max())
