"""The 2x3 design where l1 interpolation fails and exact l0 search succeeds.

The kernel direction (1, 1/3, 1/3) lies in the comparison cone but is not
2-sparse, so the restricted-eigenvalue constant vanishes while every 2x2
submatrix keeps full rank.  With the 1-sparse truth (1, 0, 0) and no noise,
the minimum-l1 interpolant lands at (0, -1/3, -1/3) with l1-norm 2/3 < 1.
"""

import numpy as np

from lqminimax import REParams, counterexample_scenario, re_constant, sparse_spectrum
from lqminimax.estimators import l0_least_squares, lasso
from lqminimax.harness import COUNTEREXAMPLE_X

report = counterexample_scenario()
print("kernel direction annihilated:", report.kernel_ok)
print("in cone but not 2-sparse:    ", report.cone_ok)
print("l0 recovers the truth:       ", report.l0_recovery_ok, report.beta_l0)
print("min-l1 interpolant:          ", report.beta_min_l1,
      f"(norm {report.min_l1_norm:.6f})")

X = COUNTEREXAMPLE_X
y = X @ np.array([1.0, 0.0, 0.0])

kl, ku = sparse_spectrum(X, s=1)
re = re_constant(X, REParams(s=1, c0=1.0), mode="exact_tiny")
print(f"\nsparse spectrum: kappa_l={kl:.3f} > 0, but RE over the cone = {re.value}")

print("\nlasso at lambda = 1e-6 follows the l1 route, not the truth:")
res = lasso(X, y, lam=1e-6)
print("   lasso:", np.round(res.beta_hat, 6), "l1 norm", np.abs(res.beta_hat).sum(),
      f"converged={res.converged} after {res.iterations} iterations")
res0 = l0_least_squares(X, y, s=1)
print("   l0:   ", res0.beta_hat, "objective", res0.objective)
