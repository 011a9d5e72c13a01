"""The four estimators on one instance, and the basic inequality.

The exact l0 search is the "optimal" reference; the l1 solver carries a
duality-gap certificate; the lq heuristic uses an oracle warm start; the
Lasso is the penalized route.
"""

import numpy as np

from lqminimax import (
    BallSpec,
    check_basic_inequality,
    generate_design,
    generate_sparse_beta,
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
    simulate,
)
from lqminimax.linmodel import DesignSpec

ball = BallSpec(q=0.0, radius=3)
X = generate_design(DesignSpec("standard_gaussian", n=80, d=20, seed=7))
beta = generate_sparse_beta(ball, d=20, magnitude=1.0, seed=7)
inst = simulate(X, beta, sigma=0.4, seed=7, ball=ball)

res_l0 = l0_least_squares(X, inst.y, s=3)
print(f"l0: support {res_l0.support} (truth {tuple(np.flatnonzero(beta))}), "
      f"objective {res_l0.objective:.4f}, {res_l0.iterations} supports examined")

res_l1 = l1_constrained_ls(X, inst.y, r1=np.abs(beta).sum(), tol=1e-9)
print(f"l1: converged={res_l1.converged} duality gap {res_l1.info['duality_gap']:.2e} "
      f"objective {res_l1.objective:.4f}")

soft = BallSpec(q=0.5, radius=3.0)
beta_soft = generate_sparse_beta(soft, d=20, magnitude=1.0, seed=8)
inst_soft = simulate(X, beta_soft, sigma=0.4, seed=8, ball=soft)
res_lq = lq_constrained_ls(X, inst_soft.y, soft,
                           starts=[beta_soft, np.zeros(20)])
print(f"lq (oracle warm start): objective {res_lq.objective:.4f}, "
      f"feasible={res_lq.feasible}")

res_lasso = lasso(X, inst.y, lam=0.05)
print(f"lasso(0.05): converged={res_lasso.converged} support {res_lasso.support}, "
      f"KKT residual {res_lasso.info['kkt_residual']:.2e}")

# every output that is no worse than the truth satisfies the basic inequality
for name, res in (("l0", res_l0), ("l1", res_l1), ("lasso", res_lasso)):
    chk = check_basic_inequality(inst, res)
    print(f"basic inequality [{name}]: objective_ok={chk.objective_ok} "
          f"lhs={chk.lhs:.4f} <= rhs={chk.rhs:.4f} -> {chk.eqn_basic_ok}")
