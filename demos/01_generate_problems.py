"""Generate sparse regression problems and evaluate losses.

Walks through the basic objects: a sparsity ball, a design ensemble, a
sparse truth, noisy observations, and the lp / prediction losses.
"""

import numpy as np

from lqminimax import (
    BallSpec,
    DesignSpec,
    LossSpec,
    generate_design,
    generate_sparse_beta,
    loss,
    simulate,
)
from lqminimax.linmodel import instance_to_json

# hard sparsity: at most 4 nonzero coordinates out of 64
ball = BallSpec(q=0.0, radius=4)
design = DesignSpec("standard_gaussian", n=200, d=64, seed=1)

X = generate_design(design)
beta = generate_sparse_beta(ball, d=64, magnitude=1.0, seed=1)
inst = simulate(X, beta, sigma=0.5, seed=1, ball=ball)
print("support of the truth:", np.flatnonzero(beta))
print("column-norm max / sqrt(n):", np.linalg.norm(X, axis=0).max() / np.sqrt(200))

# losses at a perturbed estimate
beta_hat = beta + 0.1 * np.random.default_rng(2).standard_normal(64)
print("l2 loss:   ", loss(LossSpec.l2(), X, beta_hat, beta))
print("l1 loss:   ", loss(LossSpec("lp", 1.0), X, beta_hat, beta))
print("prediction:", loss(LossSpec.prediction(), X, beta_hat, beta))

# a soft-sparse ball: the q-mass budget limits how many unit spikes fit
soft = BallSpec(q=0.5, radius=2.0)
beta_soft = generate_sparse_beta(soft, d=64, magnitude=1.0, seed=3)
print("soft-sparse support size:", np.count_nonzero(beta_soft),
      " q-mass:", np.sum(np.abs(beta_soft) ** 0.5))

# the normal sequence model y_i / sqrt(n) = b_i + (tau / sqrt(n)) z_i needs no
# design matrix; least squares over the l0-ball keeps its s largest entries
n, tau, seq_ball = 16, 2.0, BallSpec(0.0, 3)
b = generate_sparse_beta(seq_ball, d=n, seed=4)
y_seq = b + tau / np.sqrt(n) * np.random.default_rng(4).standard_normal(n)
kept = np.sort(np.argsort(-np.abs(y_seq))[:seq_ball.s])
print("sequence model: support", np.flatnonzero(b), " kept", kept,
      " per-coordinate noise tau^2 / n =", tau**2 / n)

# instances serialize to a flat JSON document
print("JSON snippet:", instance_to_json(inst)[:80], "...")
