"""
Step functions and their Gaussian-sum operator norms
====================================================

A vector-valued step function f on (0, 1) induces the integration operator
g -> integral of f * g, whose randomized norm is the mean-square size of
the Gaussian sum over any orthonormal basis; it depends only on the
covariance integral of f f^T.  For the alternating
step family that norm has a closed form, and on Hilbert targets it is a
plain sum of squares.  This script builds the family, checks the closed
forms, and compares the exact norm against its Monte Carlo estimate.
"""

import numpy as np

from besovgamma import (LpSpace, MCConfig, gamma_norm_hilbert, gamma_norm_mc,
                        lp_norm, make_step)

rng = np.random.default_rng(7)

# an alternating step function with n = 6 blocks in l^{4/3} of dimension 3:
# block k occupies ((2k-1)/(2n), 2k/(2n)] and carries the vector x_k
space = LpSpace(4.0 / 3.0, 3)
vectors = rng.normal(size=(6, 3))
f = make_step(6, vectors, space)
print("breakpoints:", np.round(f.breakpoints, 4))

# the L^p norm collapses to (2n)^{-1/p} (sum_k ||x_k||^p)^{1/p}
p = 4.0 / 3.0
closed = (2 * 6) ** (-1.0 / p) * float((space.norms(vectors) ** p).sum()) ** (1.0 / p)
print(f"lp_norm         {lp_norm(f, p):.12f}")
print(f"closed form     {closed:.12f}")

# on a Hilbert target the Gaussian-sum norm is exact: sqrt of the L^2 energy
f2 = make_step(6, vectors, LpSpace(2, 3))
exact = gamma_norm_hilbert(f2)
est2 = gamma_norm_mc(f2, MCConfig(samples=20000, seed=1))
print(f"\nhilbert target: exact {exact:.6f}, MC {est2.mean:.6f} "
      f"+- {est2.std_error:.6f}")

# on the l^{4/3} target only Monte Carlo is available; the batch-means
# standard error makes the estimate a quantitative statement
est = gamma_norm_mc(f, MCConfig(samples=20000, seed=2))
print(f"l^4/3 target:   MC {est.mean:.6f} +- {est.std_error:.6f}")

# the same estimate is bit-reproducible from its seed
again = gamma_norm_mc(f, MCConfig(samples=20000, seed=2))
print("reproducible:  ", est.mean == again.mean)

# the closed form scales like (2n)^{-1/p} for fixed vector budget: double
# the block count with the same vectors repeated and the norm shrinks
for n in (6, 12, 24):
    reps = np.tile(vectors, (n // 6, 1)) / (n // 6) ** (1.0 / p)
    g = make_step(n, reps, space)
    print(f"n = {n:2d}  lp_norm = {lp_norm(g, p):.6f}")
