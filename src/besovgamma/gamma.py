"""Gaussian-sum norms of finite-rank integration operators.

A function f on a measure space S with values in E = R^dim induces the
operator I_f: L^2(S) -> E, h |-> integral of f h.  Its Gaussian-sum norm is

    ||I_f||^2 = E || sum_m gamma_m I_f(h_m) ||^2

over any orthonormal basis (h_m).  The sum is a centred Gaussian vector in
E whose covariance Q = integral of f(t) f(t)^T dt does not depend on the
basis, so the norm is a function of Q alone.  `covariance` computes Q in
closed form for step, linear and grid sources; `covariance_operator`
turns it into the dim x dim coefficient matrix S = Q^{1/2}, whose rows
play the part of the I_f(h_m).  Nothing is truncated, so every source
gets its exact operator.  `gamma_norm` alone chooses how a norm is computed:
exactly from Q where `LpSpace.gaussian_exact` holds (trace Q on Hilbert
targets, else `l1_gaussian_second_moment` of Q), else by `gamma_norm_mc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functions import GridFunction, Interpolation, PiecewiseFunction, l2_norm_squared
from .montecarlo import MCConfig, MCEstimate, derive_seed
from .spaces import (INF, LpSpace, _finite_exponent, check_exponent, gaussian_p_moment,
                     gaussian_second_moment, l1_gaussian_second_moment)

# Partition endpoints must sit this close (absolutely) to each other and to
# the ends of the support for a user's partition to count as a tiling.
ALIGNMENT_TOL = 1e-12

# Relative roundoff allowance of an exact non-Hilbert partition check: its
# budget is this times lhs + rhs, so a check whose two sides agree in exact
# arithmetic passes however the last bits round.
ROUNDOFF_RTOL = 1e-12


@dataclass(frozen=True)
class GammaOperator:
    """Finite-rank operator given by its coefficient rows.

    coefficients: (M, dim) array, row m = image of the m-th orthonormal
        vector; the Gaussian sum has covariance coefficients^T coefficients.
    basis: a label for where the rows came from ("covariance" for
        `covariance_operator`).
    residual: absolute L^2 energy of the source outside the rows' span
        (0 for `covariance_operator`, which is exact).
    """

    coefficients: np.ndarray
    space: LpSpace
    basis: str
    residual: float

    def mc_norm(self, cfg: MCConfig) -> MCEstimate:
        """Monte Carlo estimate of the Gaussian-sum norm with a delta-method
        standard error on the square root."""
        if self.coefficients.shape[0] == 0:  # rank 0: the sum is exactly 0
            return MCEstimate(mean=0.0, std_error=0.0, samples=cfg.samples, seed=cfg.seed)
        est = gaussian_second_moment(self.space, self.coefficients, cfg)
        mean = math.sqrt(est.mean)
        if mean == 0.0:
            return replace(est, mean=0.0)
        return replace(est, mean=mean, std_error=est.std_error / (2.0 * mean))


def covariance(f) -> np.ndarray:
    """Q = integral of f(t) f(t)^T dt, the (dim, dim) covariance of the
    Gaussian sum, exact for step, linear and grid sources."""
    if isinstance(f, GridFunction):
        values = f.values.reshape(-1, f.space.dim)
        return f.dx ** f.d * (values.T @ values)
    lens = np.diff(f.breakpoints)[:, None]
    if f.interpolation is Interpolation.STEP:
        v = f.values[1:]
        return (lens * v).T @ v
    a, b = f.values[:-1], f.values[1:]
    # integral over [0, 1] of ((1-u) a + u b)((1-u) a + u b)^T du
    cross = (lens * a).T @ b
    return ((lens * a).T @ a + (lens * b).T @ b) / 3.0 + (cross + cross.T) / 6.0


def covariance_operator(f) -> GammaOperator:
    """The exact operator of f: coefficient rows S = Q^{1/2}, the symmetric
    square root of the covariance (eigenvalues clipped at 0 against
    roundoff), so that S^T S = Q."""
    eigvals, eigvecs = np.linalg.eigh(covariance(f))
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return GammaOperator(coefficients=root, space=f.space, basis="covariance",
                         residual=0.0)


def gamma_norm_hilbert(f) -> float:
    """Exact Gaussian-sum norm for a Hilbert target: the L^2(S; E) norm."""
    if not f.space.is_hilbert:
        raise ValueError("gamma_norm_hilbert requires a Hilbert target space")
    if isinstance(f, PiecewiseFunction):
        return math.sqrt(l2_norm_squared(f))
    return math.sqrt(float((f.values ** 2).sum()) * f.dx ** f.d)


def gamma_norm_mc(f, cfg: MCConfig) -> MCEstimate:
    """Monte Carlo Gaussian-sum norm of a piecewise or grid function."""
    return covariance_operator(f).mc_norm(cfg)


def gamma_norm(f, cfg: MCConfig | None = None) -> MCEstimate:
    """Gaussian-sum norm of a piecewise or grid function: exact from Q where
    `LpSpace.gaussian_exact` holds (`gamma_norm_hilbert` on Hilbert targets,
    else sqrt(`l1_gaussian_second_moment`(Q)); std_error, samples and seed
    0), else `gamma_norm_mc`, which needs `cfg`.  Non-finite norms raise."""
    if not f.space.gaussian_exact:
        if cfg is None:
            raise ValueError(f"a sampled l^{f.space.p} target needs an MC config")
        return gamma_norm_mc(f, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        value = (gamma_norm_hilbert(f) if f.space.is_hilbert
                 else math.sqrt(l1_gaussian_second_moment(covariance(f))))
    if not math.isfinite(value):
        raise ValueError(f"the Gaussian-sum norm on l^{f.space.p} overflowed float range")
    return MCEstimate(mean=value, std_error=0.0, samples=0, seed=0)


@dataclass(frozen=True)
class DisjointGammaNorm:
    """Closed-form moments for coordinatewise-disjoint sources in l^p_n."""

    lp_moment: float    # (sum_k E|N(0, sigma_k^2)|^p)^{1/p} = (E ||.||_p^p)^{1/p}
    l2_moment: float    # (sum_k sigma_k^2)^{1/2} = Hilbert-path value
    sigmas: np.ndarray  # per-coordinate L^2 masses


def disjoint_lp_from_sigmas(sigmas, p) -> DisjointGammaNorm:
    p = _finite_exponent(p)
    sigmas = np.asarray(sigmas, dtype=float)
    if not ((sigmas >= 0.0) & (sigmas < math.inf)).all():
        raise ValueError("sigmas must be finite and >= 0")
    # E|N(0, s^2)|^p = s^p E|N(0,1)|^p, vectorized over the variances
    pth = gaussian_p_moment(1.0, p) * float((sigmas ** p).sum())
    return DisjointGammaNorm(lp_moment=pth ** (1.0 / p),
                             l2_moment=math.sqrt(float((sigmas ** 2).sum())),
                             sigmas=sigmas)


def gamma_norm_disjoint_lp(f: PiecewiseFunction, p) -> DisjointGammaNorm:
    """Exact Gaussian moments when each coordinate of f lives on its own
    cells: the Gaussian coordinates are then independent with variances
    sigma_k^2 = integral of the k-th coordinate squared.

    Raises if any segment has two active coordinates (the independence
    structure, and with it the closed form, would be lost).
    """
    if f.interpolation is Interpolation.STEP:
        active = f.values[1:] != 0.0
    else:
        active = (f.values[:-1] != 0.0) | (f.values[1:] != 0.0)
    if int(active.sum(axis=1).max(initial=0)) > 1:
        raise ValueError("coordinate supports overlap; the closed form does not apply")
    # the diagonal-Q case: each coordinate has variance Q_kk
    return disjoint_lp_from_sigmas(np.sqrt(np.diag(covariance(f))), p)


def ideal_compose(op: GammaOperator, matrix) -> GammaOperator:
    """Precompose with the adjoint of `matrix` on the coefficient space:
    the new coefficient rows are matrix @ C.  For a contraction the
    Gaussian-sum norm cannot increase."""
    matrix = np.asarray(matrix, dtype=float)
    m = op.coefficients.shape[0]
    if matrix.shape != (m, m):
        raise ValueError(f"matrix must be {m}x{m} to act on the coefficient space")
    return replace(op, coefficients=matrix @ op.coefficients)


@dataclass(frozen=True)
class PartitionCheck:
    """Both sides of a type/cotype partition inequality with error budget.

    std_error_budget is 0 for a Hilbert target (exact, and Pythagoras holds
    to roundoff), ROUNDOFF_RTOL * (lhs + rhs) for every other exact target
    (up to roundoff in the closed form), and otherwise the first-order bound
    on the Monte Carlo standard error of the margin.
    """

    direction: str            # "type" | "cotype"
    exponent: object          # p in [1, 2] or q in [2, inf]
    constant: float
    whole_norm: float
    part_norms: tuple
    lhs: float
    rhs: float
    margin: float             # rhs - lhs; expected >= 0 up to the budget
    std_error_budget: float
    exact: bool


def _partition_boundaries(f: PiecewiseFunction, partition):
    lo, hi = f.support
    parts = [(float(a), float(b)) for a, b in partition]
    if any(b <= a for a, b in parts):
        raise ValueError("empty or inverted partition interval")
    order = sorted(parts)
    if abs(order[0][0] - lo) > ALIGNMENT_TOL or abs(order[-1][1] - hi) > ALIGNMENT_TOL:
        raise ValueError("partition must cover the support")
    for (_, b), (a2, _) in zip(order[:-1], order[1:]):
        if abs(b - a2) > ALIGNMENT_TOL:
            raise ValueError("partition intervals must tile the support without "
                             "gaps or overlaps")
    return parts


def partition_inequality_check(f: PiecewiseFunction, partition, direction: str,
                               exponent, constant, cfg: MCConfig | None = None) -> PartitionCheck:
    """Compare ||I_f|| against the partition combination of ||I_f restricted||.

    type direction (p in [1, 2]):    ||R|| <= T_p (sum_j ||R_j||^p)^{1/p}
    cotype direction (q in [2, inf]): (sum_j ||R_j||^q)^{1/q} <= C_q ||R||

    Each norm is `gamma_norm` of f or of a piece, with a seed derived per
    piece; `cfg` is unused where those norms are exact.  A sampled check's
    budget is the conservative first-order combination of the standard
    errors.
    """
    parts = _partition_boundaries(f, partition)
    exponent = check_exponent(direction, exponent)
    constant = float(getattr(constant, "value", constant))
    if not 0.0 <= constant < math.inf:
        raise ValueError(f"constant must be finite and non-negative, got {constant}")

    pieces = [(f, ("whole",))] + [(f.restrict([iv]), ("part", j)) for j, iv in enumerate(parts)]
    ests = [gamma_norm(g, cfg if cfg is None
                       else replace(cfg, seed=derive_seed(cfg.seed, *label)))
            for g, label in pieces]
    (whole, *part_norms), (whole_se, *part_ses) = zip(*[(e.mean, e.std_error) for e in ests])
    exact = ests[0].samples == 0

    # the parts' l^r combination, r = p or q, and the sum of their errors: the
    # combination moves by at most one per unit move of a part norm
    arr = np.asarray(part_norms)
    combined = (float(arr.max()) if exponent is INF
                else float((arr ** exponent).sum()) ** (1.0 / exponent))
    combined_se = float(np.sum(part_ses))
    lhs, rhs, budget = ((whole, constant * combined, whole_se + constant * combined_se)
                        if direction == "type" else
                        (combined, constant * whole, combined_se + constant * whole_se))
    if exact and not f.space.is_hilbert:
        budget = ROUNDOFF_RTOL * (lhs + rhs)
    return PartitionCheck(direction=direction, exponent=exponent, constant=constant,
                          whole_norm=whole, part_norms=tuple(part_norms),
                          lhs=lhs, rhs=rhs, margin=rhs - lhs,
                          std_error_budget=budget, exact=exact)
