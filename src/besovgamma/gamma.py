"""Gaussian-sum norms of finite-rank integration operators.

A function f on a measure space S with values in E induces the operator
I_f: L^2(S) -> E, h |-> integral of f h.  Its Gaussian-sum norm is

    ||I_f||^2 = E || sum_m gamma_m I_f(h_m) ||^2

over any orthonormal basis (h_m); the value does not depend on the basis.
Everything here works with the finite-rank truncation of I_f to a chosen
orthonormal family: the coefficient matrix C with rows I_f(h_m).

Two concrete bases:

* cell indicators 1_cell / sqrt(width) -- exact (zero truncation residual)
  for step functions whose breakpoints align with the cell boundaries,
* the real trigonometric system on one period -- exact for band-limited
  grid functions once enough modes are kept.

The captured-versus-total L^2 energy gap is tracked as `residual`; builds
refuse sources whose residual exceeds a relative guard, since silently
truncating would bias every Monte Carlo estimate downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functions import GridFunction, Interpolation, PiecewiseFunction, l2_norm_squared
from .montecarlo import MCConfig, MCEstimate, batch_means, derive_seed, gaussian_array
from .spaces import INF, LpSpace, as_exponent, gaussian_p_moment

# Relative L^2 energy the chosen basis may fail to capture before a build
# errors out (truncation bias would otherwise contaminate MC estimates).
MAX_RELATIVE_RESIDUAL = 1e-6

# Breakpoints must sit this close (absolutely) to a cell boundary for the
# cell-indicator basis to be exact on a step function.
ALIGNMENT_TOL = 1e-12


@dataclass(frozen=True)
class GammaOperator:
    """Finite-rank operator in an explicit orthonormal basis.

    coefficients: (M, dim) array, row m = image of the m-th basis vector.
    residual: absolute L^2 energy of the source outside the basis span.
    basis: "cells" (with `boundaries`) or "trig" (with `period`, `modes`).
    """

    coefficients: np.ndarray
    space: LpSpace
    basis: str
    residual: float
    boundaries: np.ndarray | None = None
    period: float | None = None
    modes: int | None = None

    @property
    def rank_bound(self) -> int:
        return min(self.coefficients.shape)

    def hilbert_norm(self) -> float:
        """Exact norm of the truncated operator (Hilbert target only)."""
        if not self.space.is_hilbert:
            raise ValueError("exact path requires a Hilbert target")
        return math.sqrt(float((self.coefficients ** 2).sum()))

    def mc_norm(self, cfg: MCConfig) -> MCEstimate:
        """Monte Carlo estimate of the Gaussian-sum norm with a delta-method
        standard error on the square root."""
        m = self.coefficients.shape[0]
        draws = gaussian_array((cfg.samples, m), cfg.seed)
        sums = draws @ self.coefficients
        est = batch_means(self.space.norms(sums) ** 2, cfg.seed)
        mean = math.sqrt(est.mean)
        if mean == 0.0:
            return replace(est, mean=0.0)
        return replace(est, mean=mean, std_error=est.std_error / (2.0 * mean))


def _cell_coefficients(f: PiecewiseFunction, boundaries: np.ndarray):
    widths = np.diff(boundaries)
    coeffs = np.empty((widths.size, f.space.dim))
    for j in range(widths.size):
        coeffs[j] = f.integral(boundaries[j], boundaries[j + 1]) / math.sqrt(widths[j])
    return coeffs


def _guard_residual(total: float, captured: float, max_residual: float) -> float:
    residual = max(total - captured, 0.0)
    if residual > max_residual * total and total > 0.0:
        raise ValueError(
            f"basis captures too little of the source: relative residual "
            f"{residual / total:.3e} exceeds the {max_residual:.1e} guard")
    return residual


def build_cell_operator(f: PiecewiseFunction, cells=None,
                        max_residual: float = MAX_RELATIVE_RESIDUAL) -> GammaOperator:
    """Coefficients of I_f in the normalized cell-indicator basis.

    cells = None uses the function's own segments (zero residual for step
    sources); an integer asks for that many uniform cells over the
    support, in which case a step function's breakpoints must align with
    cell boundaries (a misaligned step would be silently smeared, which the
    error refuses).
    """
    lo, hi = f.support
    if cells is None:
        boundaries = f.breakpoints.copy()
    else:
        boundaries = np.linspace(lo, hi, int(cells) + 1)
        if f.interpolation is Interpolation.STEP:
            near = np.abs(f.breakpoints[:, None] - boundaries[None, :]).min(axis=1)
            if float(near.max()) > ALIGNMENT_TOL:
                raise ValueError("step breakpoints do not align with the cell "
                                 "boundaries; the indicator basis would bias the norm")
    coeffs = _cell_coefficients(f, boundaries)
    total = l2_norm_squared(f)
    residual = _guard_residual(total, float((coeffs ** 2).sum()), max_residual)
    return GammaOperator(coefficients=coeffs, space=f.space, basis="cells",
                         residual=residual, boundaries=boundaries)


def build_trig_operator(f: GridFunction, modes: int,
                        max_residual: float = MAX_RELATIVE_RESIDUAL) -> GammaOperator:
    """Coefficients of I_f in the real trigonometric basis on one period
    (constant + cos/sin at the first `modes` positive frequencies), read off
    the discrete spectrum exactly.  One-dimensional grids only."""
    if f.d != 1:
        raise ValueError("trigonometric basis is implemented for d = 1")
    n = f.n
    if not (1 <= modes <= n // 2 - 1):
        raise ValueError(f"modes must be in 1..{n // 2 - 1}")
    L = f.period
    fourier = np.fft.fft(f.values, axis=0) / n  # torus coefficients C_m
    rows = [math.sqrt(L) * fourier[0].real]
    for m in range(1, modes + 1):
        rows.append(math.sqrt(2.0 * L) * fourier[m].real)
        rows.append(-math.sqrt(2.0 * L) * fourier[m].imag)
    coeffs = np.stack(rows)
    total = L * float((np.abs(fourier) ** 2).sum())
    residual = _guard_residual(total, float((coeffs ** 2).sum()), max_residual)
    return GammaOperator(coefficients=coeffs, space=f.space, basis="trig",
                         residual=residual, period=L, modes=modes)


def build_grid_cell_operator(f: GridFunction, cells: int,
                             max_residual: float = MAX_RELATIVE_RESIDUAL) -> GammaOperator:
    """Cell-indicator coefficients for a grid function, cells uniform over
    the period and each holding a whole number of samples."""
    if f.d != 1:
        raise ValueError("grid cell basis is implemented for d = 1")
    if f.n % cells != 0:
        raise ValueError("cell count must divide the grid size")
    dx = f.dx
    width = f.period / cells
    sums = f.values.reshape(cells, f.n // cells, f.space.dim).sum(axis=1) * dx
    coeffs = sums / math.sqrt(width)
    total = float((f.values ** 2).sum()) * dx
    residual = _guard_residual(total, float((coeffs ** 2).sum()), max_residual)
    boundaries = np.arange(cells + 1) * width
    return GammaOperator(coefficients=coeffs, space=f.space, basis="cells",
                         residual=residual, boundaries=boundaries)


def gamma_norm_hilbert(f) -> float:
    """Exact Gaussian-sum norm for a Hilbert target: the L^2(S; E) norm."""
    if not f.space.is_hilbert:
        raise ValueError("gamma_norm_hilbert requires a Hilbert target space")
    if isinstance(f, PiecewiseFunction):
        return math.sqrt(l2_norm_squared(f))
    return math.sqrt(float((f.values ** 2).sum()) * f.dx ** f.d)


def _as_operator(f, basis: str, size, max_residual: float) -> GammaOperator:
    if isinstance(f, GammaOperator):
        return f
    if isinstance(f, PiecewiseFunction):
        if basis != "cells":
            raise ValueError("piecewise sources use the cell basis")
        return build_cell_operator(f, cells=size, max_residual=max_residual)
    if size is None:
        unit = "modes" if basis == "trig" else "cells"
        raise ValueError(f"grid sources need `size`, the number of {unit} in the basis")
    if basis == "trig":
        return build_trig_operator(f, modes=size, max_residual=max_residual)
    return build_grid_cell_operator(f, cells=size, max_residual=max_residual)


def gamma_norm_mc(f, cfg: MCConfig, basis: str = "cells", size=None,
                  max_residual: float = MAX_RELATIVE_RESIDUAL) -> MCEstimate:
    """Monte Carlo Gaussian-sum norm of a function (or prebuilt operator)."""
    return _as_operator(f, basis, size, max_residual).mc_norm(cfg)


@dataclass(frozen=True)
class DisjointGammaNorm:
    """Closed-form moments for coordinatewise-disjoint sources in l^p_n."""

    lp_moment: float    # (sum_k E|N(0, sigma_k^2)|^p)^{1/p} = (E ||.||_p^p)^{1/p}
    l2_moment: float    # (sum_k sigma_k^2)^{1/2} = Hilbert-path value
    sigmas: np.ndarray  # per-coordinate L^2 masses


def disjoint_lp_from_sigmas(sigmas, p) -> DisjointGammaNorm:
    p = as_exponent(p)
    if p is INF:
        raise ValueError("the closed form needs a finite exponent")
    p = float(p)
    sigmas = np.asarray(sigmas, dtype=float)
    # E|N(0, s^2)|^p = s^p E|N(0,1)|^p, vectorized over the variances
    pth = gaussian_p_moment(1.0, p) * float((sigmas ** p).sum())
    return DisjointGammaNorm(lp_moment=pth ** (1.0 / p),
                             l2_moment=math.sqrt(float((sigmas ** 2).sum())),
                             sigmas=sigmas)


def _coordinate_sigmas(f: PiecewiseFunction) -> np.ndarray:
    lens = np.diff(f.breakpoints)
    if f.interpolation is Interpolation.STEP:
        energy = (f.values[1:] ** 2 * lens[:, None]).sum(axis=0)
    else:
        a, b = f.values[:-1], f.values[1:]
        energy = ((a * a + a * b + b * b) / 3.0 * lens[:, None]).sum(axis=0)
    return np.sqrt(energy)


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
    return disjoint_lp_from_sigmas(_coordinate_sigmas(f), p)


def restrict_gamma(f: PiecewiseFunction, subset, cells=None,
                   max_residual: float = MAX_RELATIVE_RESIDUAL) -> GammaOperator:
    """Operator of f restricted to a union of intervals: I_{f 1_subset}.

    Restriction never increases the Gaussian-sum norm (compose with the
    multiplication contraction 1_subset).
    """
    restricted = f.restrict(subset)
    return build_cell_operator(restricted, cells=cells, max_residual=max_residual)


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
    """Both sides of a type/cotype partition inequality with error budget."""

    direction: str            # "type" | "cotype"
    exponent: object          # p in [1, 2] or q in [2, inf]
    constant: float
    whole_norm: float
    part_norms: tuple
    lhs: float
    rhs: float
    margin: float             # rhs - lhs; expected >= 0 up to MC noise
    std_error_budget: float   # first-order bound on the margin's std error
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

    Hilbert targets use the exact path (zero error budget); otherwise each
    norm is estimated by MC with a seed derived per part, and the budget is
    the conservative first-order combination of the standard errors.
    """
    parts = _partition_boundaries(f, partition)
    exponent = as_exponent(exponent)
    if direction == "type":
        if exponent is INF or not (1.0 <= float(exponent) <= 2.0):
            raise ValueError("type direction needs p in [1, 2]")
    elif direction == "cotype":
        if exponent is not INF and float(exponent) < 2.0:
            raise ValueError("cotype direction needs q in [2, inf]")
    else:
        raise ValueError("direction must be 'type' or 'cotype'")
    constant = float(getattr(constant, "value", constant))

    exact = f.space.is_hilbert
    if exact:
        whole = gamma_norm_hilbert(f)
        part_norms = [math.sqrt(l2_norm_squared(f.restrict([iv]))) for iv in parts]
        whole_se, part_ses = 0.0, [0.0] * len(parts)
    else:
        if cfg is None:
            raise ValueError("non-Hilbert targets need an MC config")
        est = gamma_norm_mc(f, replace(cfg, seed=derive_seed(cfg.seed, "whole")))
        whole, whole_se = est.mean, est.std_error
        part_norms, part_ses = [], []
        for j, iv in enumerate(parts):
            op = restrict_gamma(f, [iv])
            pe = op.mc_norm(replace(cfg, seed=derive_seed(cfg.seed, "part", j)))
            part_norms.append(pe.mean)
            part_ses.append(pe.std_error)

    arr = np.asarray(part_norms)
    if direction == "type":
        p = float(exponent)
        lhs = whole
        rhs = constant * float((arr ** p).sum()) ** (1.0 / p)
        # d rhs / d part_j has magnitude <= constant, so sum the part errors
        budget = whole_se + constant * float(np.sum(part_ses))
    else:
        if exponent is INF:
            lhs = float(arr.max())
        else:
            q = float(exponent)
            lhs = float((arr ** q).sum()) ** (1.0 / q)
        rhs = constant * whole
        budget = float(np.sum(part_ses)) + constant * whole_se
    return PartitionCheck(direction=direction, exponent=exponent, constant=constant,
                          whole_norm=whole, part_norms=tuple(part_norms),
                          lhs=lhs, rhs=rhs, margin=rhs - lhs,
                          std_error_budget=budget, exact=exact)
