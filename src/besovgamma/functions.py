"""Concrete function representations for the norm machinery.

Two representations cover everything the experiments need:

* `PiecewiseFunction` — vector-valued step or piecewise-linear functions on
  a bounded interval, zero outside.  Intervals are right-closed: a step
  takes the stored value on (t_{j-1}, t_j], so ties at breakpoints resolve
  to the left segment.  L^p norms of steps are closed-form exact;
  piecewise-linear segments use one fixed Gauss-Legendre rule
  (`_affine_powers`, 32 nodes per segment).  Its error is at roundoff
  where the integrand ||a + t (b - a)||^p is smooth inside a segment, but
  an l^p coordinate that changes sign inside a segment puts a |t|^p kink
  there: the scalar source -1 -> 1 on [0, 1] reads 0.50039 at p = 1
  (7.8e-4 relative) and 8.0e-5 relative off at p = 1.5.

* `GridFunction` — vector-valued samples on a uniform periodic grid over
  [0, L)^d, d in {1, 2}, N a power of two per axis.  The samples are
  treated as the trigonometric interpolant for all spectral operations.
  `spectrum` returns values of the continuous-convention transform
  (2 pi)^{-d/2} integral f e^{-i x xi} dx at the grid frequencies
  2 pi m / L, so round-tripping through `from_spectrum` is exact up to FFT
  roundoff.

Dilation by powers of two treats grid samples as a function living in the
centered window [-L/2, L/2)^d: shrinking (lambda > 1) strides indices and
zeroes everything dilated in from outside the window, growing
(lambda < 1) interpolates trigonometrically.  That is the semantics under
which ||f(lambda .)||_p picks up the lambda^{-d/p} volume factor a
whole-period stride would lose.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .spaces import INF, LpSpace, as_exponent

GL_NODES = 32

# Energy fraction `dilate` may silently discard at the window edge, and the
# spectral-energy fraction allowed to live outside the reported active band
# (leak floors from windowing sit well below this but far above any
# amplitude threshold one could safely pick).
DILATE_DISCARD_TOL = 1e-4
BAND_ENERGY_TOL = 1e-6


class Interpolation(enum.Enum):
    STEP = "step"
    LINEAR = "linear"


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


@dataclass
class PiecewiseFunction:
    """A vector-valued function given by breakpoints and per-breakpoint values.

    breakpoints: strictly increasing array (m+1,) spanning the support.
    values: array (m+1, dim); for STEP, values[j] is the value on
        (t_{j-1}, t_j] (values[0] only pins f at the left endpoint); for
        LINEAR, values are nodal and the function interpolates linearly.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    interpolation: Interpolation
    space: LpSpace

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.breakpoints.ndim != 1 or self.breakpoints.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(self.breakpoints) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        expected = (self.breakpoints.size, self.space.dim)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")
        if not isinstance(self.interpolation, Interpolation):
            self.interpolation = Interpolation(self.interpolation)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def evaluate(self, t) -> np.ndarray:
        """Pointwise values, zero outside the support, ties to the left segment."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        b = self.breakpoints
        idx = np.searchsorted(b, t, side="left")
        out = np.zeros((t.size, self.space.dim))
        inside = (idx >= 1) & (idx <= b.size - 1)
        if self.interpolation is Interpolation.STEP:
            out[inside] = self.values[idx[inside]]
        else:
            j = idx[inside]
            left, right = b[j - 1], b[j]
            theta = ((t[inside] - left) / (right - left))[:, None]
            out[inside] = (1.0 - theta) * self.values[j - 1] + theta * self.values[j]
        at_left_end = t == b[0]
        out[at_left_end] = self.values[0]
        return out[0] if scalar else out

    def restrict(self, intervals: Sequence[tuple[float, float]]) -> "PiecewiseFunction":
        """Multiply by the indicator of a finite union of intervals, exactly.

        Step functions restrict exactly at arbitrary cut points.  Linear
        interpolants must vanish at every interior cut point (a nonzero cut
        would need a jump this representation cannot store).
        """
        a, b = self.support
        ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            if not (lo < hi):
                raise ValueError("intervals must have positive length")
            if lo < a - 1e-12 or hi > b + 1e-12:
                raise ValueError("restriction subset must lie within the support")
        for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
            if lo2 < hi1:
                raise ValueError("restriction intervals must be disjoint")
        cuts = np.array([x for pair in ivs for x in pair])
        linear = self.interpolation is Interpolation.LINEAR
        if linear:
            scale = max(np.abs(self.values).max(), 1.0)
            inner = cuts[(a + 1e-12 < cuts) & (cuts < b - 1e-12)]
            if (self.space.norms(self.evaluate(inner)) > 1e-12 * scale).any():
                raise ValueError("linear restriction cut at a point where the function "
                                 "is nonzero is not representable")
        merged = np.unique(np.concatenate([self.breakpoints, np.clip(cuts, a, b)]))
        # a point lies in some (lo, hi] when an odd number of the sorted cuts
        # lie below it; a step's value at merged[k] is its value on
        # (merged[k-1], merged[k]], its pin at merged[0] stays 0, and a linear
        # node at merged[0] is kept inside a closed interval
        keep = np.searchsorted(cuts, merged) % 2 == 1
        keep[0] = linear and (keep[0] or merged[0] in cuts[::2])
        new_values = self.evaluate(merged) * keep[:, None]
        return PiecewiseFunction(merged, new_values, self.interpolation, self.space)


def _affine_powers(space: LpSpace, lens, a, b, p: float):
    """sum over cells of (len/2) sum_k w_k ||a + theta_k (b - a)||^p, the
    GL_NODES-point Gauss-Legendre rule for the integral of ||u||^p over
    cells of lengths `lens` (..., cells) on which u runs affinely from
    a to b (..., cells, dim); summed over the last cell axis.  Smooth
    integrands are integrated to roundoff, but where a coordinate of u
    changes sign inside a cell |.|^p has a kink the rule misses: the scalar
    u from -1 to 1 on [0, 1] reads 0.50039 at p = 1 (exact 0.5, 7.8e-4
    relative) and 8.0e-5 relative off at p = 1.5."""
    nodes, weights = _gl_rule(GL_NODES)
    theta = (0.5 * (nodes + 1.0))[:, None]
    powered = space.norms(a[..., None, :] + theta * (b - a)[..., None, :]) ** p
    return 0.5 * (lens * (powered @ weights)).sum(axis=-1)


def lp_norm(f: PiecewiseFunction, p) -> float:
    """L^p(R; E) norm.  Steps are closed-form exact; linear segments use
    `_affine_powers`; p = INF is exact for both kinds (a linear path's norm
    is convex, so its sup sits at a breakpoint)."""
    p = as_exponent(p)
    if p is INF:
        if f.interpolation is Interpolation.STEP:
            return float(f.space.norms(f.values[1:]).max())
        return float(f.space.norms(f.values).max())
    lens = np.diff(f.breakpoints)
    if f.interpolation is Interpolation.STEP:
        total = float(lens @ f.space.norms(f.values[1:]) ** p)
    else:
        total = float(_affine_powers(f.space, lens, f.values[:-1], f.values[1:], p))
    return total ** (1.0 / p)


def l2_norm_squared(f: PiecewiseFunction) -> float:
    """Exact integral of ||f(t)||_2^2 (Euclidean), both interpolation kinds."""
    lens = np.diff(f.breakpoints)
    if f.interpolation is Interpolation.STEP:
        segs = f.values[1:]
        return float(lens @ (segs * segs).sum(axis=1))
    a = f.values[:-1]
    b = f.values[1:]
    per_seg = ((a * a).sum(axis=1) + (a * b).sum(axis=1) + (b * b).sum(axis=1)) / 3.0
    return float(lens @ per_seg)


def _every_axis(op: np.ufunc, a: np.ndarray, d: int) -> np.ndarray:
    """The per-axis array `a` combined over d axes: a[i] op a[j] op ... at
    (i, j, ...), e.g. np.logical_and for a mask or np.add for a sum."""
    return reduce(op.outer, [a] * d)


def _frequency_radii(period: float, n: int, d: int) -> np.ndarray:
    """|xi| at every bin of an n-point-per-axis grid of the given period."""
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    return np.sqrt(_every_axis(np.add, xi ** 2, d))


@dataclass
class GridFunction:
    """Vector-valued samples on a uniform periodic grid of [0, period)^d."""

    period: float
    values: np.ndarray
    space: LpSpace

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.period = float(self.period)
        if self.period <= 0:
            raise ValueError("period must be positive")
        d = self.values.ndim - 1
        if d not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        n = self.values.shape[0]
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("points per axis must be a power of two")
        axes = self.values.shape[:-1]
        if any(m != n for m in axes):
            raise ValueError("grid must be square")
        if self.values.shape[-1] != self.space.dim:
            raise ValueError("last axis must match the space dimension")

    @property
    def d(self) -> int:
        return self.values.ndim - 1

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return self.period / self.n

    def frequency_radii(self) -> np.ndarray:
        """|xi| at every spectral bin, same leading shape as the spectrum."""
        return _frequency_radii(self.period, self.n, self.d)

    def spectrum(self) -> np.ndarray:
        """Continuous-convention transform values at the grid frequencies."""
        axes = tuple(range(self.d))
        scale = (2.0 * math.pi) ** (-self.d / 2.0) * self.dx ** self.d
        return scale * np.fft.fftn(self.values, axes=axes)

    @staticmethod
    def from_spectrum(spec: np.ndarray, period: float, space: LpSpace) -> "GridFunction":
        spec = np.asarray(spec, dtype=complex)
        d = spec.ndim - 1
        n = spec.shape[0]
        dxi = 2.0 * math.pi / period
        axes = tuple(range(d))
        scale = (2.0 * math.pi) ** (-d / 2.0) * dxi ** d * n ** d
        vals = scale * np.fft.ifftn(spec, axes=axes)
        mag = np.abs(vals.real).max()
        if np.abs(vals.imag).max() > 1e-9 * max(mag, 1e-300):
            raise ValueError("spectrum is not conjugate-symmetric; values would be complex")
        return GridFunction(period, vals.real.copy(), space)


def grid_lp_norm(f: GridFunction, p) -> float:
    """Rectangle-rule L^p norm over one period (exact for p = 2 on
    band-limited data by Parseval; otherwise accurate to the usual
    trapezoidal order for resolved samples)."""
    p = as_exponent(p)
    norms = f.space.norms(f.values)
    if p is INF:
        return float(norms.max())
    return float((norms ** p).sum() * f.dx ** f.d) ** (1.0 / p)


def _centered_indices(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.where(j < n // 2, j, j - n)


def _active_axis_band(f: GridFunction) -> list[int]:
    """Smallest per-axis |frequency index| band holding all but
    BAND_ENERGY_TOL of the spectral energy."""
    energy = (np.abs(f.spectrum()) ** 2).sum(axis=-1)
    idx = np.abs(_centered_indices(f.n))
    bands = []
    for axis in range(f.d):
        prof = energy.sum(axis=tuple(a for a in range(f.d) if a != axis))
        total = prof.sum()
        order = np.argsort(idx, kind="stable")
        cum = np.cumsum(prof[order])
        enough = cum >= (1.0 - BAND_ENERGY_TOL) * total  # all True at total = 0: band 0
        bands.append(int(idx[order][np.argmax(enough)]))
    return bands


def dilate(f: GridFunction, lam: float) -> "GridFunction":
    """Samples of x -> f(lam x) for lam = 2^n, window semantics.

    lam >= 1 strides indices (exact sample reuse) and zeroes content whose
    preimage falls outside the centered window; if the energy that would be
    discarded exceeds DILATE_DISCARD_TOL of the total, or the dilated band
    would cross the Nyquist frequency, this raises instead of silently
    corrupting the spectrum.  lam = 2^{-s} upsamples by trigonometric
    interpolation (exact for the stored trigonometric interpolant).
    """
    lam = float(lam)
    n_log = math.log2(lam)
    if abs(n_log - round(n_log)) > 1e-12:
        raise ValueError("dilation factor must be a power of two")
    n_log = int(round(n_log))
    if n_log == 0:
        return GridFunction(f.period, f.values.copy(), f.space)
    N = f.n
    if n_log > 0:
        stride = 2 ** n_log
        for band in _active_axis_band(f):
            if band * stride > N // 2 - 1:
                raise ValueError("dilation would push the active band past Nyquist")
        # Node j keeps sample src = j * stride while j lies in the shrunken
        # window [-half, half); f's energy outside it is about to be dropped.
        jc = _centered_indices(N)
        src = jc * stride
        half = N // (2 * stride)
        kept = _every_axis(np.logical_and, (jc >= -half) & (jc < half), f.d)
        gather = np.ix_(*[src % N] * f.d)
        energy = (f.values ** 2).sum(axis=-1)
        discarded = energy[~kept].sum()
        total = energy.sum()
        new_vals = np.where(kept[..., None], f.values[gather], 0.0)
        if total > 0 and discarded > DILATE_DISCARD_TOL * total:
            raise ValueError("dilation would discard too much mass at the window edge "
                             f"({discarded / total:.2e} of the total energy)")
        return GridFunction(f.period, new_vals, f.space)
    # lam < 1: upsample by zero-padding the spectrum, then sample the fine grid
    # at the original node positions scaled by lam.
    up = 2 ** (-n_log)
    spec = np.fft.fftn(f.values, axes=tuple(range(f.d)))
    jc = _centered_indices(N)
    total_energy = max((np.abs(spec) ** 2).sum(), 1e-300)
    for axis in range(f.d):
        if (np.abs(spec.take(N // 2, axis=axis)) ** 2).sum() > BAND_ENERGY_TOL * total_energy:
            raise ValueError("content at the Nyquist bin cannot be upsampled unambiguously")
    fine_n = up * N
    fine_spec = np.zeros((fine_n,) * f.d + (f.space.dim,), dtype=complex)
    # bin m and node j both sit at index (m or j) mod fine_n of the fine grid
    at = np.ix_(*[jc % fine_n] * f.d)
    fine_spec[at] = spec
    fine_vals = np.fft.ifftn(fine_spec, axes=tuple(range(f.d))).real * (up ** f.d)
    new_vals = fine_vals[at]
    return GridFunction(f.period, new_vals, f.space)
