"""Concrete function representations for the norm machinery.

Two representations cover everything the experiments need:

* `PiecewiseFunction` — vector-valued step or piecewise-linear functions on
  a bounded interval, zero outside.  Intervals are right-closed: a step
  takes the stored value on (t_{j-1}, t_j], so ties at breakpoints resolve
  to the left segment.  Finite-p L^p norms (closed form) and the
  difference norms in `besov` are computed for steps only (`_steps_only`
  refuses a linear source); the sup norm, the L^2 norm, restriction and
  evaluation are exact for both kinds.

* `GridFunction` — vector-valued samples on a uniform periodic grid over
  [0, L)^d, d in {1, 2}, N a power of two per axis.  The samples are
  treated as the trigonometric interpolant for all spectral operations.
  `spectrum` returns values of the continuous-convention transform
  (2 pi)^{-d/2} integral f e^{-i x xi} dx at the grid frequencies
  2 pi m / L, so round-tripping through `from_spectrum` is exact up to FFT
  roundoff.  These two keep full complex spectra; every other transform of
  real samples, here and in `besov`, is a real-input half spectrum.

Dilation by lambda = 2^k, k >= 0, treats grid samples as a function living
in the centered window [-L/2, L/2)^d: after one band rule on the half
spectrum (the dilated spectrum must stay below Nyquist), it strides indices
and zeroes what is dilated in from outside the window, so the samples it
keeps are gathered, exact.  Under these semantics ||f(lambda .)||_p picks
up the lambda^{-d/p} volume factor a whole-period stride would lose.

In dimension 1, `LpSpace.norms` and `dilate`'s energy sums read the one
coordinate instead of reducing over it, the bits of the sum; the norms keep
each p's formula, not |x|, so an l^p norm leaves float range where it did.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .spaces import INF, LpSpace, _over_coordinates, as_exponent

# Energy fraction `dilate` may silently discard at the window edge, and the
# spectral-energy fraction it allows past the band that its stride keeps
# below Nyquist (leak floors from windowing sit well below this but far
# above any amplitude threshold one could safely pick).
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

    breakpoints: finite, strictly increasing array (m+1,) spanning the support.
    values: finite array (m+1, dim); for STEP, values[j] is the value on
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
        if not (np.isfinite(self.breakpoints).all() and np.all(np.diff(self.breakpoints) > 0)):
            raise ValueError("breakpoints must be finite and strictly increasing")
        expected = (self.breakpoints.size, self.space.dim)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("values must have finite entries")
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


def _steps_only(f: PiecewiseFunction) -> None:
    """Refuse a linear source where only the step closed forms are computed."""
    if f.interpolation is not Interpolation.STEP:
        raise ValueError("finite-p L^p and difference norms are computed for step functions")


@np.errstate(over="ignore", invalid="ignore")  # `_in_float_range` names what leaves float range
def _power_total(f: PiecewiseFunction, p: float) -> float:
    """||f||_p^p of a step in closed form; inf or nan, without a warning,
    where it leaves float range."""
    lens = f.breakpoints[1:] - f.breakpoints[:-1]
    return float(lens @ f.space.norms(f.values[1:]) ** p)


def _in_float_range(powers: np.ndarray, f: PiecewiseFunction, p: float) -> np.ndarray:
    """`powers`, sums of p-th powers over f (||f||_p^p, or F at some shifts),
    once each is finite and no 0 hides a nonzero f whose ||f||_p^p
    underflows; either fault raises, naming p.  A 0 from f = 0 stands, and
    so does F at a shift that rounds away against the breakpoints."""
    if powers.min(initial=math.inf) > 0.0 and powers.max(initial=0.0) < math.inf:
        return powers
    if not np.isfinite(powers).all():
        raise ValueError(f"a p-th power of f leaves float range at p = {p}")
    if f.values[1:].any() and _power_total(f, p) == 0.0:
        raise ValueError(f"f is below float range: ||f||_p^p underflows to 0 at p = {p} "
                         "(rescale it)")
    return powers


def lp_norm(f: PiecewiseFunction, p) -> float:
    """L^p(R; E) norm.  Finite p takes steps only, closed-form exact (a
    linear source raises, `_steps_only`); p = INF is exact for both kinds
    (a linear path's norm is convex, so its sup sits at a breakpoint).  A
    norm whose p-th power (for p = INF, the space's norm of a value) leaves
    float range, or underflows to 0 for a nonzero f, raises a ValueError
    naming p (`_in_float_range` for finite p)."""
    p = as_exponent(p)
    if p is INF:
        values = f.values[1:] if f.interpolation is Interpolation.STEP else f.values
        with np.errstate(over="ignore", under="ignore"):  # named below
            top = float(f.space.norms(values).max())
        if top == math.inf:
            raise ValueError(f"the l^{f.space.p} norm of f leaves float range at p = {p}")
        if top == 0.0 and values.any():
            raise ValueError(f"f is below float range: its l^{f.space.p} norm underflows "
                             f"to 0 at p = {p} (rescale it)")
        return top
    _steps_only(f)
    total = _power_total(f, p)
    if not 0.0 < total < math.inf:  # `_in_float_range` raises unless f = 0
        _in_float_range(np.array([total]), f, p)
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


def _check_grid(period: float, n: int, d: int) -> None:
    """The rule every periodic grid keeps, a `GridFunction`'s and a filter
    bank's: a finite positive period, d in {1, 2} axes and a power of two
    n >= 2 points per axis."""
    if not 0.0 < period < math.inf:
        raise ValueError("period must be positive and finite")
    if d not in (1, 2):
        raise ValueError("grid dimension must be 1 or 2")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError("points per axis must be a power of two")


def _frequency_radii(period: float, n: int, d: int) -> np.ndarray:
    """|xi| at every bin of an n-point-per-axis grid of the given period."""
    xi = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    return np.sqrt(_every_axis(np.add, xi ** 2, d))


@dataclass
class GridFunction:
    """Vector-valued finite samples on a uniform periodic grid of [0, period)^d."""

    period: float
    values: np.ndarray
    space: LpSpace

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.period = float(self.period)
        n = self.values.shape[0] if self.values.ndim else 0
        _check_grid(self.period, n, self.values.ndim - 1)
        if any(m != n for m in self.values.shape[:-1]):
            raise ValueError("grid must be square")
        if self.values.shape[-1] != self.space.dim:
            raise ValueError("last axis must match the space dimension")
        if not np.isfinite(self.values).all():
            raise ValueError("values must have finite entries")

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
        if not np.isfinite(spec).all():
            raise ValueError("spectrum must have finite entries")
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


@np.errstate(over="ignore", under="ignore")  # named below
def grid_lp_norm(f: GridFunction, p) -> float:
    """Rectangle-rule L^p norm over one period (exact for p = 2 on
    band-limited data by Parseval; otherwise accurate to the usual
    trapezoidal order for resolved samples).  As in `lp_norm`, a total
    (the sum of p-th powers, or for p = INF the largest value norm) that
    leaves float range, or underflows to 0 for a nonzero f, raises a
    ValueError naming p; only that scalar is checked."""
    p = as_exponent(p)
    norms = f.space.norms(f.values)
    if p is INF:
        total = float(norms.max())
    else:
        # in place on the norms' own array: np.square at p = 2, as ** takes it
        powers = np.square(norms, out=norms) if p == 2.0 else np.power(norms, p, out=norms)
        total = float(powers.sum() * f.dx ** f.d)
    if not 0.0 < total < math.inf and (total != 0.0 or f.values.any()):
        raise ValueError(f"the grid norm of f leaves float range at p = {p}: its total "
                         f"reads {total} (rescale f)")
    return total if p is INF else total ** (1.0 / p)


def _centered_indices(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.where(j < n // 2, j, j - n)


def dilate(f: GridFunction, lam: float) -> "GridFunction":
    """Samples of x -> f(lam x) for lam = 2^k, k >= 0, window semantics.

    One band rule: on every axis, the spectral energy at centered indices
    |m| > (N/2 - 1) // lam may be at most BAND_ENERGY_TOL of the total, read
    off the half spectrum (rfftn), where bins 1..N/2 - 1 of the halved last
    axis also stand for their mirrors and count twice; a length-1 vector
    axis is read, not summed.  It then strides indices (exact sample reuse)
    and zeroes content whose preimage falls outside the centered window,
    raising if more than DILATE_DISCARD_TOL of the energy would go.
    """
    lam = float(lam)
    n_log = math.log2(lam) if 1.0 <= lam < math.inf else 0.5  # 0.5: no power of two
    if abs(n_log - round(n_log)) > 1e-12:
        raise ValueError("dilation factor must be a power of two, 2^k with k >= 0")
    n_log = int(round(n_log))
    if n_log == 0:
        return GridFunction(f.period, f.values.copy(), f.space)
    N, axes = f.n, tuple(range(f.d))
    stride = 2 ** n_log
    spec = np.fft.rfftn(f.values, axes=axes)
    power = _over_coordinates(np.add, np.abs(spec) ** 2)
    power[..., 1:N // 2] *= 2.0
    jc = _centered_indices(N)
    beyond = np.abs(jc) > (N // 2 - 1) // stride  # |jc| of half bins 0..N/2 is 0..N/2
    total = power.sum()
    for axis in range(f.d):
        if power.compress(beyond[:power.shape[axis]], axis=axis).sum() > BAND_ENERGY_TOL * total:
            raise ValueError("dilation would push the active band past Nyquist")
    # Node j keeps sample j * stride while j lies in the shrunken
    # window [-half, half); f's energy outside it is about to be dropped.
    half = N // (2 * stride)
    kept = _every_axis(np.logical_and, (jc >= -half) & (jc < half), f.d)
    gather = np.ix_(*[jc * stride % N] * f.d)
    new_vals = np.where(kept[..., None], f.values[gather], 0.0)
    energy = _over_coordinates(np.add, f.values ** 2)  # after the gather: less live at once
    discarded = energy[~kept].sum()
    total = energy.sum()
    if total > 0 and discarded > DILATE_DISCARD_TOL * total:
        raise ValueError("dilation would discard too much mass at the window edge "
                         f"({discarded / total:.2e} of the total energy)")
    return GridFunction(f.period, new_vals, f.space)
