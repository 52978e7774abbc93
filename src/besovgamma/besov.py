"""Dyadic band decompositions and three routes to a smoothness norm.

Frequency route: a radial profile built from the quintic smoothstep cuts
the spectrum into dyadic shells.  With chi(r) = 1 on [0, 1], 0 on [2, inf)
and the smoothstep between, the band profile chi(r) - chi(2r) is
nonnegative, lives on 1/2 <= r <= 2, and the shifts chi(r/2^k) telescope,
so the level multipliers

    m_0(xi) = chi(|xi|),   m_k(xi) = chi(|xi|/2^k) - chi(|xi|/2^{k-1})

sum to chi(|xi|/2^K) over k = 0..K, which is exactly 1 for |xi| <= 2^K.
The smoothness norm is then the weighted l^q sequence norm of the block
L^p norms, weight 2^{ks} at level k: one forward transform of f, then one
inverse transform per level.

Difference route (for compactly supported piecewise functions on the
line): L^p norm plus the l^q-in-t integral of t^{-s} times the modulus of
continuity.  One algorithm serves steps and linear sources: the shift
profile F(h) = ||f(.+h) - f||_p^p is evaluated at a set of shifts in one
vectorised pass (`_shift_powers`, the only code that computes F; the
single-shift `translate_diff_norm` calls it too), and the modulus and the
integral are read off those values (`_seminorm`).  The source kind decides
only which shifts are sampled: for steps the breakpoint differences, where
F has its kinks, so the result is exact up to quadrature roundoff; for
linear sources those plus a fixed geometric grid.

Holder route (piecewise linear only): the sup norm plus the difference
quotient maximized over breakpoint pairs.  That maximum is exact, not a
sample: within a segment pair the quotient has a convex numerator and a
concave positive denominator in each variable, hence is quasiconvex along
every edge of the pair's parameter rectangle, so its maximum sits at a
corner, i.e. at breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (GL_NODES, GridFunction, Interpolation, PiecewiseFunction,
                        _affine_powers, _frequency_radii, _gl_rule, grid_lp_norm,
                        lp_norm)
from .spaces import INF, as_exponent, lq_norm


def smoothstep(u):
    """The C^2 quintic ramp 6u^5 - 15u^4 + 10u^3, clamped to [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def chi(r):
    """Radial cutoff: 1 on [0, 1], 0 on [2, inf), smoothstep ramp between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - smoothstep(r - 1.0)


def band_profile(r):
    """chi(r) - chi(2r): nonnegative, supported on 1/2 <= r <= 2."""
    return chi(r) - chi(2.0 * np.asarray(r, dtype=float))


@dataclass
class FilterBank:
    """Sampled dyadic multipliers m_0..m_K on one grid's frequency bins."""

    period: float
    n: int
    d: int
    levels: int
    multipliers: np.ndarray  # (levels + 1, n) or (levels + 1, n, n)

    def compatible_with(self, f: GridFunction) -> bool:
        return (f.period == self.period and f.n == self.n and f.d == self.d)

    def partition_residual(self, radius_limit: float) -> float:
        """max |sum_k m_k - 1| over bins with |xi| <= radius_limit."""
        total = self.multipliers.sum(axis=0)
        radii = _frequency_radii(self.period, self.n, self.d)
        mask = radii <= radius_limit
        return float(np.abs(total[mask] - 1.0).max())

    def kernel(self, k: int) -> np.ndarray:
        """Spatial convolution kernel of level k on the grid."""
        axes = tuple(range(self.d))
        scale = (self.n / self.period) ** self.d
        kern = np.fft.ifftn(self.multipliers[k], axes=axes) * scale
        return kern.real

    def kernel_l1(self, k: int) -> float:
        dx = self.period / self.n
        return float(np.abs(self.kernel(k)).sum() * dx ** self.d)


def build_filter_bank(period: float, n: int, d: int, levels: int) -> FilterBank:
    """Sample the dyadic multipliers for levels 0..levels on the given grid.

    Requires 2^levels strictly below the grid Nyquist frequency pi n / period
    so every level it claims to resolve actually has bins.
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if levels < 1:
        raise ValueError("need at least one band level")
    nyquist = math.pi * n / period
    if levels > 1023 or 2.0 ** levels >= nyquist:  # 2^1024 exceeds every float
        raise ValueError(f"2^levels (levels = {levels}) must stay below the "
                         f"Nyquist frequency {nyquist:.3f}")
    radii = _frequency_radii(period, n, d)
    mults = np.empty((levels + 1,) + radii.shape)
    mults[0] = chi(radii)
    for k in range(1, levels + 1):
        mults[k] = band_profile(radii / 2.0 ** k)
    return FilterBank(period=float(period), n=int(n), d=int(d),
                      levels=int(levels), multipliers=mults)


def _filtered(f: GridFunction, spec: np.ndarray, mult, scale: float) -> GridFunction:
    """Inverse transform of mult * spec; imaginary part checked against scale."""
    out = np.fft.ifftn(spec * np.asarray(mult)[..., None], axes=tuple(range(f.d)))
    if float(np.abs(out.imag).max()) > 1e-9 * scale:
        raise ValueError("multiplier output has a non-negligible imaginary part")
    return GridFunction(f.period, out.real, f.space)


def apply_multiplier(f: GridFunction, mult: np.ndarray) -> GridFunction:
    """Pointwise Fourier multiplier on the grid (circular convolution with
    the multiplier's kernel).  The multiplier must be real; the output's
    imaginary part is checked against the input's scale, so an (exactly or
    nearly) annihilated function stays unflagged.  `besov_norm_fourier`
    runs the same inverse step on one shared forward transform."""
    spec = np.fft.fftn(f.values, axes=tuple(range(f.d)))
    return _filtered(f, spec, mult, float(np.abs(f.values).max()))


def lp_block(f: GridFunction, bank: FilterBank, k: int) -> GridFunction:
    """Level-k band component: inverse transform of m_k times the spectrum."""
    if not bank.compatible_with(f):
        raise ValueError("filter bank was built for a different grid")
    if not (0 <= k <= bank.levels):
        raise ValueError(f"level must be in 0..{bank.levels}")
    return apply_multiplier(f, bank.multipliers[k])


def besov_norm_fourier(f: GridFunction, s: float, p, q, bank: FilterBank) -> float:
    """Weighted l^q over levels of the block L^p norms, weight 2^{ks}; one
    forward transform, then each block is `lp_block(f, bank, k)` to the bit."""
    if not bank.compatible_with(f):
        raise ValueError("filter bank was built for a different grid")
    if not s * bank.levels < 1024:  # 2^(ks) overflows for some k <= levels, or s is nan
        raise ValueError(f"weights 2^(ks), k <= levels = {bank.levels}, overflow at s = {s!r}")
    spec = np.fft.fftn(f.values, axes=tuple(range(f.d)))
    scale = float(np.abs(f.values).max())
    blocks = np.array([grid_lp_norm(_filtered(f, spec, m, scale), p) for m in bank.multipliers])
    weights = 2.0 ** (s * np.arange(bank.levels + 1))
    return lq_norm(weights * blocks, q)


def _shifts(f: PiecewiseFunction) -> np.ndarray:
    """The shifts h at which the difference route samples F, sorted: the
    distinct positive breakpoint differences, where F has its kinks, and for
    linear sources also the geometric grid 2^{-k/32}, k = 0..960 (30 octaves)."""
    diffs = (f.breakpoints[None, :] - f.breakpoints[:, None]).ravel()
    gaps = np.unique(diffs[diffs > 0])
    if f.interpolation is Interpolation.STEP:
        return gaps
    return np.union1d(gaps, 2.0 ** (-np.arange(30 * 32 + 1) / 32))


def _shift_powers(f: PiecewiseFunction, shifts: np.ndarray, p: float) -> np.ndarray:
    """F(h) = ||f(.+h) - f||_p^p at every shift h: per row, the merged
    breakpoints of f and f(.+h) cut cells where both are constant (steps) or
    affine (linear sources: `_affine_powers` on the difference's cell-end
    values; a sampled value, not a bound, since the rule misses the |u|^p
    kink where a coordinate of the difference changes sign inside a cell).  Chunks
    keep each temporary array near 2^18 floats.  Shifts far beyond the
    support length round b - h together; the public callers clamp to it."""
    b = f.breakpoints
    step = f.interpolation is Interpolation.STEP
    if step:
        table = np.pad(f.values[1:], ((1, 1), (0, 0)))  # row i: the value on (b_{i-1}, b_i]
    else:
        # row i: the affine piece on (b_{i-1}, b_i], start + (x - origin) slope; zero outside
        start, origin = np.pad(f.values[:-1], ((1, 1), (0, 0))), np.pad(b[:-1], 1)
        slope = np.pad(np.diff(f.values, axis=0) / np.diff(b)[:, None], ((1, 1), (0, 0)))
    rows = max(1, 2 ** 18 // (2 * b.size * f.space.dim * (1 if step else GL_NODES)))
    out = np.empty(shifts.size)
    for lo in range(0, shifts.size, rows):
        h = shifts[lo:lo + rows, None]
        pts = np.sort(np.hstack([np.broadcast_to(b, (h.shape[0], b.size)), b - h]), axis=1)
        mids = 0.5 * (pts[:, 1:] + pts[:, :-1])
        here, there = np.searchsorted(b, mids), np.searchsorted(b, mids + h)
        if step:
            diff = table[there] - table[here]
            out[lo:lo + rows] = (np.diff(pts, axis=1) * f.space.norms(diff) ** p).sum(axis=1)
            continue
        d0, d1 = (start[there] + (x + h - origin[there])[..., None] * slope[there]
                  - start[here] - (x - origin[here])[..., None] * slope[here]
                  for x in (pts[:, :-1], pts[:, 1:]))
        out[lo:lo + rows] = _affine_powers(f.space, np.diff(pts, axis=1), d0, d1, p)
    return out


def _finite_p(p) -> float:
    """p as a float, checked to be finite and >= 1 (NaN fails the check)."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError("the difference route needs a finite p >= 1")
    return p


def translate_diff_norm(f: PiecewiseFunction, h: float, p: float) -> float:
    """||f(. + h) - f||_{L^p(R)}: `_shift_powers` at the one shift |h| (F is
    even in h by t -> t - h), to the 1/p.  From the support length L on the
    supports are disjoint and F = 2 ||f||_p^p, so |h| is clamped to L."""
    p = _finite_p(p)
    h = abs(float(h))
    if math.isnan(h):
        raise ValueError("the shift h must not be NaN")
    if h == 0.0:
        return 0.0
    a, b = f.support
    return float(_shift_powers(f, np.array([min(h, b - a)]), p)[0]) ** (1.0 / p)


def modulus_of_continuity(f: PiecewiseFunction, t, p: float):
    """sup_{|h| <= t} ||f(.+h) - f||_p; positive h suffice (t -> t - h).

    Exact for steps up to roundoff: F(h) = ||f(.+h) - f||_p^p is piecewise
    linear in h with kinks at breakpoint differences, so its sup over (0, t]
    sits at a kink or at t.  For linear sources a sampled value, not a
    bound: the max of F over the shifts of `_shifts` up to t, nondecreasing
    in t by construction (F(t) itself when t lies below all of them), with
    each F from a quadrature that can miss the |u|^p kink of a coordinate
    changing sign inside a cell, so it may read above the true modulus.

    `t` may be an array: F is then evaluated in one pass at the shifts up to
    max t and at the t that need F(t), and each entry is read off a running
    max, equal to its own scalar call.  A scalar t returns a float.  A t
    beyond the support length L reads as L, where F is already constant.
    """
    p = _finite_p(p)
    ts = np.asarray(t, dtype=float)
    if not (ts > 0.0).all():
        raise ValueError("t must be positive")
    a, b = f.support
    flat = np.minimum(ts.ravel(), b - a)
    h = _shifts(f)
    step = f.interpolation is Interpolation.STEP
    kinks = h[h < flat.max()] if step else h[h <= flat.max()]
    own = flat if step else flat[flat < h[0]]  # the t whose F(t) counts
    F = _shift_powers(f, np.append(kinks, own), p)
    # the max of F over the kinks up to t
    upto = np.searchsorted(kinks, flat, side="right")
    running = np.maximum.accumulate(np.append(0.0, F[:kinks.size]))[upto]
    if step:
        running = np.maximum(running, F[kinks.size:])
    else:
        running[flat < h[0]] = F[kinks.size:]
    # Python's float pow, not np.power, keeps the scalar results' bits
    rho = np.array([float(v) ** (1.0 / p) for v in running]).reshape(ts.shape)
    return float(rho) if ts.ndim == 0 else rho


def _seminorm(f: PiecewiseFunction, s: float, p: float, q) -> float:
    """(int_0^1 (t^{-s} rho(t))^q dt/t)^{1/q} from F at the shifts of
    `_shifts` below 1 and at 1: rho^p = max(M, F), M the running max of F
    over those shifts, F linear between them (exact for steps, whose F is
    piecewise linear with kinks at the breakpoint differences).  Below the
    smallest shift g, F(h) = F(g) (h/g)^a, with a = 1 where f jumps (steps,
    linear sources nonzero at an end) and a = p for continuous ones: closed
    form, +inf for s >= a/p.  Later pieces split where F overtakes M; each
    half gets 20-point Gauss-Legendre in log t.  For q = inf the sup is the
    max of t^{-s} F^{1/p} over the shifts: on a piece t^{-s} M^{1/p}
    decreases, and for s < 1/p, t^{-s} F^{1/p} has no interior maximum."""
    jumps = f.interpolation is Interpolation.STEP or f.space.norms(f.values[[0, -1]]).any()
    order = 1.0 if jumps else p
    if s >= order / p:
        return math.inf
    h = _shifts(f)
    kinks = np.append(h[h < 1.0], 1.0)
    F = _shift_powers(f, kinks, p)
    if q is INF:
        return float((kinks ** -s * F ** (1.0 / p)).max())
    best = np.maximum.accumulate(F)
    expo = (order / p - s) * q
    total = float((F[0] / kinks[0] ** order) ** (q / p) * kinks[0] ** expo / expo)
    lo, hi, r0, r1, top = kinks[:-1], kinks[1:], F[:-1], F[1:], best[:-1]
    rising = r1 > top
    cross = lo + (hi - lo) * np.where(rising, (top - r0) / np.where(rising, r1 - r0, 1.0), 1.0)
    slope = ((r1 - r0) / (hi - lo))[:, None]
    nodes, weights = _gl_rule(20)
    for a, c in ((lo, cross), (cross, hi)):
        la, lc = np.log(a)[:, None], np.log(c)[:, None]
        t = np.exp(0.5 * (lc - la) * nodes + 0.5 * (lc + la))
        rho_p = np.maximum(top[:, None], r0[:, None] + slope * (t - lo[:, None]))
        total += float((0.5 * (lc - la) * weights * t ** (-s * q) * rho_p ** (q / p)).sum())
    return total ** (1.0 / q)


def besov_norm_difference(f: PiecewiseFunction, s: float, p: float, q) -> float:
    """L^p norm plus (int_0^1 (t^{-s} rho(t))^q dt/t)^{1/q}, rho the modulus.

    s must lie in (0, 1) and p in [1, inf).  Steps: exact up to quadrature
    roundoff.  Linear sources: F(h) = ||f(.+h) - f||_p^p sampled at the
    breakpoint differences and on a geometric grid of 32 shifts per octave
    over 30 octaves, interpolated linearly between them.  +inf for s >= 1/p
    where f jumps: every step, and a linear source nonzero at an end.
    """
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError("smoothness s must lie in (0, 1)")
    p = _finite_p(p)
    q = as_exponent(q)
    return lp_norm(f, p) + _seminorm(f, s, p, q)


def holder_norm(f: PiecewiseFunction, alpha: float) -> float:
    """sup norm plus the alpha-Holder seminorm, exact for piecewise-linear f.

    The seminorm maximum over s < t is attained at breakpoint pairs: with f
    linear on each segment, ||f(t) - f(s)|| is convex along any line in the
    (s, t) square while (t - s)^alpha is concave and positive, so the
    quotient is quasiconvex edge-by-edge and peaks at segment corners.
    """
    if f.interpolation is not Interpolation.LINEAR:
        raise ValueError("the Holder norm is computed for piecewise-linear functions")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    norms = f.space.norms(f.values)
    sup = float(norms.max())
    b = f.breakpoints
    best = 0.0
    for i in range(b.size - 1):
        gaps = b[i + 1:] - b[i]
        quot = f.space.norms(f.values[i + 1:] - f.values[i]) / gaps ** alpha
        best = max(best, float(quot.max()))
    return sup + best
