"""Dyadic band decompositions and three routes to a smoothness norm.

Frequency route: a radial profile built from the quintic smoothstep cuts
the spectrum into dyadic shells.  With chi(r) = 1 on [0, 1], 0 on [2, inf)
and the smoothstep between, the band profile chi(r) - chi(2r) is
nonnegative, lives on 1/2 <= r <= 2, and the shifts chi(r/2^k) telescope,
so the level multipliers

    m_0(xi) = chi(|xi|),   m_k(xi) = chi(|xi|/2^k) - chi(|xi|/2^{k-1})

sum to chi(|xi|/2^K) over k = 0..K, which is exactly 1 for |xi| <= 2^K.
The smoothness norm is then the weighted l^q sequence norm of the block
L^p norms, weight 2^{ks} at level k: one real-input forward transform of f
(rfftn, the half spectrum), then one irfftn per level, each level's product
and values in two buffers the norm reuses.  A bank checks once, when it is
built, that each level is real and even (m(-xi) = m(xi)), as that needs.

Difference route (for compactly supported step functions on the line; a
linear source raises): L^p norm plus the l^q-in-t integral of t^{-s} times
the modulus of continuity.  The shift profile F(h) = ||f(.+h) - f||_p^p is
evaluated at the breakpoint differences, where F has its kinks, in one
vectorised pass (`_shift_powers`, the only code that computes F; the
single-shift `translate_diff_norm` calls it too; over many shifts the
cells read each power ||v_c - v_a||^p from one table of the step's value
pairs, to the bit of the per-cell power), and the modulus and the
integral read one profile of those values (`_profile`): rho(t)^p is the
larger of the running max of F and F interpolated linearly between the
shifts, so the result is exact up to quadrature roundoff.

Holder route (piecewise linear only): the sup norm plus the difference
quotient maximized over breakpoint pairs.  That maximum is exact, not a
sample: within a segment pair the quotient has a convex numerator and a
concave positive denominator in each variable, hence is quasiconvex along
every edge of the pair's parameter rectangle, so its maximum sits at a
corner, i.e. at breakpoints.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .functions import (GridFunction, Interpolation, PiecewiseFunction, _check_grid,
                        _frequency_radii, _gl_rule, _in_float_range, _steps_only,
                        grid_lp_norm, lp_norm)
from .spaces import INF, _finite_exponent, as_exponent, lq_norm


def smoothstep(u):
    """The C^2 quintic ramp 6u^5 - 15u^4 + 10u^3, clamped to [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _on_ramp(r: np.ndarray, lo: float, ramp):
    """ramp(r) where lo < r < 2 and where r is nan (which stays nan), exact 0
    elsewhere: the ramp runs only on its support, and the output is made
    after its temporaries are gone."""
    inside = ~((r <= lo) | (r >= 2.0))
    vals = ramp(r[inside])
    out = np.zeros(r.shape)
    out[inside] = vals
    return out[()]


def _chi_ramp(r):
    return 1.0 - smoothstep(r - 1.0)


def chi(r):
    """Radial cutoff: 1 on [0, 1], 0 on [2, inf), smoothstep ramp between."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= 1.0, 1.0, _on_ramp(r, 1.0, _chi_ramp))[()]


def band_profile(r):
    """chi(r) - chi(2r): nonnegative, supported on 1/2 <= r <= 2."""
    r = np.asarray(r, dtype=float)
    return _on_ramp(r, 0.5, lambda x: _chi_ramp(x) - _chi_ramp(2.0 * x))


@dataclass(frozen=True)
class FilterBank:
    """Sampled dyadic multipliers m_0..m_K on one grid's frequency bins, checked
    once and then held read-only (a view is copied), so its routes check nothing."""

    period: float
    n: int
    d: int
    levels: int
    multipliers: np.ndarray  # (levels + 1, n) or (levels + 1, n, n)

    def __post_init__(self):
        _check_grid(self.period, self.n, self.d)
        mults = np.asarray(self.multipliers)
        shape = (self.levels + 1,) + (self.n,) * self.d
        if mults.shape != shape:
            raise ValueError(f"the multipliers must have shape {shape}, got {mults.shape}")
        for m in mults:
            _even(m, self.n, self.d)
        mults = mults if mults.base is None else mults.copy()  # a view's base stays writable
        mults.flags.writeable = False
        object.__setattr__(self, "multipliers", mults)

    def compatible_with(self, f: GridFunction) -> bool:
        return (f.period == self.period and f.n == self.n and f.d == self.d)

    def _level(self, k: int) -> np.ndarray:
        """The multiplier m_k; k must be an integer in 0..levels (a bool would index as a mask)."""
        if not (isinstance(k, numbers.Integral) and not isinstance(k, bool)
                and 0 <= k <= self.levels):
            raise ValueError(f"level must be in 0..{self.levels}")
        return self.multipliers[k]

    def partition_residual(self, radius_limit: float) -> float:
        """max |sum_k m_k - 1| over bins with |xi| <= radius_limit."""
        total = self.multipliers.sum(axis=0)
        radii = _frequency_radii(self.period, self.n, self.d)
        mask = radii <= radius_limit
        return float(np.abs(total[mask] - 1.0).max())

    def kernel(self, k: int) -> np.ndarray:
        """Spatial convolution kernel of level k on the grid: irfftn of the
        multiplier's half spectrum, columns 0..n/2 of its last axis."""
        scale = (self.n / self.period) ** self.d
        half = self._level(k)[..., :self.n // 2 + 1]
        return np.fft.irfftn(half, s=(self.n,) * self.d, axes=tuple(range(self.d))) * scale

    def kernel_l1(self, k: int) -> float:
        dx = self.period / self.n
        return float(np.abs(self.kernel(k)).sum() * dx ** self.d)


def build_filter_bank(period: float, n: int, d: int, levels: int) -> FilterBank:
    """Sample the dyadic multipliers for levels 0..levels on the given grid.

    Requires 2^levels strictly below the grid Nyquist frequency pi n / period
    so every level it claims to resolve actually has bins.
    """
    if levels < 1:
        raise ValueError("need at least one band level")
    if levels > 1023 or 2.0 ** levels * period >= math.pi * n:  # 2^1024 exceeds every float
        raise ValueError(f"2^levels (levels = {levels}) must stay below the "
                         f"Nyquist frequency {math.pi * n / period:.3f}")
    _check_grid(period, n, d)
    radii = _frequency_radii(period, n, d)
    mults = np.empty((levels + 1,) + radii.shape)
    mults[0] = chi(radii)
    for k in range(1, levels + 1):
        mults[k] = band_profile(radii / 2.0 ** k)
    return FilterBank(period=float(period), n=int(n), d=int(d),
                      levels=int(levels), multipliers=mults)


def _even(mult, n: int, d: int) -> np.ndarray:
    """mult as an array, if it is an n^d multiplier that is real and equals
    its reflection m(-xi) (index (-j) mod n per axis), so that columns
    0..n/2 of its last axis define its real-input filter; any other raises."""
    mult = np.asarray(mult)
    if mult.shape != (n,) * d:
        raise ValueError(f"the multiplier must have shape {(n,) * d}, got {mult.shape}")
    if np.iscomplexobj(mult) or not np.array_equal(mult[np.ix_(*[-np.arange(n) % n] * d)], mult):
        raise ValueError("a multiplier not real and even in xi gives an imaginary part")
    return mult


def _filtered(f: GridFunction, spec: np.ndarray, mult, out=None, prod=None) -> GridFunction:
    """irfftn of mult's half (columns 0..n/2 of its last axis) times the
    half spectrum `spec` (rfftn of f): f filtered by mult, which the caller
    has checked is real and even.  The product goes to `prod` and the values
    to `out` when given, so one norm reuses two buffers over its levels."""
    prod = np.multiply(spec, mult[..., :f.n // 2 + 1, None], out=prod)
    vals = np.fft.irfftn(prod, s=(f.n,) * f.d, axes=tuple(range(f.d)), out=out)
    return GridFunction(f.period, vals, f.space)


def apply_multiplier(f: GridFunction, mult: np.ndarray) -> GridFunction:
    """Pointwise Fourier multiplier on the grid (circular convolution with its
    kernel) by real-input half-spectrum transforms.  mult must be real and
    even, m(-xi) = m(xi), as every bank level is; any other raises for every
    input (`_even`, on every call).  The result owns its values, unlike the
    levels `besov_norm_fourier` filters in reused buffers."""
    return _filtered(f, np.fft.rfftn(f.values, axes=tuple(range(f.d))), _even(mult, f.n, f.d))


def lp_block(f: GridFunction, bank: FilterBank, k: int) -> GridFunction:
    """Level-k band component: inverse transform of m_k times the spectrum."""
    if not bank.compatible_with(f):
        raise ValueError("filter bank was built for a different grid")
    return _filtered(f, np.fft.rfftn(f.values, axes=tuple(range(f.d))), bank._level(k))


def besov_norm_fourier(f: GridFunction, s: float, p, q, bank: FilterBank) -> float:
    """Weighted l^q over levels of the block L^p norms, weight 2^{ks}; one
    forward transform and two reused buffers, each block `lp_block(f, bank, k)` to the bit."""
    if not bank.compatible_with(f):
        raise ValueError("filter bank was built for a different grid")
    if not math.isfinite(s):  # s = -inf would weight level 0 by 2^(-inf * 0) = nan
        raise ValueError(f"s must be finite, got {s!r}")
    if not s * bank.levels < 1024:  # 2^(ks) overflows for some k <= levels
        raise ValueError(f"weights 2^(ks), k <= levels = {bank.levels}, overflow at s = {s!r}")
    spec = np.fft.rfftn(f.values, axes=tuple(range(f.d)))
    out, prod = np.empty_like(f.values), np.empty_like(spec)
    blocks = np.array([grid_lp_norm(_filtered(f, spec, m, out, prod), p)
                       for m in bank.multipliers])
    weights = 2.0 ** (s * np.arange(bank.levels + 1))
    return lq_norm(weights * blocks, q)


def _shifts(f: PiecewiseFunction) -> np.ndarray:
    """The shifts h at which the difference route samples F, sorted: the
    distinct positive breakpoint differences, where a step's F has its kinks."""
    diffs = (f.breakpoints[None, :] - f.breakpoints[:, None]).ravel()
    return np.unique(diffs[diffs > 0])


def _framed(a: np.ndarray) -> np.ndarray:
    """a between one zero row above and one below: np.pad by a row, without its cost."""
    out = np.zeros((a.shape[0] + 2,) + a.shape[1:])
    out[1:-1] = a
    return out


def _pair_powers(space, table: np.ndarray, p: float) -> np.ndarray:
    """pairs[a, c] = ||table[c] - table[a]||^p for every pair of rows, as the
    per-cell kernel forms them, in row blocks of at most 2^18 floats."""
    size = table.shape[0]
    pairs = np.empty((size, size))
    block = max(1, 2 ** 18 // (size * space.dim))
    for lo in range(0, size, block):
        pairs[lo:lo + block] = space.norms(table - table[lo:lo + block, None]) ** p
    return pairs


@np.errstate(over="ignore", invalid="ignore")  # `_in_float_range` names what leaves float range
def _shift_powers(f: PiecewiseFunction, shifts: np.ndarray, p: float) -> np.ndarray:
    """F(h) = ||f(.+h) - f||_p^p of a step f at every shift h (a linear
    source raises, `_steps_only`): per row, the merged breakpoints of f and
    f(.+h) cut cells where both are constant.  Chunks keep each temporary
    array near 2^18 floats.  Shifts far beyond the support length round
    b - h together; the public callers clamp to it.

    The cells pair only T = b.size + 1 values (zero on either side).
    When the call covers at least T^2 cells (2 b.size - 1 per shift) and
    T^2 <= 2^18, each ||v_c - v_a||^p is taken once into a T x T table
    (`_pair_powers`, T^2 floats) that the cells read; otherwise, as for one
    shift, each cell takes its own.  The operands, ufuncs and row
    reduction are the same, so both give F to the bit.  F that leaves
    float range raises (`_in_float_range`)."""
    _steps_only(f)
    b = f.breakpoints
    table = _framed(f.values[1:])  # row i: the value on (b_{i-1}, b_i]
    gate = table.shape[0] ** 2 <= min(2 ** 18, shifts.size * (2 * b.size - 1))
    pairs = _pair_powers(f.space, table, p) if gate else None
    rows = max(1, 2 ** 18 // (2 * b.size * f.space.dim))
    out = np.empty(shifts.size)
    for lo in range(0, shifts.size, rows):
        h = shifts[lo:lo + rows, None]
        pts = np.empty((h.shape[0], 2 * b.size))
        pts[:, :b.size] = b
        np.subtract(b, h, out=pts[:, b.size:])
        pts.sort(axis=1)
        lens = pts[:, 1:] - pts[:, :-1]
        mids = 0.5 * (pts[:, 1:] + pts[:, :-1])
        here, there = np.searchsorted(b, mids), np.searchsorted(b, mids + h)
        powered = (f.space.norms(table[there] - table[here]) ** p if pairs is None
                   else pairs[here, there])
        out[lo:lo + rows] = (lens * powered).sum(axis=1)
    return _in_float_range(out, f, p)


def translate_diff_norm(f: PiecewiseFunction, h: float, p: float) -> float:
    """||f(. + h) - f||_{L^p(R)}: `_shift_powers` at the one shift |h| (F is
    even in h by t -> t - h), to the 1/p.  From the support length L on the
    supports are disjoint and F = 2 ||f||_p^p, so |h| is clamped to L."""
    p = _finite_exponent(p)
    _steps_only(f)
    h = abs(float(h))
    if math.isnan(h):
        raise ValueError("the shift h must not be NaN")
    if h == 0.0:
        return 0.0
    a, b = f.support
    return float(_shift_powers(f, np.array([min(h, b - a)]), p)[0]) ** (1.0 / p)


def _profile(f: PiecewiseFunction, p: float, h: np.ndarray, top: float):
    """The shifts h = `_shifts(f)` below `top` and then `top`, F there
    (`_shift_powers`), the running max M of F and the slope of F to the next
    shift (0 after `top`): rho(t)^p = max(M_k, F_k + slope_k (t - h_k)) on
    [h_k, h_{k+1}].  The modulus and the difference norm both read it."""
    below = np.searchsorted(h, top)  # h is sorted: h[:below] = h[h < top]
    kinks = np.empty(below + 1)
    kinks[:below], kinks[below] = h[:below], top
    F = _shift_powers(f, kinks, p)
    slope = np.zeros(below + 1)
    slope[:-1] = (F[1:] - F[:-1]) / (kinks[1:] - kinks[:-1])
    return kinks, F, np.maximum.accumulate(F), slope


def modulus_of_continuity(f: PiecewiseFunction, t, p: float):
    """sup_{|h| <= t} ||f(.+h) - f||_p of a step f; positive h suffice (t -> t - h).

    The rho that `besov_norm_difference` integrates, read off `_profile`
    (below the smallest shift, F(t) itself).  Exact up to roundoff: a
    step's F is piecewise linear with kinks at the breakpoint differences.
    A linear source raises (`_steps_only`).

    `t` may be an array, read off one profile cut at the first shift >= max
    t, so each entry equals its own scalar call; a scalar t returns a float,
    an empty t an empty array of its shape.  A t beyond the support length
    L (itself a shift) reads as L.
    """
    p = _finite_exponent(p)
    _steps_only(f)
    ts = np.asarray(t, dtype=float)
    if not (ts > 0.0).all():
        raise ValueError("t must be positive")
    if ts.size == 0:
        return np.empty(ts.shape)
    a, b = f.support
    flat = np.minimum(ts.ravel(), b - a)
    h = _shifts(f)
    kinks, F, best, slope = _profile(f, p, h, h[np.searchsorted(h, flat.max())])
    k = np.searchsorted(kinks, flat, side="right") - 1
    rho_p = np.maximum(best[k], F[k] + slope[k] * (flat - kinks[k]))
    if (k < 0).any():
        rho_p[k < 0] = _shift_powers(f, flat[k < 0], p)
    # Python's float pow, not np.power, keeps the scalar results' bits
    rho = np.array([float(v) ** (1.0 / p) for v in rho_p]).reshape(ts.shape)
    return float(rho) if ts.ndim == 0 else rho


@np.errstate(over="ignore", invalid="ignore")  # a total out of float range raises below
def _seminorm(f: PiecewiseFunction, s: float, p: float, q) -> float:
    """(int_0^1 (t^{-s} rho(t))^q dt/t)^{1/q} of a step f over `_profile`
    cut at 1.  Below the smallest shift g, F(h) = F(g) h/g: closed form
    (F(g)/g)^{q/p} g^e / e with e = (1/p - s) q, +inf for s >= 1/p.  Later
    pieces split where F overtakes M; each half gets 20-point Gauss-Legendre
    in log t.  For q = inf the sup is the max of t^{-s} F^{1/p} over the
    shifts: on a piece t^{-s} M^{1/p} decreases, and for s < 1/p,
    t^{-s} F^{1/p} has no interior maximum."""
    if s >= 1.0 / p:
        return math.inf
    kinks, F, best, slope = _profile(f, p, _shifts(f), 1.0)
    if q is INF:
        return float((kinks ** -s * F ** (1.0 / p)).max())
    expo = (1.0 / p - s) * q
    total = float((F[0] / kinks[0]) ** (q / p) * kinks[0] ** expo / expo)
    lo, hi, r0, r1, top = kinks[:-1], kinks[1:], F[:-1], F[1:], best[:-1]
    rising = r1 > top
    cross = lo + (hi - lo) * np.where(rising, (top - r0) / np.where(rising, r1 - r0, 1.0), 1.0)
    nodes, weights = _gl_rule(20)
    # both halves, [lo, cross] and [cross, hi], in one pass; each sums on its own
    ends = np.log(np.array((lo, cross, hi)))[..., None]
    la, lc = ends[:2], ends[1:]
    t = np.exp(0.5 * (lc - la) * nodes + 0.5 * (lc + la))
    rho_p = np.maximum(top[:, None], r0[:, None] + slope[:-1, None] * (t - lo[:, None]))
    halves = (0.5 * (lc - la) * weights * t ** (-s * q) * rho_p ** (q / p)).reshape(2, -1)
    for half in halves.sum(axis=1):
        total += float(half)
    if not total < math.inf:
        raise ValueError(f"the difference seminorm leaves float range at p = {p}, q = {q}")
    if total == 0.0 and F.any():
        raise ValueError(f"f is below float range: its difference seminorm underflows to 0 "
                         f"at p = {p}, q = {q} (rescale it)")
    return total ** (1.0 / q)


def besov_norm_difference(f: PiecewiseFunction, s: float, p: float, q) -> float:
    """L^p norm plus (int_0^1 (t^{-s} rho(t))^q dt/t)^{1/q}, rho the modulus,
    of a step f (a linear source raises, `_steps_only`).

    s must lie in (0, 1) and p in [1, inf).  A p-th or q-th power total that
    leaves float range, or underflows to 0 for a nonzero f, raises.  Exact
    up to quadrature roundoff; +inf for s >= 1/p, where a step's jumps
    make the seminorm diverge.
    """
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError("smoothness s must lie in (0, 1)")
    p = _finite_exponent(p)
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
