"""Explicit test-function families with closed-form norm identities.

Four constructions feed the experiments:

* alternating-block steps on (0, 1] whose L^p and Gaussian-sum norms are
  exact one-liners,
* disjoint tent families whose coordinate supports shrink like k^{-r},
* frequency-bump systems (one unit bump every third dyadic level), which
  are orthonormal with exactly disjoint spectra,
* single-band bumps concentrated on one dyadic shell.
"""

from __future__ import annotations

import math

import numpy as np

from .besov import FilterBank
from .functions import (GridFunction, Interpolation, PiecewiseFunction,
                        _centered_indices, _every_axis)
from .spaces import LpSpace

ZETA_TERMS = 10 ** 6


def zeta_sum(r: float) -> float:
    """sum_{i >= 1} i^{-r}: ZETA_TERMS direct terms plus an Euler-Maclaurin tail.

    The tail from a = ZETA_TERMS + 1 is integral + f(a)/2 - f'(a)/12 +
    f'''(a)/720; the next omitted term is below r^5 a^{-r-5}, far under
    1e-12 for any r > 1.
    """
    r = float(r)
    if r <= 1.0:
        raise ValueError("the series needs r > 1")
    head = float(np.sum(np.arange(1, ZETA_TERMS + 1, dtype=float) ** (-r)))
    a = float(ZETA_TERMS + 1)
    tail = a ** (1.0 - r) / (r - 1.0)
    tail += 0.5 * a ** (-r)
    tail += r * a ** (-r - 1.0) / 12.0
    tail -= r * (r + 1.0) * (r + 2.0) * a ** (-r - 3.0) / 720.0
    return head + tail


def make_step(n: int, vectors, space: LpSpace) -> PiecewiseFunction:
    """Alternating-block step on (0, 1]: value x_k on (2k/(2n), (2k+1)/(2n)].

    Closed forms: the L^p norm is (2n)^{-1/p} (sum ||x_k||^p)^{1/p}; the
    Gaussian-sum norm is (2n)^{-1/2} (E ||sum gamma_k x_k||^2)^{1/2}.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != (n, space.dim):
        raise ValueError(f"need {n} vectors of dimension {space.dim}")
    breakpoints = np.arange(2 * n + 1, dtype=float) / (2 * n)
    values = np.zeros((2 * n + 1, space.dim))
    values[1::2] = vectors
    return PiecewiseFunction(breakpoints, values, Interpolation.STEP, space)


def tent_widths(n: int, r: float) -> np.ndarray:
    """Support widths k^{-r} / zeta(r), k = 1..n (they sum to < 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return np.arange(1, n + 1, dtype=float) ** (-float(r)) / zeta_sum(r)


def tent_l2_sigmas(n: int, r: float) -> np.ndarray:
    """Per-coordinate L^2 masses of the tent family: a unit tent of width w
    has integral of its square w/3."""
    return np.sqrt(tent_widths(n, r) / 3.0)


def make_tent_family(n: int, r: float, p=2.0) -> PiecewiseFunction:
    """Piecewise-linear g_n with the k-th coordinate a unit tent on
    (t_{k-1}, t_k], t_k = zeta(r)^{-1} sum_{i<=k} i^{-r}, padded with a zero
    tail out to 1 (t_n < 1 strictly since the full series normalizes).

    Values live in the n-dimensional p-norm space, coordinate k peaking at
    the k-th unit vector.
    """
    widths = tent_widths(n, r)
    t = np.concatenate([[0.0], np.cumsum(widths)])
    if not t[-1] < 1.0:
        raise ValueError("tent supports must stay inside (0, 1)")
    space = LpSpace(p, n)
    breakpoints = np.empty(2 * n + 2)
    breakpoints[0] = 0.0
    breakpoints[1::2][:n] = t[:-1] + 0.5 * widths  # peaks
    breakpoints[2::2][:n] = t[1:]
    breakpoints[-1] = 1.0
    values = np.zeros((2 * n + 2, n))
    values[1::2][:n] = np.eye(n)
    return PiecewiseFunction(breakpoints, values, Interpolation.LINEAR, space)


def psi_profiles(count: int, bank: FilterBank) -> np.ndarray:
    """Scalar samples of the frequency bumps psi_1..psi_count, where psi_n
    has spectrum proportional to the level-3n band multiplier, normalized to
    unit L^2 on the grid.  Spectra at distinct indices are exactly disjoint
    (two dyadic levels apart), so the Gram matrix is the identity up to
    roundoff.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if 3 * count >= bank.levels:
        raise ValueError("need bank levels above 3*count")
    dxi = (2.0 * math.pi / bank.period) ** bank.d
    out = np.empty((count,) + bank.multipliers.shape[1:])
    for i in range(1, count + 1):
        mult = bank.multipliers[3 * i]
        spec = mult / math.sqrt(float((mult ** 2).sum()) * dxi)
        g = GridFunction.from_spectrum(spec[..., None], bank.period, LpSpace(2, 1))
        out[i - 1] = g.values[..., 0]
    return out


def make_psi_system(count: int, vectors, bank: FilterBank, space: LpSpace) -> GridFunction:
    """sum_n psi_{3n} (x) x_n on the bank's grid.

    Because the psi spectra are disjoint and unit-normalized, the square of
    the L^2(S; E) norm is exactly sum ||x_n||^2 for Hilbert E, and every
    band multiplier at level >= 3*count + 2 annihilates the function.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != (count, space.dim):
        raise ValueError(f"need {count} vectors of dimension {space.dim}")
    profiles = psi_profiles(count, bank)
    values = np.tensordot(profiles, vectors, axes=(0, 0))
    return GridFunction(bank.period, values, space)


def make_single_band(k0: int, bank: FilterBank, width: float = 0.0,
                     vector=None, space: LpSpace | None = None) -> GridFunction:
    """A bump concentrated on the dyadic shell |xi| = 2^{k0}: an envelope
    times cos(2^{k0} x) along the first axis.

    width = 0: the envelope is 1, a pure cosine whose spectrum sits exactly
    on the two grid frequencies +-2^{k0} of the first axis, so every other
    band multiplier vanishes on it identically and the frequency-side
    smoothness norm picks out level k0 alone.  Requires the shell to be an
    on-grid frequency, i.e. 2^{k0} * period / (2 pi) integral.

    width > 0: a centered Gaussian envelope of spatial standard deviation
    `width` in every axis.  The function is then localized in space
    (dilation-friendly) at the price of spectral tails into the adjacent
    octaves; the envelope must be narrow enough that its periodization is
    negligible (value <= 1e-9 at the period edge).

    The scalar factor is normalized to unit L^2 on the grid and multiplied
    by `vector` (default: the first unit vector of `space`, itself default
    the scalar Hilbert space).
    """
    if not (1 <= k0 <= bank.levels):
        raise ValueError(f"k0 must be in 1..{bank.levels}")
    if space is None:
        space = LpSpace(2, 1)
    if vector is None:
        vector = np.zeros(space.dim)
        vector[0] = 1.0
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (space.dim,):
        raise ValueError("direction vector does not match the space dimension")
    if width < 0.0:
        raise ValueError("width must be nonnegative")
    shell = 2.0 ** k0
    n, L, d = bank.n, bank.period, bank.d
    xc = _centered_indices(n) * (L / n)  # torus coordinates in [-L/2, L/2), index 0 at x = 0
    if width == 0.0:
        cycles = shell * L / (2.0 * math.pi)
        if abs(cycles - round(cycles)) > 8.0 * np.finfo(float).eps * cycles:
            raise ValueError(
                "no grid frequency sits exactly on the shell |xi| = 2^k0; "
                "pick the period as an integer multiple of 2*pi*2^{-k0}")
        envelope = np.ones(n)
    else:
        edge = math.exp(-(L / 2.0) ** 2 / (2.0 * width ** 2))
        if edge > 1e-9:
            raise ValueError("envelope width too large for the period")
        envelope = np.exp(-xc ** 2 / (2.0 * width ** 2))
    axis0 = (n,) + (1,) * (d - 1)  # the cosine runs along axis 0
    scalar = _every_axis(np.multiply, envelope, d) * np.cos(shell * xc).reshape(axis0)
    norm = math.sqrt(float((scalar ** 2).sum()) * (L / n) ** d)
    scalar = scalar / norm
    values = scalar[..., None] * vector
    return GridFunction(L, values, space)

