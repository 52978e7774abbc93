import math

import numpy as np
import pytest

from besovgamma.besov import translate_diff_norm
from besovgamma.functions import (GridFunction, Interpolation,
                                  PiecewiseFunction, _frequency_radii, dilate,
                                  grid_lp_norm, l2_norm_squared, lp_norm)
from besovgamma.montecarlo import derive_seed, gaussian_array
from besovgamma.spaces import INF, LpSpace


def random_piecewise(seed, kind, m=6, dim=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    breaks = np.sort(rng.uniform(-1.0, 2.0, size=m + 1))
    while np.diff(breaks).min() < 1e-3:
        breaks = np.sort(rng.uniform(-1.0, 2.0, size=m + 1))
    values = rng.normal(size=(m + 1, dim))
    if kind is Interpolation.STEP:
        values[0] = values[1]
    return PiecewiseFunction(breaks, values, kind, LpSpace(2, dim))


def riemann_lp(f, p, samples=200001):
    # Midpoint Riemann sum on a dense grid; independent of the exact code path.
    a, b = f.support
    pad = 0.1 * (b - a)
    ts = np.linspace(a - pad, b + pad, samples)
    mids = 0.5 * (ts[1:] + ts[:-1])
    h = ts[1] - ts[0]
    vals = f.space.norms(f.evaluate(mids))
    return float((vals ** p).sum() * h) ** (1.0 / p)


def test_evaluate_zero_outside_support_and_left_continuity_convention():
    f = PiecewiseFunction([0.0, 1.0, 2.0], [[1.0], [1.0], [5.0]],
                          Interpolation.STEP, LpSpace(2, 1))
    assert np.all(f.evaluate(-0.5) == 0.0)
    assert np.all(f.evaluate(2.5) == 0.0)
    # value on (t_{j-1}, t_j] comes from the right breakpoint's slot
    assert f.evaluate(0.5)[0] == 1.0
    assert f.evaluate(1.0)[0] == 1.0
    assert f.evaluate(1.5)[0] == 5.0
    assert f.evaluate(2.0)[0] == 5.0
    assert f.evaluate(0.0)[0] == 1.0


def test_linear_evaluate_interpolates():
    f = PiecewiseFunction([0.0, 2.0], [[0.0, 1.0], [4.0, -1.0]],
                          Interpolation.LINEAR, LpSpace(2, 2))
    got = f.evaluate(0.5)
    assert got == pytest.approx([1.0, 0.5])


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        PiecewiseFunction([0.0, 0.0, 1.0], np.zeros((3, 1)),
                          Interpolation.STEP, LpSpace(2, 1))
    with pytest.raises(ValueError):
        PiecewiseFunction([0.0, 1.0], np.zeros((3, 1)),
                          Interpolation.STEP, LpSpace(2, 1))


def test_step_lp_norm_closed_form():
    # two cells of lengths 1 and 2 with norms 5 and 1
    f = PiecewiseFunction([0.0, 1.0, 3.0], [[3.0, 4.0], [3.0, 4.0], [1.0, 0.0]],
                          Interpolation.STEP, LpSpace(2, 2))
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(25.0 + 2.0), rel=1e-15)
    assert lp_norm(f, 1) == pytest.approx(7.0, rel=1e-15)
    assert lp_norm(f, INF) == 5.0


def test_lp_norm_matches_riemann_oracle():
    for seed in range(4):
        for kind in (Interpolation.STEP, Interpolation.LINEAR):
            f = random_piecewise(derive_seed(100, seed, kind.value), kind)
            for p in (1.0, 1.7, 2.0, 3.0):
                dense = riemann_lp(f, p)
                assert lp_norm(f, p) == pytest.approx(dense, rel=2e-3)


def test_linear_lp_norm_gl_rule_is_accurate():
    # Quadratic integrand (p=2, linear values) is integrated exactly.
    f = random_piecewise(7, Interpolation.LINEAR)
    assert lp_norm(f, 2) ** 2 == pytest.approx(l2_norm_squared(f), rel=1e-13)


def test_l2_norm_squared_step():
    f = PiecewiseFunction([0.0, 0.5, 1.0], [[2.0], [2.0], [-2.0]],
                          Interpolation.STEP, LpSpace(2, 1))
    assert l2_norm_squared(f) == pytest.approx(4.0, rel=1e-15)


def test_translate_diff_norm_against_riemann():
    for seed in range(3):
        for kind in (Interpolation.STEP, Interpolation.LINEAR):
            f = random_piecewise(derive_seed(200, seed, kind.value), kind)
            for h in (0.05, 0.3, 1.1):
                a, b = f.support
                ts = np.linspace(a - 2 * h - 0.1, b + 2 * h + 0.1, 400001)
                mids = 0.5 * (ts[1:] + ts[:-1])
                step = ts[1] - ts[0]
                diff = f.evaluate(mids + h) - f.evaluate(mids)
                dense = float((f.space.norms(diff) ** 1.5).sum() * step) ** (1 / 1.5)
                assert translate_diff_norm(f, h, 1.5) == pytest.approx(dense, rel=5e-3)


def test_translate_diff_norm_symmetric_in_h():
    f = random_piecewise(11, Interpolation.STEP)
    assert translate_diff_norm(f, 0.37, 2.0) == pytest.approx(
        translate_diff_norm(f, -0.37, 2.0), rel=1e-12)
    assert translate_diff_norm(f, 0.0, 2.0) == 0.0


def test_translate_diff_norm_large_shift_decouples():
    # Disjoint supports: ||f(.+h) - f||_p^p = 2 ||f||_p^p.
    f = random_piecewise(13, Interpolation.STEP)
    a, b = f.support
    h = 2.0 * (b - a) + 1.0
    for p in (1.0, 2.0, 2.5):
        assert translate_diff_norm(f, h, p) == pytest.approx(
            2.0 ** (1.0 / p) * lp_norm(f, p), rel=1e-12)


def test_translate_exactness_for_steps():
    # Aligned shift of a uniform step grid telescopes; compare the exact
    # merged-breakpoint path against the closed form for one jump.
    f = PiecewiseFunction([0.0, 1.0], [[1.0], [1.0]], Interpolation.STEP,
                          LpSpace(2, 1))
    # |1_{[0,1]}(t+h) - 1_{[0,1]}(t)| is 1 on two intervals of length h
    assert translate_diff_norm(f, 0.25, 2.0) == pytest.approx(
        math.sqrt(0.5), rel=1e-15)


def test_restrict_step_exact_at_arbitrary_cuts():
    f = random_piecewise(23, Interpolation.STEP)
    a, b = f.support
    cut = a + 0.4217 * (b - a)
    left = f.restrict([(a, cut)])
    right = f.restrict([(cut, b)])
    ts = np.linspace(a - 0.1, b + 0.1, 2001)
    whole = f.evaluate(ts)
    glued = left.evaluate(ts) + right.evaluate(ts)
    inside = (ts > a) & (ts <= b)
    assert np.abs(whole[inside] - glued[inside]).max() == 0.0
    assert np.abs(left.evaluate(ts[ts > cut])).max() == 0.0
    union = f.restrict([(a, cut), (cut, b)])  # abutting at the cut
    assert np.abs(union.evaluate(ts)[inside] - whole[inside]).max() == 0.0


def test_restrict_linear_requires_zero_at_cut():
    # W-shape vanishing at 0.5: the cut there is representable, 0.3 is not.
    w = PiecewiseFunction([0.0, 0.25, 0.5, 0.75, 1.0],
                          [[0.0], [1.0], [0.0], [1.0], [0.0]],
                          Interpolation.LINEAR, LpSpace(2, 1))
    out = w.restrict([(0.0, 0.5)])
    assert lp_norm(out, 2) == pytest.approx(lp_norm(w, 2) / math.sqrt(2.0), rel=1e-12)
    assert np.abs(out.evaluate(np.linspace(0.51, 1.0, 50))).max() == 0.0
    ts = np.linspace(-0.1, 1.1, 241)
    union = w.restrict([(0.0, 0.5), (0.5, 1.0)])  # abutting at the zero
    assert np.abs(union.evaluate(ts) - w.evaluate(ts)).max() == 0.0
    with pytest.raises(ValueError):
        w.restrict([(0.0, 0.3)])


def test_restrict_rejects_bad_intervals():
    f = random_piecewise(29, Interpolation.STEP)
    a, b = f.support
    with pytest.raises(ValueError):
        f.restrict([(a, a)])
    with pytest.raises(ValueError):
        f.restrict([(a - 1.0, b)])
    w = b - a
    with pytest.raises(ValueError):
        f.restrict([(a, a + 0.6 * w), (a + 0.4 * w, b)])


# ---------------------------------------------------------------------------
# periodic grid functions


def make_tone(period=16.0, n=256, freq_index=3, dim=2):
    xs = np.arange(n) * (period / n)
    vals = np.zeros((n, dim))
    vals[:, 0] = np.cos(2.0 * math.pi * freq_index * xs / period)
    return GridFunction(period, vals, LpSpace(2, dim))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(8.0, np.zeros((100, 1)), LpSpace(2, 1))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction(8.0, np.zeros((8, 4, 1)), LpSpace(2, 1))  # non-square
    with pytest.raises(ValueError):
        GridFunction(8.0, np.zeros((8, 2)), LpSpace(2, 1))  # dim mismatch


def test_spectrum_roundtrip_and_parseval():
    rng = np.random.Generator(np.random.Philox(key=41))
    f = GridFunction(8.0, rng.normal(size=(64, 3)), LpSpace(2, 3))
    spec = f.spectrum()
    back = GridFunction.from_spectrum(spec, f.period, f.space)
    assert np.abs(back.values - f.values).max() < 1e-12
    # discrete Parseval in the continuous normalization:
    # sum |f|^2 dx = sum |fhat|^2 dxi
    dxi = 2.0 * math.pi / f.period
    lhs = (f.values ** 2).sum() * f.dx
    rhs = (np.abs(spec) ** 2).sum() * dxi
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_spectrum_of_pure_tone_is_two_lines():
    f = make_tone()
    spec = f.spectrum()[:, 0]
    mags = np.abs(spec)
    top = np.argsort(mags)[::-1]
    assert set(top[:2].tolist()) == {3, 256 - 3}
    assert mags[top[2]] < 1e-12 * mags[top[0]]


def test_from_spectrum_rejects_asymmetric_input():
    spec = np.zeros((16, 1), dtype=complex)
    spec[3, 0] = 1.0  # no conjugate partner at -3
    with pytest.raises(ValueError):
        GridFunction.from_spectrum(spec, 4.0, LpSpace(2, 1))


def test_grid_lp_norm_against_direct_sum():
    rng = np.random.Generator(np.random.Philox(key=43))
    f = GridFunction(4.0, rng.normal(size=(32, 32, 2)), LpSpace(1, 2))
    direct = (np.abs(f.values).sum(axis=-1) ** 1.5).sum() * f.dx ** 2
    assert grid_lp_norm(f, 1.5) == pytest.approx(direct ** (1 / 1.5), rel=1e-13)
    assert grid_lp_norm(f, INF) == np.abs(f.values).sum(axis=-1).max()


def make_bump(period=32.0, n=1024, carrier=4.0, sigma=1.0):
    xs = np.arange(n) * (period / n)
    xc = np.where(xs < period / 2, xs, xs - period)
    vals = (np.exp(-(xc / sigma) ** 2) * np.cos(carrier * xc))[:, None]
    return GridFunction(period, vals, LpSpace(2, 1))


def test_dilate_moves_spectral_peak():
    f = make_bump(carrier=4.0)
    g = dilate(f, 2.0)
    # f(2x) has carrier 8: the energy-weighted |xi| doubles
    def mean_radius(h):
        e = np.abs(h.spectrum()[:, 0]) ** 2
        return float((h.frequency_radii() * e).sum() / e.sum())
    assert mean_radius(g) == pytest.approx(2.0 * mean_radius(f), rel=1e-3)
    # mass scaling of a dilation in one dimension
    assert grid_lp_norm(g, 2) == pytest.approx(grid_lp_norm(f, 2) / math.sqrt(2.0),
                                               rel=1e-6)


def test_dilate_identity_and_inverse():
    f = make_bump(carrier=5.0)
    assert np.array_equal(dilate(f, 1.0).values, f.values)
    g = dilate(dilate(f, 2.0), 0.5)
    assert np.abs(g.values - f.values).max() < 1e-10


def test_dilate_rejects_band_past_nyquist():
    f = make_tone(n=64, freq_index=20)
    with pytest.raises(ValueError):
        dilate(f, 2.0)


def test_dilate_rejects_non_power_of_two():
    f = make_tone()
    with pytest.raises(ValueError):
        dilate(f, 3.0)


def test_dilate_localized_bump_matches_pointwise():
    # Gaussian bump well inside the window: f(lam x) sampled directly.
    period, n = 32.0, 1024
    xs = np.arange(n) * (period / n)
    xc = np.where(xs < period / 2, xs, xs - period)
    space = LpSpace(2, 1)
    f = GridFunction(period, np.exp(-xc ** 2)[:, None], space)
    g = dilate(f, 4.0)
    expect = np.exp(-(4.0 * xc) ** 2)
    assert np.abs(g.values[:, 0] - expect).max() < 1e-9


def centered_coordinates(period, n):
    xs = np.arange(n) * (period / n)
    return np.where(xs < period / 2, xs, xs - period)


def test_dilate_2d_separable_source_is_the_outer_product_of_1d_dilates():
    # f(x, y) = u(x) v(y): shrinking only gathers and masks, so it commutes
    # with the outer product exactly; growing goes through the FFT
    period, n = 16.0, 256
    xc = centered_coordinates(period, n)
    u = np.exp(-2.0 * xc ** 2) * np.cos(2.0 * xc)
    v = np.exp(-3.0 * xc ** 2)
    space = LpSpace(2, 1)
    f = GridFunction(period, np.multiply.outer(u, v)[..., None], space)
    for lam in (2.0, 4.0, 0.5):
        du = dilate(GridFunction(period, u[:, None], space), lam).values[:, 0]
        dv = dilate(GridFunction(period, v[:, None], space), lam).values[:, 0]
        got = dilate(f, lam).values[..., 0]
        expect = np.multiply.outer(du, dv)
        if lam > 1.0:
            assert np.array_equal(got, expect)
        else:
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_dilate_2d_rejects_discarded_mass_and_the_nyquist_bin():
    period, n = 16.0, 64
    xc = centered_coordinates(period, n)
    space = LpSpace(2, 1)
    wide = np.exp(-np.add.outer(xc ** 2, xc ** 2) / 8.0)
    with pytest.raises(ValueError, match="discard"):
        dilate(GridFunction(period, wide[..., None], space), 4.0)
    # a tone along the second axis only: its band doubles past Nyquist
    tone = np.multiply.outer(np.ones(n), np.cos(2.0 * math.pi * 20 * np.arange(n) / n))
    with pytest.raises(ValueError, match="past Nyquist"):
        dilate(GridFunction(period, tone[..., None], space), 2.0)
    alternating = np.multiply.outer(np.ones(n), (-1.0) ** np.arange(n))
    with pytest.raises(ValueError, match="Nyquist bin"):
        dilate(GridFunction(period, alternating[..., None], space), 0.5)


def test_frequency_radii_are_the_frequency_moduli():
    xi = 2.0 * math.pi * np.fft.fftfreq(64, d=8.0 / 64)
    assert np.array_equal(_frequency_radii(8.0, 64, 1), np.abs(xi))
    assert np.array_equal(_frequency_radii(8.0, 64, 2),
                          np.sqrt(xi[:, None] ** 2 + xi[None, :] ** 2))
