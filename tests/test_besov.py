import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovgamma
from besovgamma import besov
from besovgamma.besov import (FilterBank, _profile, _seminorm, _shift_powers, apply_multiplier,
                              band_profile, besov_norm_difference,
                              besov_norm_fourier, build_filter_bank, chi,
                              holder_norm, lp_block, lq_norm,
                              modulus_of_continuity, smoothstep,
                              translate_diff_norm)
from besovgamma.constructions import make_step, make_tent_family
from besovgamma.functions import (GridFunction, Interpolation, PiecewiseFunction,
                                  _gl_rule, grid_lp_norm, lp_norm)
from besovgamma.montecarlo import derive_seed
from besovgamma.spaces import INF, LpSpace
from conftest import dense_shift_power


def band_limited_random(period, n, dim, radius, seed):
    # random real field, then hard-truncate the spectrum to |xi| <= radius
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = GridFunction(period, rng.normal(size=(n, dim)), LpSpace(2, dim))
    spec = raw.spectrum()
    spec[raw.frequency_radii() > radius] = 0.0
    return GridFunction.from_spectrum(spec, period, raw.space)


def test_smoothstep_endpoints_and_smoothness():
    assert smoothstep(np.array([0.0]))[0] == 0.0
    assert smoothstep(np.array([1.0]))[0] == 1.0
    u = np.linspace(0.0, 1.0, 101)
    v = smoothstep(u)
    assert np.all(np.diff(v) >= 0.0)
    # C^2 match at the ends: first and second derivatives vanish
    h = 1e-5
    assert abs(smoothstep(np.array([h]))[0]) < 1e-13
    assert abs(1.0 - smoothstep(np.array([1.0 - h]))[0]) < 1e-13


def test_chi_plateau_and_support():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    v = chi(r)
    assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
    assert 0.0 < v[3] < 1.0
    assert v[4] == 0.0 and v[5] == 0.0


def test_band_profile_support_and_telescoping():
    r = np.geomspace(0.01, 100.0, 500)
    prof = band_profile(r)
    assert np.all(prof[r <= 0.5] == 0.0)
    assert np.all(prof[r >= 2.0] == 0.0)
    assert np.all((prof >= 0.0) & (prof <= 1.0))
    # chi(r) + sum_{k=1}^{K} band(r / 2^k) telescopes to chi(r / 2^K)
    acc = chi(r).copy()
    for k in range(1, 12):
        acc = acc + band_profile(r / 2.0 ** k)
    assert np.abs(acc - chi(r / 2.0 ** 11)).max() == 0.0


def direct_chi(r):
    return 1.0 - smoothstep(np.asarray(r, dtype=float) - 1.0)


def test_band_profile_and_chi_equal_the_direct_formula_bit_for_bit():
    # the ramp runs only inside the support; the exact 0s and 1s filled in
    # elsewhere, and nan, are what the formula gives there
    rng = np.random.Generator(np.random.Philox(key=derive_seed(33)))
    edges = np.array([0.0, 0.5, 1.0, 2.0])
    r = np.concatenate([rng.uniform(0.0, 3.0, 4000), rng.uniform(-3.0, 0.0, 100),
                        np.geomspace(1e-300, 1e300, 200), edges,
                        np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf),
                        [0.25, 4.0, 1e300, 1.7976931348623157e308, math.inf, -math.inf,
                         -0.0, math.nan]])
    with np.errstate(over="ignore"):  # 2r overflows for the largest radii
        want_band = direct_chi(r) - direct_chi(2.0 * r)
    for radii in (r, r.reshape(-1, 2)):
        for got, want in ((band_profile(radii), want_band), (chi(radii), direct_chi(r))):
            assert got.shape == radii.shape
            assert got.tobytes() == want.tobytes()
    assert math.isnan(band_profile(math.nan)) and math.isnan(chi(math.nan))
    assert type(band_profile(0.7)) is type(direct_chi(0.7)) is np.float64
    assert band_profile(3.0) == 0.0 and chi(0.3) == 1.0


def test_lq_norm_matches_numpy():
    x = np.array([0.3, 1.7, 0.2, 2.4])
    assert lq_norm(x, 1) == pytest.approx(x.sum(), rel=1e-15)
    assert lq_norm(x, 2) == pytest.approx(np.linalg.norm(x), rel=1e-15)
    assert lq_norm(x, INF) == x.max()
    assert lq_norm(np.array([]), 2) == 0.0


def test_lq_norm_single_dominant_entry_is_bit_exact():
    x = np.array([0.0, 0.0, 1.7, 0.0])
    assert lq_norm(x, 1.5) == 1.7
    assert lq_norm(x, 7.0) == 1.7


def test_build_filter_bank_validation():
    with pytest.raises(ValueError):
        build_filter_bank(8.0, 512, 3, 4)  # unsupported dimension
    with pytest.raises(ValueError):
        build_filter_bank(8.0, 512, 1, 9)  # 2^9 past the Nyquist 201


def test_partition_residual_is_zero_in_band():
    bank = build_filter_bank(8.0, 512, 1, 7)
    assert bank.partition_residual(2.0 ** 7) == 0.0
    bank2 = build_filter_bank(8.0, 64, 2, 4)
    assert bank2.partition_residual(2.0 ** 4) == 0.0


def test_multipliers_bounded_and_disjoint_far_bands():
    bank = build_filter_bank(8.0, 512, 1, 7)
    mults = bank.multipliers
    assert mults.shape[0] == 8
    assert float(mults.min()) >= 0.0 and float(mults.max()) <= 1.0
    # bands two apart never overlap: supports (2^{k-1}, 2^{k+1})
    for k in range(1, 6):
        assert float((mults[k] * mults[k + 2]).max()) == 0.0


def test_blocks_reconstruct_band_limited_function():
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 2, radius=120.0, seed=5)
    total = np.zeros_like(f.values)
    for k in range(bank.levels + 1):
        total += lp_block(f, bank, k).values
    scale = np.abs(f.values).max()
    assert np.abs(total - f.values).max() < 1e-12 * scale


def test_blocks_satisfy_discrete_young_inequality():
    # circular convolution: ||phi_k * f||_p <= ||phi_k||_1 ||f||_p exactly
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 2, radius=190.0, seed=6)
    for p in (1.0, 1.5, 2.0):
        fp = grid_lp_norm(f, p)
        for k in (0, 2, 5):
            blk = grid_lp_norm(lp_block(f, bank, k), p)
            assert blk <= bank.kernel_l1(k) * fp * (1.0 + 1e-12)


def test_kernel_l2_matches_multiplier_parseval():
    bank = build_filter_bank(8.0, 512, 1, 6)
    for k in (1, 4):
        ker = bank.kernel(k)
        dx = 8.0 / 512
        dxi = 2.0 * math.pi / 8.0
        lhs = (ker ** 2).sum() * dx
        rhs = (bank.multipliers[k] ** 2).sum() * dxi / (2.0 * math.pi)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("period,n,d,levels", [(8.0, 512, 1, 7), (3.0, 64, 2, 4)])
def test_kernel_is_the_real_part_of_the_complex_inverse_transform(period, n, d, levels):
    bank = build_filter_bank(period, n, d, levels)
    for k in range(levels + 1):
        ref = np.fft.ifftn(bank.multipliers[k]).real * (n / period) ** d
        assert np.abs(bank.kernel(k) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_apply_multiplier_annihilates_disjoint_band():
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 1, radius=3.9, seed=9)   # inside band 1
    killed = apply_multiplier(f, bank.multipliers[5])          # band (16, 64)
    assert np.abs(killed.values).max() < 1e-12 * np.abs(f.values).max()


def test_besov_norm_fourier_single_band_scaling():
    # one occupied block: the norm is exactly 2^{k s} times that block's norm
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 1, radius=3.0, seed=12)
    spec = f.spectrum()
    spec[bank.multipliers[2] < 1.0] = 0.0   # keep only the m_2 plateau
    g = GridFunction.from_spectrum(spec, 8.0, f.space)
    p = 1.5
    block = grid_lp_norm(lp_block(g, bank, 2), p)
    for s in (0.25, 0.5):
        for q in (1.0, 2.0, INF):
            assert besov_norm_fourier(g, s, p, q, bank) == pytest.approx(
                2.0 ** (2 * s) * block, rel=1e-10)


def test_besov_norm_fourier_monotone_in_s_and_q():
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 2, radius=100.0, seed=13)
    n1 = besov_norm_fourier(f, 0.3, 1.5, 1.0, bank)
    n2 = besov_norm_fourier(f, 0.3, 1.5, 2.0, bank)
    n3 = besov_norm_fourier(f, 0.3, 1.5, INF, bank)
    assert n1 >= n2 >= n3
    assert besov_norm_fourier(f, 0.5, 1.5, 2.0, bank) >= n2


@pytest.mark.parametrize("d,dim", [(1, 1), (1, 3), (2, 2)])
def test_besov_norm_fourier_is_the_lp_block_sum_bit_for_bit(d, dim):
    # the norm takes one forward transform for all levels; each block must
    # still be the one lp_block computes, so the norm matches to the bit
    n, levels = (256, 6) if d == 1 else (64, 4)
    bank = build_filter_bank(8.0, n, d, levels)
    rng = np.random.Generator(np.random.Philox(key=derive_seed(21, d, dim)))
    f = GridFunction(8.0, rng.normal(size=(n,) * d + (dim,)), LpSpace(4.0 / 3.0, dim))
    s = 0.4
    weights = 2.0 ** (s * np.arange(levels + 1))
    for p in (1.0, 4.0 / 3.0, 2.0, 3.0, INF):
        blocks = np.array([grid_lp_norm(lp_block(f, bank, k), p) for k in range(levels + 1)])
        for q in (1.0, 2.0, INF):
            assert besov_norm_fourier(f, s, p, q, bank) == lq_norm(weights * blocks, q)


@pytest.mark.parametrize("s", [-math.inf, math.inf, math.nan])
def test_besov_norm_fourier_requires_a_finite_s(s):
    # -inf weighted level 0 by 2^(-inf * 0) = nan: nan and a RuntimeWarning
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = GridFunction(8.0, np.ones((512, 1)), LpSpace(2, 1))
    with pytest.raises(ValueError, match="s must be finite"):
        besov_norm_fourier(f, s, 2.0, 2.0, bank)


def test_bank_compatibility_guard():
    bank = build_filter_bank(8.0, 512, 1, 7)
    other = GridFunction(4.0, np.zeros((512, 1)), LpSpace(2, 1))
    with pytest.raises(ValueError, match="different grid"):
        lp_block(other, bank, 0)
    with pytest.raises(ValueError, match="different grid"):
        besov_norm_fourier(other, 0.5, 2.0, 2.0, bank)
    # a real multiplier that is not even in xi makes a real input complex:
    # the bank that holds one is refused when it is built
    xi = np.fft.fftfreq(512)
    with pytest.raises(ValueError, match="imaginary part"):
        FilterBank(8.0, 512, 1, 1, np.stack([(xi >= 0.0) * 1.0, (xi < 0.0) * 0.5]))


def test_imaginary_check_sees_a_negative_extreme():
    # f = sum_k (1 - k/K) sin(k w x) and m = 1 + delta sign(xi) give the
    # output imaginary part -delta sum_k (1 - k/K) cos(k w x) = delta (1 - Fejer
    # kernel) / 2: at most delta / 2, but down to -delta (K - 1) / 2 at x = 0
    x = np.arange(512) * (8.0 / 512)
    k = np.arange(1, 64)
    vals = ((1.0 - k / 64.0) * np.sin(2.0 * math.pi * np.outer(x, k) / 8.0)).sum(axis=1)
    f = GridFunction(8.0, vals[:, None], LpSpace(2, 1))
    scale = float(np.abs(f.values).max())
    mult = 1.0 + 1e-9 * scale * np.sign(np.fft.fftfreq(512))
    imag = np.fft.ifft(np.fft.fft(f.values[:, 0]) * mult).imag
    assert imag.max() < 1e-9 * scale < -imag.min()  # only the negative side exceeds
    with pytest.raises(ValueError, match="imaginary part"):
        apply_multiplier(f, mult)
    with pytest.raises(ValueError, match="imaginary part"):
        FilterBank(8.0, 512, 1, 1, np.stack([mult, np.zeros(512)]))


def test_blocks_and_multiplier_outputs_own_their_values():
    # besov_norm_fourier filters every level in one reused buffer; the grids
    # lp_block and apply_multiplier hand out must not share one
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 2, radius=100.0, seed=23)
    for make in (lambda k: lp_block(f, bank, k),
                 lambda k: apply_multiplier(f, bank.multipliers[k])):
        first = make(2)
        kept = first.values.copy()
        second = make(3)
        assert np.array_equal(first.values, kept)
        assert not np.shares_memory(first.values, second.values)


def _long_double_levels(f, bank):
    # reference: the complex transform in long double (NumPy >= 2 runs pocketfft on it)
    axes = tuple(range(f.d))
    spec = np.fft.fftn(f.values.astype(np.longdouble), axes=axes)
    return [np.fft.ifftn(spec * m[..., None], axes=axes).real for m in bank.multipliers]


def _long_double_lp(v, r, p, cell):
    # L^p norm, cell volume `cell`, of l^r-valued samples v, in long double
    ld = np.longdouble
    pts = np.abs(v).max(axis=-1) if r is INF else (np.abs(v) ** ld(r)).sum(axis=-1) ** (1 / ld(r))
    return pts.max() if p is INF else ((pts ** ld(p)).sum() * ld(cell)) ** (1 / ld(p))


@pytest.mark.parametrize("d,dim", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_half_spectrum_route_matches_a_long_double_complex_reference(d, dim):
    # every block and every norm of the real-input route agrees with a
    # complex transform in long double to 1e-14 relative (measured: 5e-16)
    n, levels = (256, 6) if d == 1 else (64, 4)
    s = 0.4
    bank = build_filter_bank(8.0, n, d, levels)
    rng = np.random.Generator(np.random.Philox(key=derive_seed(31, d, dim)))
    f = GridFunction(8.0, rng.normal(size=(n,) * d + (dim,)), LpSpace(3.0, dim))
    levels_ld = _long_double_levels(f, bank)
    for k, ref in enumerate(levels_ld):
        assert np.abs(lp_block(f, bank, k).values - ref).max() <= 1e-14 * np.abs(ref).max()
    weights = np.longdouble(2.0) ** (s * np.arange(levels + 1))
    for p in (1.0, 4.0 / 3.0, 2.0, 3.0, INF):
        blocks = weights * np.array([_long_double_lp(v, 3.0, p, f.dx ** d) for v in levels_ld])
        for q in (1.0, 2.0, INF):
            ref = _long_double_lp(blocks[:, None], 1.0, q, 1.0)
            assert abs(besov_norm_fourier(f, s, p, q, bank) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("period,n,d,levels", [(8.0, 512, 1, 7), (64.0, 32768, 1, 10),
                                               (3.0, 64, 2, 4), (8.0, 128, 2, 5)])
def test_every_bank_multiplier_equals_its_reflection(period, n, d, levels):
    # m_k(-xi) = m_k(xi) bin for bin, index (-j) mod n on every axis, so
    # every level passes the evenness check the bank makes when it is built
    bank = build_filter_bank(period, n, d, levels)
    reflect = np.ix_(*[-np.arange(n) % n] * d)
    f = GridFunction(period, np.ones((n,) * d + (1,)), LpSpace(2, 1))
    for k, m in enumerate(bank.multipliers):
        assert np.array_equal(m[reflect], m)
        lp_block(f, bank, k)


@pytest.mark.parametrize("d,index", [(1, (5,)), (1, (511,)), (2, (0, 3)), (2, (7, 0)),
                                     (2, (5, 60)), (2, (32, 1)),
                                     # the edges of the half of each mirror pair compared
                                     (1, (1,)), (1, (255,)), (1, (257,)), (2, (1, 0)),
                                     (2, (31, 63)), (2, (33, 1)), (2, (0, 31)), (2, (32, 33)),
                                     (2, (63, 32))])
def test_one_ulp_off_its_reflection_raises_on_every_route(d, index):
    # one bin of a level one ulp off its mirror bin: the bank is refused when
    # it is built, and apply_multiplier raises on every call, even for the
    # zero function, whose old output-side check saw nothing
    n, levels = (512, 7) if d == 1 else (64, 4)
    bank = build_filter_bank(8.0, n, d, levels)
    mults = bank.multipliers.copy()
    mults[1][index] = np.nextafter(mults[1][index], math.inf)
    with pytest.raises(ValueError, match="imaginary part"):
        FilterBank(8.0, n, d, levels, mults)
    for values in (np.zeros((n,) * d + (1,)), np.ones((n,) * d + (1,))):
        f = GridFunction(8.0, values, LpSpace(2, 1))
        with pytest.raises(ValueError, match="imaginary part"):
            apply_multiplier(f, mults[1])


@pytest.mark.parametrize("d", [1, 2])
def test_bins_that_are_their_own_reflection_may_move(d):
    # bins 0 and n/2 per axis mirror themselves: a bank whose level moved
    # there is still even, so it builds and every route runs
    n, levels = (512, 7) if d == 1 else (64, 4)
    mults = build_filter_bank(8.0, n, d, levels).multipliers.copy()
    for corner in itertools.product((0, n // 2), repeat=d):
        mults[1][corner] += 0.5
    moved = FilterBank(8.0, n, d, levels, mults)
    f = GridFunction(8.0, np.ones((n,) * d + (1,)), LpSpace(2, 1))
    assert np.array_equal(lp_block(f, moved, 1).values, apply_multiplier(f, mults[1]).values)
    assert besov_norm_fourier(f, 0.5, 2.0, 2.0, moved) > 0.0
    moved.kernel(1)


def test_a_built_bank_cannot_be_written():
    bank = build_filter_bank(8.0, 64, 2, 4)
    with pytest.raises(ValueError, match="read-only"):
        bank.multipliers[1, 3, 5] += 1.0
    with pytest.raises(AttributeError):
        bank.multipliers = np.zeros_like(bank.multipliers)
    # a view is copied, so its writable base cannot reach the bank either
    base = build_filter_bank(8.0, 64, 2, 4).multipliers.copy()
    view = FilterBank(8.0, 64, 2, 3, base[:4])
    base[1, 3, 5] += 1.0
    assert not np.shares_memory(view.multipliers, base)
    assert np.array_equal(view.multipliers, bank.multipliers[:4])


def test_bank_routes_make_no_evenness_check(monkeypatch):
    # the bank checked its levels when it was built; only apply_multiplier,
    # whose multiplier comes from the caller, checks on every call
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = band_limited_random(8.0, 512, 2, radius=100.0, seed=24)
    calls = []
    even = besov._even
    monkeypatch.setattr(besov, "_even", lambda *a: calls.append(a) or even(*a))
    besov_norm_fourier(f, 0.5, 1.5, 2.0, bank)
    lp_block(f, bank, 3)
    bank.kernel(3)
    bank.kernel_l1(2)
    assert calls == []
    apply_multiplier(f, bank.multipliers[3])
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(7, 512), (8, 256), (8, 512, 1)])
def test_a_bank_of_another_shape_raises(shape):
    with pytest.raises(ValueError, match="must have shape"):
        FilterBank(8.0, 512, 1, 7, np.ones(shape))


@pytest.mark.parametrize("period,n,d,message,builder", [
    (math.nan, 512, 1, "period must be positive", None),
    (math.inf, 512, 1, "period must be positive", "Nyquist"),  # no band below Nyquist 0
    (0.0, 512, 1, "period must be positive", None), (8.0, 500, 1, "power of two", None),
    (8.0, 1, 1, "power of two", "Nyquist"), (8.0, 8, 3, "grid dimension must be 1 or 2", None)])
def test_banks_and_grids_keep_one_grid_rule(period, n, d, message, builder):
    with pytest.raises(ValueError, match=message):
        FilterBank(period, n, d, 1, np.ones((2,) + (n,) * d))
    with pytest.raises(ValueError, match=message):
        GridFunction(period, np.ones((n,) * d + (1,)), LpSpace(2, 1))
    with pytest.raises(ValueError, match=builder or message):
        build_filter_bank(period, n, d, 1)


def test_every_level_route_keeps_one_level_rule():
    bank = build_filter_bank(8.0, 512, 1, 7)
    f = GridFunction(8.0, np.ones((512, 1)), LpSpace(2, 1))
    for k in (-1, -2, 8, 1.5, 2.0, True, False):
        for route in (bank.kernel, bank.kernel_l1, lambda k: lp_block(f, bank, k)):
            with pytest.raises(ValueError, match=r"level must be in 0\.\.7"):
                route(k)
    assert np.array_equal(bank.kernel(np.int64(7)), bank.kernel(7))


@pytest.mark.parametrize("d,shape", [(1, (1024,)), (1, (256,)), (2, (64,)), (2, (64, 32))])
def test_a_multiplier_of_another_shape_raises(d, shape):
    # the half-spectrum slice would read a longer multiplier's first bins
    f = GridFunction(8.0, np.ones((512, 1) if d == 1 else (64, 64, 1)), LpSpace(2, 1))
    with pytest.raises(ValueError, match="must have shape"):
        apply_multiplier(f, np.ones(shape))


def test_multipliers_odd_along_one_axis_or_complex_raise():
    n = 64
    rng = np.random.Generator(np.random.Philox(key=derive_seed(32, 2)))
    f = GridFunction(8.0, rng.normal(size=(n, n, 1)), LpSpace(2, 1))
    odd = np.fft.fftfreq(n)
    odd[n // 2] = 0.0  # the Nyquist bin is its own reflection
    with pytest.raises(ValueError, match="imaginary part"):
        apply_multiplier(f, np.outer(odd, np.ones(n)))  # odd in xi_1, even in xi_2
    with pytest.raises(ValueError, match="imaginary part"):
        apply_multiplier(f, 1j * build_filter_bank(8.0, n, 2, 4).multipliers[2])
    # odd along both axes is even: the real route returns the complex one's values
    both = np.outer(odd, odd)
    ref = np.fft.ifftn(np.fft.fftn(f.values, axes=(0, 1)) * both[..., None], axes=(0, 1))
    assert np.abs(apply_multiplier(f, both).values - ref.real).max() <= 1e-14 * np.abs(ref).max()


def indicator(p):
    return PiecewiseFunction([0.0, 1.0], [[1.0], [1.0]], Interpolation.STEP,
                             LpSpace(p if p != INF else 2, 1))


def test_modulus_of_indicator_is_exact():
    # ||f(.+h) - f||_p^p = 2h for h <= 1, so rho(t) = (2t)^{1/p}
    f = indicator(2.0)
    for p in (1.0, 1.5, 2.0):
        for t in (0.01, 0.125, 0.7):
            assert modulus_of_continuity(f, t, p) == pytest.approx(
                (2.0 * t) ** (1.0 / p), rel=1e-13)


def test_modulus_monotone_and_dense_scan_lower_bound():
    rng = np.random.Generator(np.random.Philox(key=77))
    breaks = np.sort(rng.uniform(0.0, 1.0, size=7))
    vals = rng.normal(size=(7, 2))
    f = PiecewiseFunction(breaks, vals, Interpolation.STEP, LpSpace(2, 2))
    p = 1.7
    ts = [0.05, 0.1, 0.2, 0.4]
    rhos = [modulus_of_continuity(f, t, p) for t in ts]
    assert all(a <= b + 1e-15 for a, b in zip(rhos, rhos[1:]))
    # sup over a dense independent h grid can exceed the candidate set by at
    # most a little; it must never exceed the reported sup noticeably, and
    # the reported sup must be attained by some shift <= t.
    for t, rho in zip(ts, rhos):
        dense = max(dense_shift_power(f, h, p) ** (1.0 / p)
                    for h in np.linspace(t / 400, t, 400))
        assert rho <= dense * 1.02 + 1e-12
        assert dense <= rho * 1.02 + 1e-12


def test_shifts_beyond_the_support_read_as_disjoint():
    # once |h| >= L the supports are disjoint, F = 2 ||f||_p^p; without the
    # clamp to L, shifts that dwarf the breakpoints round them together.
    # The step has its sup of F there.
    f = make_step(3, np.eye(3), LpSpace(1.5, 3))
    p = 1.5
    a, b = f.support
    want = 2.0 ** (1.0 / p) * lp_norm(f, p)
    for h in (2.0 * (b - a), 1e16, math.inf):
        assert translate_diff_norm(f, h, p) == pytest.approx(want, rel=1e-12)
        assert translate_diff_norm(f, -h, p) == pytest.approx(want, rel=1e-12)
        assert modulus_of_continuity(f, h, p) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        translate_diff_norm(f, math.nan, p)
    with pytest.raises(ValueError):
        modulus_of_continuity(f, math.nan, p)


def test_public_names_resolve():
    for name in besovgamma.__all__:
        assert getattr(besovgamma, name) is not None
    assert besovgamma.translate_diff_norm is besovgamma.besov.translate_diff_norm
    # Gaussian norms have one path each: no restriction wrapper, no operator-level Hilbert norm
    assert "restrict_gamma" not in besovgamma.__all__
    assert not hasattr(besovgamma.gamma, "restrict_gamma")
    assert not hasattr(besovgamma.GammaOperator, "hilbert_norm")


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_difference_route_rejects_p_outside_one_to_infinity(p):
    # p = 0.5 and p = inf once read 1.0 from the modulus, and NaN gave nan
    f = make_step(3, np.eye(3), LpSpace(1.5, 3))
    for call in (lambda: translate_diff_norm(f, 0.25, p),
                 lambda: modulus_of_continuity(f, 0.5, p),
                 lambda: besov_norm_difference(f, 0.2, p, 2.0)):
        with pytest.raises(ValueError, match="finite p >= 1"):
            call()


def test_besov_difference_closed_form_for_indicator():
    # For the unit indicator the modulus is exact, the weight is a pure
    # power, and the (0,1] integral has the closed form below.
    for p in (4.0 / 3.0, 1.5, 1.8):
        for q in (1.0, 2.0):
            s = 1.0 / p - 0.5
            expo = (1.0 / p - s) * q
            analytic = 1.0 + 2.0 ** (1.0 / p) * (1.0 / expo) ** (1.0 / q)
            got = besov_norm_difference(indicator(p), s, p, q)
            assert got <= analytic * (1.0 + 1e-12)
            assert got == pytest.approx(analytic, rel=5e-4)


def test_besov_difference_sup_form_for_indicator():
    p = 1.5
    s = 1.0 / p - 0.5
    analytic = 1.0 + 2.0 ** (1.0 / p)  # sup of t^{1/p-s} 2^{1/p} at t = 1
    got = besov_norm_difference(indicator(p), s, p, INF)
    assert got <= analytic * (1.0 + 1e-12)
    assert got == pytest.approx(analytic, rel=5e-3)


def test_besov_difference_monotone_in_s():
    f = indicator(1.5)
    vals = [besov_norm_difference(f, s, 1.5, 2.0) for s in (0.1, 0.2, 0.3)]
    assert vals[0] < vals[1] < vals[2]


def test_besov_difference_divergence_for_rough_steps():
    # at s >= 1/p the jump contribution is non-integrable
    assert besov_norm_difference(indicator(1.5), 0.7, 1.5, 1.0) == math.inf
    with pytest.raises(ValueError):
        besov_norm_difference(indicator(1.5), 1.2, 1.5, 1.0)


@st.composite
def random_steps(draw):
    """A step with non-uniform breakpoints into l^p_dim, p in [1, 3], dim 1..3."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.02, 0.8), min_size=m - 1, max_size=m - 1))
    breaks = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    entry = st.floats(-2.0, 2.0).map(lambda x: round(x, 6))
    vals = draw(st.lists(entry, min_size=m * dim, max_size=m * dim))
    p = draw(st.floats(1.0, 3.0))
    f = PiecewiseFunction(breaks, np.reshape(vals, (m, dim)), Interpolation.STEP, LpSpace(p, dim))
    return f, p


@settings(max_examples=60)
@given(random_steps(), st.lists(st.floats(1e-4, 4.0), min_size=1, max_size=12))
def test_step_shift_powers_match_translate_diff_norm(step, shifts):
    # arbitrary shifts plus every breakpoint difference, where cells degenerate,
    # against the oracle that evaluates f
    f, p = step
    b = f.breakpoints
    diffs = (b[None, :] - b[:, None]).ravel()
    h = np.concatenate([shifts, diffs[diffs > 0]])
    want = np.array([dense_shift_power(f, x, p) for x in h])
    np.testing.assert_allclose(_shift_powers(f, h, p), want, rtol=1e-12, atol=0.0)
    single = np.array([translate_diff_norm(f, x, p) ** p for x in h])
    np.testing.assert_allclose(single, want, rtol=1e-12, atol=0.0)


def per_cell_shift_powers(f, shifts, p):
    """A step's F as the kernel computed it before the pair table: every
    cell takes its own difference of padded values to the p-th power."""
    b = f.breakpoints
    table = np.pad(f.values[1:], ((1, 1), (0, 0)))
    rows = max(1, 2 ** 18 // (2 * b.size * f.space.dim))
    out = np.empty(shifts.size)
    for lo in range(0, shifts.size, rows):
        h = shifts[lo:lo + rows, None]
        pts = np.sort(np.hstack([np.broadcast_to(b, (h.shape[0], b.size)), b - h]), axis=1)
        mids = 0.5 * (pts[:, 1:] + pts[:, :-1])
        here, there = np.searchsorted(b, mids), np.searchsorted(b, mids + h)
        diff = table[there] - table[here]
        out[lo:lo + rows] = (np.diff(pts, axis=1) * f.space.norms(diff) ** p).sum(axis=1)
    return out


def gate_sides(f):
    """Shift counts just below and at the pair table's gate: the call covers
    2 b.size - 1 cells per shift, against (b.size + 1)^2 table entries."""
    cells, entries = 2 * f.breakpoints.size - 1, (f.breakpoints.size + 1) ** 2
    return (entries - 1) // cells, -(-entries // cells)


def counting_pair_powers(monkeypatch):
    """Patch `besov._pair_powers` to count its calls; returns the counter."""
    calls, real = [], besov._pair_powers
    monkeypatch.setattr(besov, "_pair_powers", lambda *a: calls.append(1) or real(*a))
    return calls


@settings(max_examples=40)
@given(random_steps(), st.integers(0, 2 ** 32 - 1))
def test_both_shift_paths_equal_the_per_cell_formula_bit_for_bit(step, seed):
    # random shifts plus every breakpoint difference, where cells degenerate,
    # with as many shifts as stay below the table gate and as reach it
    f, p = step
    b = f.breakpoints
    diffs = (b[None, :] - b[:, None]).ravel()
    pool = np.concatenate([diffs[diffs > 0], np.random.default_rng(seed).uniform(1e-4, 4.0, 400)])
    for count in gate_sides(f) + (1,):
        h = pool[:count]
        assert np.array_equal(_shift_powers(f, h, p), per_cell_shift_powers(f, h, p))


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 1.5, 3.0])
@pytest.mark.parametrize("dim", range(1, 9))
def test_even_steps_read_the_pair_table_to_the_bit(monkeypatch, dim, p):
    # make_step's even breakpoints make kinks tie (b_i - h = b_j) at every
    # breakpoint difference; the table serves exactly the calls at the gate
    rng = np.random.default_rng(dim * 10 + int(3 * p))
    f = make_step(8, rng.normal(size=(8, dim)), LpSpace(p, dim))
    pool = np.concatenate([besov._shifts(f), rng.uniform(1e-3, 1.5, 40)])
    calls = counting_pair_powers(monkeypatch)
    for count, table in zip(gate_sides(f), (False, True)):
        before = len(calls)
        assert np.array_equal(_shift_powers(f, pool[:count], p),
                              per_cell_shift_powers(f, pool[:count], p))
        assert len(calls) - before == table
    kinks, F, _, _ = _profile(f, p, besov._shifts(f), 1.0)
    assert np.array_equal(F, per_cell_shift_powers(f, kinks, p))


def test_pair_table_across_chunks_and_its_size_limit(monkeypatch):
    # 200 blocks in l^{4/3}_8: T = 402, T^2 fits 2^18, and shifts are cut in
    # chunks of 40; 300 blocks in dimension 1 give T^2 > 2^18, which keeps
    # the per-cell path however many shifts there are
    rng = np.random.default_rng(3)
    calls = counting_pair_powers(monkeypatch)
    p = 4.0 / 3.0
    wide = make_step(200, rng.normal(size=(200, 8)), LpSpace(p, 8))
    h = np.concatenate([besov._shifts(wide)[:150], rng.uniform(1e-4, 1.2, 90)])
    assert h.size >= gate_sides(wide)[1] > 40
    assert np.array_equal(_shift_powers(wide, h, p), per_cell_shift_powers(wide, h, p))
    assert len(calls) == 1
    huge = make_step(300, rng.normal(size=(300, 1)), LpSpace(1.5, 1))
    h = np.concatenate([besov._shifts(huge)[:500], rng.uniform(1e-4, 1.2, 300)])
    assert h.size * (2 * huge.breakpoints.size - 1) >= (huge.breakpoints.size + 1) ** 2 > 2 ** 18
    assert np.array_equal(_shift_powers(huge, h, 1.5), per_cell_shift_powers(huge, h, 1.5))
    assert len(calls) == 1
    # two breakpoints: T^2 = 9 table entries against 3 cells per shift, so
    # 3 shifts reach the gate exactly and take the table
    for count, table_calls in ((2, 1), (3, 2)):
        h = np.array([0.2, 0.5, 0.9])[:count]
        assert np.array_equal(_shift_powers(indicator(1.5), h, 1.5),
                              per_cell_shift_powers(indicator(1.5), h, 1.5))
        assert len(calls) == table_calls


def scaled_sources(scale):
    """A step and a linear source into l^{4/3}_2 with entries of size `scale`."""
    vals = scale * np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.0]])
    return [PiecewiseFunction([0.0, 0.5, 1.0], vals, kind, LpSpace(4.0 / 3.0, 2))
            for kind in Interpolation]


def difference_route(f, p):
    return (lambda: lp_norm(f, p), lambda: translate_diff_norm(f, 0.3, p),
            lambda: modulus_of_continuity(f, np.array([0.1, 0.3]), p),
            lambda: besov_norm_difference(f, 0.2, p, 1.0))


@pytest.mark.parametrize("scale, message", [(1e300, r"leaves float range at p = 1\.333"),
                                            (1e-300, r"below float range.*p = 1\.333.*rescale it")])
def test_the_difference_route_names_a_power_out_of_float_range(scale, message):
    # 1e300 at p = 4/3 overflowed with a RuntimeWarning into inf and nan;
    # 1e-300 read 0.0 everywhere although f is nonzero
    p = 4.0 / 3.0
    for call in difference_route(scaled_sources(scale)[0], p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call()
    # q-th powers of the modulus can leave float range where F does not
    with pytest.raises(ValueError, match=r"below float range.*q = 2\.0 \(rescale it\)"):
        besov_norm_difference(scaled_sources(1e-200)[0], 0.2, p, 2.0)
    with pytest.raises(ValueError, match=r"leaves float range at p = 1\.333\d*, q = 3\.0"):
        besov_norm_difference(scaled_sources(1e200)[0], 0.2, p, 3.0)


def test_the_zero_function_and_rounded_shifts_still_read_zero():
    # a 0 from f = 0, or from a shift that rounds away against the
    # breakpoints, is no underflow
    zero = PiecewiseFunction([0.0, 1.0], [[0.0], [0.0]], Interpolation.STEP, LpSpace(1.5, 1))
    assert [call() for call in difference_route(zero, 1.5)[:2]] == [0.0, 0.0]
    assert besov_norm_difference(zero, 0.2, 1.5, 2.0) == 0.0
    away = PiecewiseFunction([1.0, 2.0], [[1.0], [1.0]], Interpolation.STEP, LpSpace(1.5, 1))
    assert translate_diff_norm(away, 1e-300, 1.5) == 0.0  # 1 - 1e-300 rounds to 1


@pytest.mark.parametrize("scale, message",
                         [(1e300, r"l\^1\.333\d* norm of f leaves float range at p = INF"),
                          (1e-300, r"below float range.*l\^1\.333\d* norm.*p = INF.*rescale it")])
def test_the_sup_norm_names_a_value_norm_out_of_float_range(scale, message):
    # the space's own l^{4/3} norm of each value overflowed with a
    # RuntimeWarning into inf, or read 0.0 for a nonzero f
    for f in scaled_sources(scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                lp_norm(f, INF)


def test_the_sup_norm_of_ordinary_and_zero_sources_keeps_its_bits():
    for f in scaled_sources(1.0) + [random_linear()]:
        values = f.values[1:] if f.interpolation is Interpolation.STEP else f.values
        assert lp_norm(f, INF) == float(f.space.norms(values).max())
    f = make_step(8, np.random.default_rng(5).normal(size=(8, 8)), LpSpace(4.0 / 3.0, 8))
    assert lp_norm(f, INF) == float(f.space.norms(f.values[1:]).max())
    for f in scaled_sources(0.0):
        assert lp_norm(f, INF) == 0.0


def modulus_taking_shifts_twice(f, t, p):
    """`modulus_of_continuity` as it stood, its `_profile` inlined, which
    took the shifts a second time."""
    ts = np.asarray(t, dtype=float)
    a, b = f.support
    flat = np.minimum(ts.ravel(), b - a)
    h = besov._shifts(f)
    top = h[np.searchsorted(h, flat.max())]
    below = np.searchsorted(h, top)
    kinks = np.append(h[:below], top)
    F = _shift_powers(f, kinks, p)
    slope = np.zeros(below + 1)
    slope[:-1] = (F[1:] - F[:-1]) / (kinks[1:] - kinks[:-1])
    best = np.maximum.accumulate(F)
    k = np.searchsorted(kinks, flat, side="right") - 1
    rho_p = np.maximum(best[k], F[k] + slope[k] * (flat - kinks[k]))
    if (k < 0).any():
        rho_p[k < 0] = _shift_powers(f, flat[k < 0], p)
    return np.array([float(v) ** (1.0 / p) for v in rho_p]).reshape(ts.shape)


@pytest.mark.parametrize("t", [0.3, np.array([1e-4, 0.05, 0.3, 0.9, 2.0])])
def test_a_modulus_call_takes_the_shifts_once(monkeypatch, t):
    p = 4.0 / 3.0
    f = make_step(8, np.random.default_rng(11).normal(size=(8, 8)), LpSpace(p, 8))
    shifts, calls = besov._shifts, []
    monkeypatch.setattr(besov, "_shifts", lambda f: calls.append(f) or shifts(f))
    want = modulus_taking_shifts_twice(f, t, p)
    del calls[:]
    rho = modulus_of_continuity(f, t, p)
    assert len(calls) == 1
    assert np.asarray(rho).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_an_empty_modulus_sweep_returns_an_empty_array(shape):
    f = make_step(3, np.eye(3), LpSpace(1.5, 3))
    for source in (f, random_linear()):
        rho = modulus_of_continuity(source, np.empty(shape), 1.5)
        assert isinstance(rho, np.ndarray) and rho.shape == shape


@settings(max_examples=12)
@given(random_steps(), st.floats(0.01, 2.0))
def test_step_modulus_matches_dense_scan(step, t):
    # F(h) = ||f(.+h) - f||_p^p is Lipschitz with constant
    # p (2 S)^{p-1} TV (S = sup ||f||, TV = sum ||jump||), so a scan with
    # spacing t/2000 misses its sup over (0, t] by at most that times t/2000
    f, p = step
    rho_p = modulus_of_continuity(f, t, p) ** p
    dense = max(dense_shift_power(f, h, p) for h in np.linspace(t / 2000, t, 2000))
    sup = float(f.space.norms(f.values[1:]).max())
    jumps = np.diff(np.pad(f.values[1:], ((1, 1), (0, 0))), axis=0)
    lip = p * (2.0 * sup) ** (p - 1.0) * float(f.space.norms(jumps).sum())
    assert dense * (1.0 - 1e-12) <= rho_p <= dense + lip * t / 2000 + 1e-12


def kink_reference(f, s, p, q):
    """(int_0^1 (t^{-s} rho(t))^q dt/t)^{1/q} one kink piece at a time, with
    F = dense_shift_power at the kinks; q = inf scans each piece densely."""
    b = f.breakpoints.tolist()
    kinks = sorted({y - x for x in b for y in b if 0.0 < y - x < 1.0} | {1.0})
    F = [dense_shift_power(f, h, p) for h in kinks]
    g = kinks[0]
    nodes, weights = np.polynomial.legendre.leggauss(20)
    expo = math.inf if q is INF else (1.0 / p - s) * q
    # below g, F(h) = F(g) h / g and t^{-s} rho(t) increases
    total = F[0] ** (1.0 / p) * g ** -s if q is INF else (F[0] / g) ** (q / p) * g ** expo / expo
    best = F[0]
    for lo, hi, r0, r1 in zip(kinks[:-1], kinks[1:], F[:-1], F[1:]):
        slope = (r1 - r0) / (hi - lo)
        cuts = [lo, hi] if r1 <= best or r0 >= best else [lo, lo + (best - r0) / slope, hi]
        for a, c in zip(cuts[:-1], cuts[1:]):
            if q is INF:
                t = np.geomspace(a, c, 257)
                rho = np.maximum(best, r0 + slope * (t - lo)) ** (1.0 / p)
                total = max(total, float((t ** -s * rho).max()))
                continue
            la, lc = math.log(a), math.log(c)
            t = np.exp(0.5 * (lc - la) * nodes + 0.5 * (lc + la))
            rho_p = np.maximum(best, r0 + slope * (t - lo))
            total += 0.5 * (lc - la) * float(weights @ (t ** (-s * q) * rho_p ** (q / p)))
        best = max(best, r1)
    return total if q is INF else total ** (1.0 / q)


@pytest.mark.parametrize("breaks, dim, p", [
    ([0.0, 0.13, 0.31, 0.32, 0.58, 0.9], 2, 1.5),     # non-uniform, support < 1
    ([-0.4, 0.1, 0.35, 1.2, 1.9], 3, 1.2),            # support > 1: kinks above 1
    ([0.0, 2.0], 1, 1.5),                             # smallest gap > 1
    ([0.2, 0.65], 2, 2.5),                            # two breakpoints
])
def test_besov_difference_matches_kink_reference(breaks, dim, p):
    rng = np.random.Generator(np.random.Philox(key=len(breaks) * 10 + dim))
    vals = rng.normal(size=(len(breaks), dim))
    f = PiecewiseFunction(breaks, vals, Interpolation.STEP, LpSpace(p, dim))
    s = 0.3
    for q in (1.0, 2.0, INF):
        want = lp_norm(f, p) + kink_reference(f, s, p, q)
        assert besov_norm_difference(f, s, p, q) == pytest.approx(want, rel=1e-10)


def test_besov_difference_closed_form_for_long_indicator():
    # the indicator of [0, 2] has F(h) = 2h on all of (0, 1], so the whole
    # seminorm is the closed-form piece: 2^{1/p} ((1/p - s) q)^{-1/q}
    p, s = 1.5, 0.3
    f = PiecewiseFunction([0.0, 2.0], [[1.0], [1.0]], Interpolation.STEP, LpSpace(p, 1))
    for q in (1.0, 2.0, INF):
        tail = 1.0 if q is INF else ((1.0 / p - s) * q) ** (-1.0 / q)
        closed = 2.0 ** (1.0 / p) * (1.0 + tail)
        assert besov_norm_difference(f, s, p, q) == pytest.approx(closed, rel=1e-13)


def random_linear():
    """Linear on 7 random breakpoints into l^{1.7}_2, nonzero at both ends."""
    rng = np.random.Generator(np.random.Philox(key=5))
    return PiecewiseFunction(np.sort(rng.uniform(0.0, 1.0, size=7)), rng.normal(size=(7, 2)),
                             Interpolation.LINEAR, LpSpace(1.7, 2))


@pytest.mark.parametrize("f", [make_tent_family(4, 1.05, 1.5), random_linear()])
def test_the_difference_route_takes_steps_only(f):
    # finite-p L^p and difference norms are closed forms for steps; a linear
    # source raises, while its sup norm stays exact (a convex path's norm
    # peaks at a breakpoint)
    for call in difference_route(f, f.space.p):
        with pytest.raises(ValueError, match="step functions"):
            call()
    assert lp_norm(f, INF) == float(f.space.norms(f.values).max())


def two_pass_seminorm(f, s, p, q):
    """`_seminorm` for finite q as it stood with one loop pass per half of
    each piece, [lo, cross] and then [cross, hi], each added to the total."""
    kinks, F, best, slope = _profile(f, p, besov._shifts(f), 1.0)
    expo = (1.0 / p - s) * q
    total = float((F[0] / kinks[0]) ** (q / p) * kinks[0] ** expo / expo)
    lo, hi, r0, r1, top = kinks[:-1], kinks[1:], F[:-1], F[1:], best[:-1]
    rising = r1 > top
    cross = lo + (hi - lo) * np.where(rising, (top - r0) / np.where(rising, r1 - r0, 1.0), 1.0)
    nodes, weights = _gl_rule(20)
    for a, c in ((lo, cross), (cross, hi)):
        la, lc = np.log(a)[:, None], np.log(c)[:, None]
        t = np.exp(0.5 * (lc - la) * nodes + 0.5 * (lc + la))
        rho_p = np.maximum(top[:, None], r0[:, None] + slope[:-1, None] * (t - lo[:, None]))
        total += float((0.5 * (lc - la) * weights * t ** (-s * q) * rho_p ** (q / p)).sum())
    return total ** (1.0 / q)


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("f, s, p", [
    (make_step(8, np.random.default_rng(8).normal(size=(8, 8)), LpSpace(4.0 / 3.0, 8)),
     0.25, 4.0 / 3.0),
    (make_step(3, np.eye(3), LpSpace(1.5, 3)), 0.4, 1.5),
    (PiecewiseFunction([0.0, 0.13, 0.31, 0.32, 0.58, 0.9], np.random.default_rng(1).normal(
        size=(6, 2)), Interpolation.STEP, LpSpace(1.5, 2)), 0.3, 1.5),
])
def test_one_pass_seminorm_equals_the_two_pass_loop_bit_for_bit(f, s, p, q):
    assert _seminorm(f, s, p, q) == two_pass_seminorm(f, s, p, q)


def test_modulus_sweep_equals_its_per_point_calls():
    # one profile, cut at the first shift >= max t, serves the whole sweep,
    # and each t reads the same piece of it as its scalar call; t from 1e-10
    # also reaches below the smallest shift, the block width 1/16, where F(t) counts
    f = make_step(8, np.random.default_rng(12).normal(size=(8, 2)), LpSpace(1.7, 2))
    ts = np.geomspace(1e-10, 1.0, 200)
    start = time.perf_counter()
    rhos = modulus_of_continuity(f, ts, 1.7)
    assert time.perf_counter() - start < 1.0
    assert rhos.shape == ts.shape
    for k in range(0, 200, 15):
        assert rhos[k] == modulus_of_continuity(f, ts[k], 1.7)
    step_ts = np.array([[0.01, 0.4], [0.125, 1.5]])
    step_rhos = modulus_of_continuity(indicator(1.5), step_ts, 1.5)
    assert step_rhos.shape == (2, 2)
    for t, rho in zip(step_ts.ravel(), step_rhos.ravel()):
        assert rho == modulus_of_continuity(indicator(1.5), t, 1.5)
    assert isinstance(modulus_of_continuity(f, 0.3, 1.7), float)
    with pytest.raises(ValueError):
        modulus_of_continuity(f, np.array([0.1, 0.0]), 1.7)


def test_holder_norm_single_tent():
    # unit tent on [0,1]: sup = 1; steepest alpha-quotient is between the
    # peak and a foot: |1 - 0| / (1/2)^alpha
    tent = PiecewiseFunction([0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]],
                             Interpolation.LINEAR, LpSpace(2, 1))
    for alpha in (0.1, 0.5, 0.9):
        assert holder_norm(tent, alpha) == pytest.approx(
            1.0 + 2.0 ** alpha, rel=1e-13)


def test_holder_norm_dense_scan_agrees():
    rng = np.random.Generator(np.random.Philox(key=91))
    breaks = np.sort(rng.uniform(0.0, 1.0, size=6))
    vals = rng.normal(size=(6, 3))
    f = PiecewiseFunction(breaks, vals, Interpolation.LINEAR, LpSpace(2, 3))
    alpha = 0.35
    reported = holder_norm(f, alpha)
    # the norm lives on the support interval, not the zero extension
    ts = np.linspace(breaks[0], breaks[-1], 1200)
    fv = f.evaluate(ts)
    sup = float(f.space.norms(fv).max())
    semi = 0.0
    for i in range(0, ts.size, 7):
        d = fv[i + 1:] - fv[i]
        gaps = (ts[i + 1:] - ts[i]) ** alpha
        semi = max(semi, float((f.space.norms(d) / gaps).max()))
    dense = sup + semi
    assert dense <= reported * (1.0 + 1e-9)
    assert reported == pytest.approx(dense, rel=0.05)


def test_holder_norm_rejects_steps_and_bad_alpha():
    f = indicator(2.0)
    with pytest.raises(ValueError):
        holder_norm(f, 0.5)
    tent = PiecewiseFunction([0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]],
                             Interpolation.LINEAR, LpSpace(2, 1))
    with pytest.raises(ValueError):
        holder_norm(tent, 1.5)
