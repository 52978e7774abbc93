import math

import numpy as np
import pytest
from scipy import special

from besovgamma.besov import besov_norm_fourier, build_filter_bank, lp_block
from besovgamma.constructions import (make_psi_system, make_single_band,
                                      make_step, make_tent_family,
                                      psi_profiles, tent_l2_sigmas,
                                      tent_widths, zeta_sum)
from besovgamma.functions import (Interpolation, dilate, grid_lp_norm,
                                  l2_norm_squared, lp_norm)
from besovgamma.montecarlo import gaussian_array
from besovgamma.spaces import LpSpace


def test_zeta_sum_against_scipy():
    for r in (1.05, 1.2, 2.0, 3.5, 7.0):
        assert zeta_sum(r) == pytest.approx(float(special.zeta(r)), rel=1e-12)


def test_zeta_sum_requires_convergence():
    with pytest.raises(ValueError):
        zeta_sum(1.0)


def test_make_step_geometry_and_alternation():
    vecs = np.arange(6.0).reshape(3, 2) + 1.0
    f = make_step(3, vecs, LpSpace(2, 2))
    assert f.interpolation is Interpolation.STEP
    assert f.support == (0.0, 1.0)
    assert f.breakpoints.size == 7
    # odd cells carry the vectors, even cells are zero
    assert np.array_equal(f.evaluate(1.0 / 12.0), vecs[0])
    assert np.array_equal(f.evaluate(3.0 / 12.0), np.zeros(2))
    assert np.array_equal(f.evaluate(5.0 / 12.0), vecs[1])
    assert np.array_equal(f.evaluate(11.0 / 12.0), np.zeros(2))


def test_make_step_lp_closed_form():
    for n in (1, 3, 16):
        vecs = gaussian_array((n, 4), 50 + n)
        for p in (1.0, 4.0 / 3.0, 2.0):
            space = LpSpace(p, 4)
            f = make_step(n, vecs, space)
            closed = (2 * n) ** (-1.0 / p) * float(
                (space.norms(vecs) ** p).sum()) ** (1.0 / p)
            assert lp_norm(f, p) == pytest.approx(closed, rel=1e-13)


def test_tent_widths_normalization():
    w = tent_widths(5, 1.5)
    expect = np.arange(1.0, 6.0) ** -1.5 / zeta_sum(1.5)
    assert np.abs(w - expect).max() < 1e-15
    assert w.sum() < 1.0
    sig = tent_l2_sigmas(5, 1.5)
    assert np.abs(sig - np.sqrt(w / 3.0)).max() < 1e-15


def test_make_tent_family_geometry():
    n, r = 4, 1.2
    g = make_tent_family(n, r)
    assert g.interpolation is Interpolation.LINEAR
    assert g.support == (0.0, 1.0)
    w = tent_widths(n, r)
    starts = np.concatenate([[0.0], np.cumsum(w)])
    for k in range(n):
        peak = g.evaluate(starts[k] + w[k] / 2.0)
        assert peak[k] == pytest.approx(1.0, rel=1e-13)
        assert np.abs(np.delete(peak, k)).max() == 0.0
        assert np.abs(g.evaluate(starts[k + 1])).max() == 0.0
    # beyond the last tent the family is identically zero up to t = 1
    tail = np.linspace(starts[-1] + 1e-9, 1.0, 17)
    assert np.abs(g.evaluate(tail)).max() == 0.0


def test_tent_l2_norm_closed_form():
    # each tent integrates height^2 to width/3
    n, r = 6, 1.4
    g = make_tent_family(n, r)
    assert l2_norm_squared(g) == pytest.approx(tent_widths(n, r).sum() / 3.0,
                                               rel=1e-13)


def test_psi_profiles_orthonormal_gram():
    bank = build_filter_bank(2.0, 8192, 1, 13)
    profs = psi_profiles(4, bank)
    dx = bank.period / bank.n
    gram = profs @ profs.T * dx
    assert np.abs(gram - np.eye(4)).max() < 1e-8


def test_psi_system_block_structure_and_annihilation():
    bank = build_filter_bank(2.0, 8192, 1, 13)
    vecs = gaussian_array((3, 2), 60)
    f = make_psi_system(3, vecs, bank, LpSpace(2, 2))
    # occupied blocks sit exactly at levels 3, 6, 9
    norms = [grid_lp_norm(lp_block(f, bank, k), 2) for k in range(bank.levels + 1)]
    occupied = {3, 6, 9}
    for k, v in enumerate(norms):
        if k in occupied:
            assert v > 1e-3
        elif abs(k - 3) >= 2 and abs(k - 6) >= 2 and abs(k - 9) >= 2:
            assert v < 1e-12
    # every multiplier from level 3*count + 2 on annihilates the function
    for k in range(11, bank.levels + 1):
        assert norms[k] < 1e-12


def test_psi_system_hilbert_l2_identity():
    bank = build_filter_bank(2.0, 8192, 1, 13)
    vecs = gaussian_array((2, 3), 61)
    f = make_psi_system(2, vecs, bank, LpSpace(2, 3))
    assert grid_lp_norm(f, 2) == pytest.approx(
        math.sqrt(float((vecs ** 2).sum())), rel=1e-10)


def test_psi_system_requires_enough_levels():
    bank = build_filter_bank(8.0, 1024, 1, 8)
    with pytest.raises(ValueError):
        psi_profiles(3, bank)  # needs levels > 9


def test_single_band_pure_tone_unit_norm_and_level():
    # period 16 pi puts every dyadic shell on the grid
    bank = build_filter_bank(16.0 * math.pi, 2048, 1, 5)
    for k0 in (2, 4):
        f = make_single_band(k0, bank)
        assert grid_lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
        for k in range(bank.levels + 1):
            v = grid_lp_norm(lp_block(f, bank, k), 2)
            if k == k0:
                assert v == pytest.approx(1.0, rel=1e-12)
            else:
                # adjacent multipliers vanish identically on the shell; the
                # residue is the double-FFT roundoff of the tone itself
                assert v < 1e-12


def test_single_band_tone_2d_is_a_cosine_along_the_first_axis():
    bank = build_filter_bank(16.0 * math.pi, 256, 2, 3)
    f = make_single_band(2, bank)
    assert np.abs(f.values - f.values[:, :1]).max() == 0.0  # constant along axis 1
    assert grid_lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
    for k in range(bank.levels + 1):
        v = grid_lp_norm(lp_block(f, bank, k), 2)
        if k == 2:
            assert v == pytest.approx(1.0, rel=1e-12)
        else:
            assert v < 1e-12


def test_single_band_tone_needs_on_grid_shell():
    bank = build_filter_bank(8.0, 512, 1, 6)  # 2^k0 * 8 / (2 pi) is not integral
    with pytest.raises(ValueError, match="integer multiple"):
        make_single_band(3, bank)


def test_single_band_envelope_concentrates_at_level():
    bank = build_filter_bank(64.0, 32768, 1, 10)
    f = make_single_band(5, bank, width=0.35)
    assert grid_lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
    norms = np.array([grid_lp_norm(lp_block(f, bank, k), 2)
                      for k in range(bank.levels + 1)])
    assert norms.argmax() == 5
    # energy is spectrally local: two octaves away there is almost nothing
    assert norms[2] + norms[8] < 1e-6


def test_single_band_envelope_dilation_shifts_level():
    bank = build_filter_bank(64.0, 32768, 1, 10)
    f = make_single_band(5, bank, width=0.35)
    g = dilate(f, 2.0)
    norms = np.array([grid_lp_norm(lp_block(g, bank, k), 2)
                      for k in range(bank.levels + 1)])
    assert norms.argmax() == 6
    s, p, q = 0.5, 4.0 / 3.0, 4.0 / 3.0
    ratio = besov_norm_fourier(g, s, p, q, bank) / besov_norm_fourier(f, s, p, q, bank)
    assert ratio == pytest.approx(2.0 ** (s - 1.0 / p), rel=0.05)


def test_single_band_vector_direction():
    bank = build_filter_bank(16.0 * math.pi, 2048, 1, 5)
    v = np.array([0.6, 0.8])
    f = make_single_band(3, bank, vector=v, space=LpSpace(2, 2))
    assert grid_lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
    col_energy = (f.values ** 2).sum(axis=0)
    assert col_energy[1] / col_energy[0] == pytest.approx((0.8 / 0.6) ** 2, rel=1e-12)


def test_single_band_envelope_2d_unit_norm_and_level():
    bank = build_filter_bank(16.0, 256, 2, 5)
    f = make_single_band(3, bank, width=0.5)
    assert f.d == 2
    assert grid_lp_norm(f, 2) == pytest.approx(1.0, rel=1e-12)
    norms = [grid_lp_norm(lp_block(f, bank, k), 2) for k in range(bank.levels + 1)]
    assert int(np.argmax(norms)) == 3
