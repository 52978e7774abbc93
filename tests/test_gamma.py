import math

import numpy as np
import pytest

from besovgamma.besov import build_filter_bank
from besovgamma.constructions import (make_single_band, make_step,
                                      make_tent_family, tent_l2_sigmas)
from besovgamma.functions import (Interpolation, PiecewiseFunction,
                                  l2_norm_squared, lp_norm)
from besovgamma.gamma import (build_cell_operator, build_grid_cell_operator,
                              build_trig_operator, disjoint_lp_from_sigmas,
                              gamma_norm_disjoint_lp, gamma_norm_hilbert,
                              gamma_norm_mc, ideal_compose,
                              partition_inequality_check, restrict_gamma)
from besovgamma.montecarlo import MCConfig, derive_seed, gaussian_array
from besovgamma.spaces import INF, LpSpace, gaussian_p_moment


def step_fn(n, dim, seed, p=2.0):
    return make_step(n, gaussian_array((n, dim), seed), LpSpace(p, dim))


def test_cell_operator_captures_aligned_steps_exactly():
    f = step_fn(4, 3, 70)
    op = build_cell_operator(f)
    assert op.residual == 0.0
    assert op.coefficients.shape == (8, 3)
    # coefficient for the cell holding x_k is x_k * sqrt(cell width)
    w = 1.0 / 8.0
    expect = f.values[1:] * math.sqrt(w)
    assert np.abs(op.coefficients - expect).max() < 1e-14


def test_hilbert_norm_is_l2_mass():
    f = step_fn(5, 2, 71)
    assert gamma_norm_hilbert(f) == pytest.approx(
        math.sqrt(l2_norm_squared(f)), rel=1e-13)


def test_hilbert_norm_closed_form_for_steps():
    n = 6
    vecs = gaussian_array((n, 4), 72)
    f = make_step(n, vecs, LpSpace(2, 4))
    closed = (2 * n) ** -0.5 * math.sqrt(float((vecs ** 2).sum()))
    assert gamma_norm_hilbert(f) == pytest.approx(closed, rel=1e-13)


def test_mc_norm_agrees_with_hilbert_and_reproduces():
    f = step_fn(8, 2, 73)
    cfg = MCConfig(samples=20000, seed=5)
    est = gamma_norm_mc(f, cfg)
    exact = gamma_norm_hilbert(f)
    assert abs(est.mean - exact) < 4.0 * est.std_error
    est2 = gamma_norm_mc(f, cfg)
    assert est2.mean == est.mean and est2.std_error == est.std_error
    est3 = gamma_norm_mc(f, MCConfig(samples=20000, seed=6))
    assert est3.mean != est.mean


def test_rank_one_operator_norm():
    # one cell holding vector x: E||gamma c||^2 = ||c||^2 in any norm
    f = PiecewiseFunction([0.0, 1.0], [[3.0, -4.0]] * 2, Interpolation.STEP,
                          LpSpace(1, 2))
    est = gamma_norm_mc(f, MCConfig(samples=200000, seed=8))
    assert abs(est.mean - 7.0) < 4.0 * est.std_error
    f2 = PiecewiseFunction([0.0, 1.0], [[3.0, -4.0]] * 2, Interpolation.STEP,
                           LpSpace(2, 2))
    assert gamma_norm_hilbert(f2) == pytest.approx(5.0, rel=1e-13)


def test_residual_guard_fires_on_misaligned_cells():
    f = step_fn(3, 2, 74)  # breakpoints at multiples of 1/6
    with pytest.raises(ValueError, match="align"):
        build_cell_operator(f, cells=4)  # quarter cuts cross the jumps
    op = build_cell_operator(f, cells=6)  # sixths align exactly
    assert op.residual == 0.0


def test_residual_guard_fires_on_unresolved_linear_source():
    tent = make_tent_family(4, 1.3)
    with pytest.raises(ValueError, match="residual"):
        build_cell_operator(tent, cells=2)
    coarse = build_cell_operator(tent, cells=2, max_residual=1.0)
    assert coarse.residual > 1e-3
    assert coarse.hilbert_norm() < math.sqrt(l2_norm_squared(tent))


def test_trig_operator_exact_for_band_limited():
    bank = build_filter_bank(16.0 * math.pi, 1024, 1, 4)
    f = make_single_band(2, bank)
    op = build_trig_operator(f, modes=40)
    assert op.residual < 1e-12
    assert op.hilbert_norm() == pytest.approx(1.0, rel=1e-10)
    est = op.mc_norm(MCConfig(samples=20000, seed=9))
    assert abs(est.mean - 1.0) < 4.0 * est.std_error


def test_trig_operator_validation():
    bank = build_filter_bank(16.0 * math.pi, 1024, 1, 4)
    f = make_single_band(2, bank)
    with pytest.raises(ValueError):
        build_trig_operator(f, modes=0)
    with pytest.raises(ValueError):
        build_trig_operator(f, modes=512)


def test_grid_sources_without_size_are_refused():
    f = make_single_band(1, build_filter_bank(128.0, 4096, 1, 2), width=5.0,
                         vector=np.array([1.0, 0.5, 0.2]), space=LpSpace(1.5, 3))
    with pytest.raises(ValueError, match="size"):
        gamma_norm_mc(f, MCConfig(2000, 1))
    with pytest.raises(ValueError, match="size"):
        gamma_norm_mc(f, MCConfig(2000, 1), basis="trig")


def test_grid_cell_operator_matches_cell_averages():
    bank = build_filter_bank(16.0 * math.pi, 1024, 1, 4)
    f = make_single_band(1, bank)
    op = build_grid_cell_operator(f, cells=64, max_residual=1.0)
    assert op.coefficients.shape == (64, 1)
    width = f.period / 64
    seg = f.values[: 1024 // 64, 0].sum() * f.dx / math.sqrt(width)
    assert op.coefficients[0, 0] == pytest.approx(seg, rel=1e-12)


def test_disjoint_lp_from_sigmas_matches_mc_oracle():
    sigmas = np.array([0.5, 1.0, 0.25])
    p = 1.5
    dg = disjoint_lp_from_sigmas(sigmas, p)
    assert dg.l2_moment == pytest.approx(float(np.sqrt((sigmas ** 2).sum())), rel=1e-13)
    draws = gaussian_array((400000, 3), 77) * sigmas
    brute = float((np.abs(draws) ** p).mean(axis=0).sum()) ** (1.0 / p)
    assert dg.lp_moment == pytest.approx(brute, rel=5e-3)
    closed = (gaussian_p_moment(1.0, p) * float((sigmas ** p).sum())) ** (1.0 / p)
    assert dg.lp_moment == pytest.approx(closed, rel=1e-13)


def test_gamma_norm_disjoint_lp_on_tent_family():
    n, r, p = 8, 1.2, 1.5
    g = make_tent_family(n, r, p)
    dg = gamma_norm_disjoint_lp(g, p)
    sig = tent_l2_sigmas(n, r)
    assert np.abs(np.sort(dg.sigmas)[::-1] - np.sort(sig)[::-1]).max() < 1e-13
    assert dg.lp_moment == pytest.approx(
        disjoint_lp_from_sigmas(sig, p).lp_moment, rel=1e-13)


def test_gamma_norm_disjoint_lp_rejects_overlap():
    # two coordinates active on the same segment
    f = PiecewiseFunction([0.0, 0.5, 1.0], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]],
                          Interpolation.STEP, LpSpace(1.5, 2))
    with pytest.raises(ValueError, match="overlap"):
        gamma_norm_disjoint_lp(f, 1.5)


def test_restrict_gamma_hilbert_pythagoras():
    f = step_fn(6, 3, 78)
    cut = 0.37
    left = restrict_gamma(f, [(0.0, cut)])
    right = restrict_gamma(f, [(cut, 1.0)])
    whole = gamma_norm_hilbert(f) ** 2
    parts = left.hilbert_norm() ** 2 + right.hilbert_norm() ** 2
    assert whole == pytest.approx(parts, abs=1e-13)


def test_ideal_compose_identity_and_contraction():
    f = step_fn(4, 2, 79)
    op = build_cell_operator(f)
    same = ideal_compose(op, np.eye(op.coefficients.shape[0]))
    assert np.array_equal(same.coefficients, op.coefficients)
    rng = np.random.Generator(np.random.Philox(key=80))
    raw = rng.normal(size=(8, 8))
    contraction = raw / (np.linalg.norm(raw, 2) * 1.01)
    out = ideal_compose(op, contraction)
    assert out.hilbert_norm() <= op.hilbert_norm()
    with pytest.raises(ValueError):
        ideal_compose(op, np.eye(5))


def test_partition_check_hilbert_exact():
    f = step_fn(5, 4, 81)
    chk = partition_inequality_check(f, [(0.0, 0.3), (0.3, 0.8), (0.8, 1.0)],
                                     "type", 2.0, 1.0)
    assert chk.exact
    assert chk.std_error_budget == 0.0
    assert abs(chk.whole_norm ** 2 - sum(v ** 2 for v in chk.part_norms)) < 1e-12
    assert chk.margin >= -1e-12


def test_partition_check_type_one_always_holds():
    f = step_fn(5, 4, 82, p=1.0)
    cfg = MCConfig(samples=20000, seed=3)
    chk = partition_inequality_check(f, [(0.0, 0.5), (0.5, 1.0)],
                                     "type", 1.0, 1.0, cfg)
    assert not chk.exact
    assert chk.lhs <= chk.rhs + 3.0 * chk.std_error_budget
    # cotype infinity with constant 1: max of parts below the whole
    chk2 = partition_inequality_check(f, [(0.0, 0.5), (0.5, 1.0)],
                                      "cotype", INF, 1.0, cfg)
    assert chk2.lhs <= chk2.rhs + 3.0 * chk2.std_error_budget


def test_partition_check_validation():
    f = step_fn(3, 2, 83)
    with pytest.raises(ValueError):
        partition_inequality_check(f, [(0.0, 0.4), (0.5, 1.0)], "type", 2.0, 1.0)
    with pytest.raises(ValueError):
        partition_inequality_check(f, [(0.0, 1.0)], "type", 2.5, 1.0)
    with pytest.raises(ValueError):
        partition_inequality_check(f, [(0.0, 1.0)], "cotype", 1.5, 1.0)
    with pytest.raises(ValueError):
        partition_inequality_check(f, [(0.0, 1.0)], "sideways", 2.0, 1.0)


def test_partition_check_needs_config_for_non_hilbert():
    f = step_fn(3, 2, 84, p=1.5)
    with pytest.raises(ValueError):
        partition_inequality_check(f, [(0.0, 1.0)], "type", 1.0, 1.0)


def test_rank_bound():
    f = step_fn(4, 6, 85)
    op = build_cell_operator(f)
    assert op.rank_bound == min(op.coefficients.shape) == 6
