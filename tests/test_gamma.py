import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovgamma.besov import build_filter_bank
from besovgamma.constructions import (make_psi_system, make_single_band, make_step,
                                      make_tent_family, tent_l2_sigmas)
from besovgamma.functions import (Interpolation, PiecewiseFunction,
                                  l2_norm_squared, lp_norm)
from besovgamma.gamma import (ROUNDOFF_RTOL, GammaOperator, covariance, covariance_operator,
                              disjoint_lp_from_sigmas, gamma_norm, gamma_norm_disjoint_lp,
                              gamma_norm_hilbert, gamma_norm_mc, ideal_compose,
                              partition_inequality_check)
from besovgamma.montecarlo import MCConfig, derive_seed, gaussian_array
from besovgamma.spaces import (INF, LpSpace, gaussian_p_moment, gaussian_second_moment,
                               l1_gaussian_second_moment)


def step_fn(n, dim, seed, p=2.0):
    return make_step(n, gaussian_array((n, dim), seed), LpSpace(p, dim))


def test_covariance_of_make_step_is_gram_over_2n():
    # make_step puts +-x_k on 2n cells of width 1/(2n): Q = X^T X / (2n)
    n = 4
    vecs = gaussian_array((n, 3), 70)
    q = covariance(make_step(n, vecs, LpSpace(1.5, 3)))
    assert np.abs(q - vecs.T @ vecs / (2 * n)).max() < 1e-14


def test_covariance_of_tent_family_matches_gauss_legendre():
    # f f^T is quadratic on each linear piece, so 8 nodes integrate it exactly
    g = make_tent_family(8, 1.2, 1.5)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    u = 0.5 * (nodes + 1.0)
    ref = np.zeros((8, 8))
    for j in range(g.breakpoints.size - 1):
        a, b = g.values[j], g.values[j + 1]
        vals = (1.0 - u)[:, None] * a + u[:, None] * b
        length = g.breakpoints[j + 1] - g.breakpoints[j]
        ref += 0.5 * length * (vals.T * weights) @ vals
    assert np.abs(covariance(g) - ref).max() < 1e-13


def test_covariance_of_grid_single_band_has_unit_trace():
    bank = build_filter_bank(16.0 * math.pi, 1024, 1, 4)
    f = make_single_band(2, bank)
    assert float(np.trace(covariance(f))) == pytest.approx(1.0, rel=1e-10)
    est = gamma_norm_mc(f, MCConfig(samples=20000, seed=9))
    assert abs(est.mean - 1.0) < 4.0 * est.std_error


def test_mc_norm_of_linear_source_agrees_with_hilbert():
    breaks = np.array([0.0, 0.3, 0.45, 1.0, 1.6])
    f = PiecewiseFunction(breaks, gaussian_array((5, 3), 86), Interpolation.LINEAR,
                          LpSpace(2, 3))
    est = gamma_norm_mc(f, MCConfig(samples=20000, seed=10))
    assert abs(est.mean - gamma_norm_hilbert(f)) < 4.0 * est.std_error


def test_singular_covariance_rank_one():
    # only coordinate 1 is active: the sum is N(0, 1.25) e_1 in any l^p
    f = PiecewiseFunction([0.0, 1.0, 2.0], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                            [0.0, 0.5, 0.0]],
                          Interpolation.STEP, LpSpace(1.5, 3))
    op = covariance_operator(f)
    expect = np.zeros((3, 3))
    expect[1, 1] = math.sqrt(1.25)
    assert np.abs(op.coefficients - expect).max() < 1e-15
    est = op.mc_norm(MCConfig(samples=20000, seed=11))
    assert abs(est.mean - math.sqrt(1.25)) < 4.0 * est.std_error


@st.composite
def random_steps_and_cuts(draw):
    """A step with non-uniform breakpoints into l^2_dim, dim 1..4, and
    interior cut points that split its support into a partition."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.02, 0.8), min_size=m - 1, max_size=m - 1))
    breaks = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=m * dim, max_size=m * dim))
    f = PiecewiseFunction(breaks, np.reshape(vals, (m, dim)), Interpolation.STEP,
                          LpSpace(2, dim))
    fracs = draw(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=4, unique=True))
    cuts = np.sort(breaks[0] + np.asarray(fracs) * (breaks[-1] - breaks[0]))
    return f, np.concatenate([[breaks[0]], cuts, [breaks[-1]]])


@settings(max_examples=60)
@given(random_steps_and_cuts())
def test_covariance_properties_on_random_steps(case):
    f, edges = case
    q = covariance(f)
    root = covariance_operator(f).coefficients
    assert np.abs(q - q.T).max() <= 1e-12
    assert np.abs(root.T @ root - q).max() <= 1e-12
    assert abs(float(np.trace(q)) - l2_norm_squared(f)) <= 1e-12
    parts = sum(covariance(f.restrict([(a, b)])) for a, b in zip(edges[:-1], edges[1:])
                if b > a)
    assert np.abs(parts - q).max() <= 1e-12


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


@pytest.mark.parametrize("p", [INF, math.inf, math.nan, 0.5])
def test_disjoint_lp_from_sigmas_needs_a_finite_p_at_least_one(p):
    with pytest.raises(ValueError, match="finite p >= 1"):
        disjoint_lp_from_sigmas([0.5, 1.0], p)


@pytest.mark.parametrize("sigmas", [[math.nan, 1.0], [1.0, math.inf], [-0.5, 1.0]])
def test_disjoint_lp_from_sigmas_needs_finite_sigmas_at_least_zero(sigmas):
    # [nan, 1.0] once gave a nan lp_moment
    with pytest.raises(ValueError, match="sigmas must be finite and >= 0"):
        disjoint_lp_from_sigmas(sigmas, 1.5)


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
    left = covariance_operator(f.restrict([(0.0, cut)])).coefficients
    right = covariance_operator(f.restrict([(cut, 1.0)])).coefficients
    whole = gamma_norm_hilbert(f) ** 2
    parts = float((left ** 2).sum() + (right ** 2).sum())
    assert whole == pytest.approx(parts, abs=1e-13)


def test_ideal_compose_identity_and_contraction():
    f = step_fn(4, 2, 79)
    op = covariance_operator(f)
    same = ideal_compose(op, np.eye(op.coefficients.shape[0]))
    assert np.array_equal(same.coefficients, op.coefficients)
    rng = np.random.Generator(np.random.Philox(key=80))
    raw = rng.normal(size=(2, 2))
    contraction = raw / (np.linalg.norm(raw, 2) * 1.01)
    out = ideal_compose(op, contraction)
    assert (out.coefficients ** 2).sum() <= (op.coefficients ** 2).sum()
    with pytest.raises(ValueError):
        ideal_compose(op, np.eye(5))


@pytest.mark.parametrize("p, dim", [(1.0, 4), (3.0, 1), (2.0, 3)])
def test_gamma_norm_exact_forms_agree_with_the_sampled_second_moment(p, dim):
    # l^1_4 (Nabeya), l^3_1 = R (Nabeya of a 1 x 1 Q) and l^2_3 (trace Q);
    # make_step puts +-x_k on 2n cells of width 1/(2n), so the norm is that
    # of the Gaussian sum over the rows x_k / sqrt(2n)
    n = 5
    vecs = gaussian_array((n, dim), 91)
    est = gamma_norm(make_step(n, vecs, LpSpace(p, dim)))
    assert (est.std_error, est.samples, est.seed) == (0.0, 0, 0)
    ref = gaussian_second_moment(LpSpace(p, dim), vecs / math.sqrt(2 * n),
                                 MCConfig(samples=20000, seed=92))
    assert abs(est.mean ** 2 - ref.mean) < 4.0 * ref.std_error


@pytest.mark.parametrize("p", [1.5, INF])
def test_gamma_norm_samples_every_other_target_through_gamma_norm_mc(p):
    f = step_fn(4, 3, 93, p=p)
    cfg = MCConfig(samples=640, seed=5)
    assert gamma_norm(f, cfg) == gamma_norm_mc(f, cfg)
    with pytest.raises(ValueError, match="MC config"):
        gamma_norm(f)


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_gamma_norm_rejects_a_non_finite_exact_value(p):
    f = make_step(2, np.full((2, 3), 1e200), LpSpace(p, 3))
    with pytest.raises(ValueError, match="overflowed"):
        gamma_norm(f)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_step_and_psi_constructions_reject_a_non_finite_tuple(p, bad):
    # caught where the tuple enters, not reported later as an overflow
    vecs = [[bad, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="finite entries"):
        gamma_norm(make_step(2, vecs, LpSpace(p, 2)), MCConfig(640, 1))
    with pytest.raises(ValueError, match="finite entries"):
        make_psi_system(2, vecs, build_filter_bank(8.0, 1024, 1, 8), LpSpace(p, 2))
    with pytest.raises(ValueError, match="need 3 vectors"):
        make_step(3, [[0.0, 1.0]] * 2, LpSpace(p, 2))


def test_partition_check_hilbert_exact():
    f = step_fn(5, 4, 81)
    chk = partition_inequality_check(f, [(0.0, 0.3), (0.3, 0.8), (0.8, 1.0)],
                                     "type", 2.0, 1.0)
    assert chk.exact
    assert chk.std_error_budget == 0.0
    assert abs(chk.whole_norm ** 2 - sum(v ** 2 for v in chk.part_norms)) < 1e-12
    assert chk.margin >= -1e-12


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_partition_piece_norms_are_the_restricted_norms(p):
    # each side is the target's own norm of f and of f.restrict([iv]), to the bit
    f = step_fn(4, 3, 88, p=p)
    partition = [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)]
    cfg = MCConfig(samples=640, seed=4)
    chk = partition_inequality_check(f, partition, "type", 2.0, 1.0, cfg)
    if f.space.is_hilbert:
        whole = gamma_norm_hilbert(f)
        parts = [gamma_norm_hilbert(f.restrict([iv])) for iv in partition]
    else:
        whole = gamma_norm_mc(f, MCConfig(640, derive_seed(4, "whole"))).mean
        parts = [gamma_norm_mc(f.restrict([iv]), MCConfig(640, derive_seed(4, "part", j))).mean
                 for j, iv in enumerate(partition)]
    assert chk.whole_norm == whole
    assert chk.part_norms == tuple(parts)
    assert chk.exact == f.space.is_hilbert


def test_partition_check_type_one_always_holds():
    f = step_fn(5, 4, 82, p=1.0)
    cfg = MCConfig(samples=20000, seed=3)
    chk = partition_inequality_check(f, [(0.0, 0.5), (0.5, 1.0)],
                                     "type", 1.0, 1.0, cfg)
    assert chk.exact
    assert chk.lhs <= chk.rhs + chk.std_error_budget
    # cotype infinity with constant 1: max of parts below the whole
    chk2 = partition_inequality_check(f, [(0.0, 0.5), (0.5, 1.0)],
                                      "cotype", INF, 1.0, cfg)
    assert chk2.exact
    assert chk2.lhs <= chk2.rhs + chk2.std_error_budget


def test_partition_check_l1_is_the_closed_form_without_a_config():
    f = step_fn(4, 3, 86, p=1.0)
    partition = [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)]
    chk = partition_inequality_check(f, partition, "type", 1.0, 1.0)
    assert chk.exact
    assert chk.whole_norm == math.sqrt(l1_gaussian_second_moment(covariance(f)))
    assert chk.part_norms == tuple(
        math.sqrt(l1_gaussian_second_moment(covariance(f.restrict([iv]))))
        for iv in partition)
    assert chk.std_error_budget == ROUNDOFF_RTOL * (chk.lhs + chk.rhs)
    assert chk.margin >= -chk.std_error_budget
    # the config is unused on l^1 and leaves the check unchanged
    assert partition_inequality_check(f, partition, "type", 1.0, 1.0,
                                      MCConfig(samples=320, seed=1)) == chk


def test_partition_check_l1_with_a_zero_part():
    # a one-block make_step is 0 on (1/2, 1], so the parts there carry
    # nothing and the two sides of the type-1 inequality agree in exact
    # arithmetic: only the roundoff budget separates them
    f = step_fn(1, 3, 87, p=1.0)
    chk = partition_inequality_check(f, [(0.0, 0.5), (0.5, 0.8), (0.8, 1.0)],
                                     "type", 1.0, 1.0)
    assert chk.exact
    assert chk.part_norms[1:] == (0.0, 0.0)
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-14)
    assert 0.0 < chk.std_error_budget <= 1e-11 * chk.rhs
    assert chk.margin >= -chk.std_error_budget


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


@pytest.mark.parametrize("constant", [math.nan, -1.0, math.inf])
def test_partition_check_rejects_a_non_finite_or_negative_constant(constant):
    # NaN gave a NaN margin and budget, -1 a negative budget, and inf a
    # check that passed trivially with an infinite budget
    f = step_fn(4, 3, 89, p=1.0)
    with pytest.raises(ValueError, match="constant"):
        partition_inequality_check(f, [(0.0, 0.5), (0.5, 1.0)], "type", 1.0, constant)


def test_partition_check_needs_config_for_non_hilbert():
    f = step_fn(3, 2, 84, p=1.5)
    with pytest.raises(ValueError):
        partition_inequality_check(f, [(0.0, 1.0)], "type", 1.0, 1.0)


def test_rank_zero_operator_has_zero_norm():
    f = step_fn(4, 6, 85)
    empty = GammaOperator(np.zeros((0, 6)), f.space, "cells", 0.0)
    assert empty.mc_norm(MCConfig(samples=2000, seed=1)).mean == 0.0


@pytest.fixture(scope="module")
def psi_2d():
    # two psi profiles on a 2-D grid: orthonormal in L^2, so covariance X^T X
    X = gaussian_array((2, 3), 87)
    return X, build_filter_bank(4.0, 256, 2, 7)


def test_2d_psi_system_covariance_is_the_gram_matrix(psi_2d):
    X, bank = psi_2d
    gram = X.T @ X
    for space in (LpSpace(2, 3), LpSpace(1, 3)):
        q = covariance(make_psi_system(2, X, bank, space))
        assert np.abs(q - gram).max() <= 1e-14 * np.abs(gram).max()


def test_2d_psi_system_hilbert_gamma_norm(psi_2d):
    X, bank = psi_2d
    f = make_psi_system(2, X, bank, LpSpace(2, 3))
    assert gamma_norm_hilbert(f) == pytest.approx(math.sqrt((X ** 2).sum()), rel=1e-14)


def test_2d_psi_system_l1_gamma_norm_matches_the_closed_form(psi_2d):
    X, bank = psi_2d
    f = make_psi_system(2, X, bank, LpSpace(1, 3))
    est = gamma_norm_mc(f, MCConfig(samples=20000, seed=87))
    exact = math.sqrt(l1_gaussian_second_moment(X.T @ X))
    assert abs(est.mean - exact) < 4.0 * est.std_error
