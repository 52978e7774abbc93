import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from besovgamma.montecarlo import _BLOCK, MCConfig, batch_means, derive_seed, gaussian_array
from besovgamma.spaces import (INF, LpSpace, as_exponent, gaussian_p_moment,
                               gaussian_second_moment, l1_gaussian_second_moment)


def test_as_exponent_accepts_numbers_and_inf():
    assert as_exponent(2) == 2.0
    assert as_exponent(1.5) == 1.5
    assert as_exponent(INF) is INF
    assert as_exponent(math.inf) is INF
    assert as_exponent("inf") is INF


def test_as_exponent_rejects_below_one():
    with pytest.raises(ValueError):
        as_exponent(0.9)


def test_as_exponent_and_lpspace_reject_booleans():
    # True read as p = 1.0, so LpSpace(True, 3) built l^1_3
    for flag in (True, False, np.True_, np.False_):
        with pytest.raises(ValueError, match=f"boolean {flag!r}"):
            as_exponent(flag)
        with pytest.raises(ValueError, match="boolean"):
            LpSpace(flag, 3)


def test_lpspace_dim_must_be_a_whole_number():
    # 2.7 was truncated to dimension 2
    for dim in (2.7, 0.5, math.nan, math.inf, 0, -1, True, np.True_):
        with pytest.raises(ValueError, match="dim must be a whole number"):
            LpSpace(2, dim)
    for dim in (3, 3.0, np.int64(3), np.int32(3)):
        space = LpSpace(1.5, dim)
        assert space.dim == 3 and type(space.dim) is int


def test_lp_norms_against_numpy():
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(20):
        dim = int(rng.integers(1, 9))
        x = rng.normal(size=dim)
        assert LpSpace(1, dim).norm(x) == pytest.approx(np.abs(x).sum(), rel=1e-14)
        assert LpSpace(2, dim).norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-14)
        assert LpSpace(3, dim).norm(x) == pytest.approx(
            (np.abs(x) ** 3).sum() ** (1 / 3), rel=1e-14)
        assert LpSpace(INF, dim).norm(x) == np.abs(x).max()


def test_norms_batch_matches_single():
    rng = np.random.Generator(np.random.Philox(key=4))
    xs = rng.normal(size=(10, 5))
    for p in (1, 1.5, 2, INF):
        space = LpSpace(p, 5)
        batch = space.norms(xs)
        for row, val in zip(xs, batch):
            assert space.norm(row) == pytest.approx(val, rel=1e-14, abs=1e-300)


@st.composite
def coordinate_arrays(draw):
    # 1-D vectors, (n, d) batches with n from 0 to 50, and 3-D stacks, with
    # signed zeros, infinities and NaN among the entries
    dim = draw(st.integers(1, 17))
    lead = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 50)),
                          st.tuples(st.integers(0, 5), st.integers(1, 5))))
    entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    return draw(hnp.arrays(np.float64, lead + (dim,), elements=entries))


@settings(max_examples=200)
@given(coordinate_arrays())
def test_sup_norms_equal_rowwise_max_bit_for_bit(x):
    got = LpSpace(INF, x.shape[-1]).norms(x)
    want = np.abs(x).max(axis=-1)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def finite_batches(draw):
    dim = draw(st.integers(1, 17))
    rows = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-90, 1e-6, 1.0, 1e6, 1e90]))
    x = draw(hnp.arrays(np.float64, (rows, dim), elements=st.floats(-1.0, 1.0)))
    return x * scale, draw(st.integers(0, rows - 1))


@settings(max_examples=200)
@given(finite_batches(), st.sampled_from([1.25, 4.0 / 3.0, 1.5, 3.0]))
def test_fractional_norms_of_a_vector_equal_its_batch_row_bit_for_bit(batch, p):
    # a 1-D input reduces to a NumPy scalar; its final root must take the
    # same pow path as the batch's, or the two differ in the last bit
    x, i = batch
    space = LpSpace(p, x.shape[-1])
    assert space.norms(x[i]).tobytes() == space.norms(x)[i].tobytes()


def summed_norms(x, p):
    # the reduction over the last axis that every dimension used before a
    # length-1 axis was read instead of reduced
    if p is INF:
        return np.abs(x, order="F").max(axis=-1)
    if p == 1.0:
        return np.abs(x).sum(axis=-1)
    if p == 2.0:
        return np.sqrt((x * x).sum(axis=-1))
    return np.power(np.power(np.abs(x), p).sum(axis=-1), 1.0 / p)


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 700.0, 1e300, INF])
def test_dimension_one_norms_equal_the_reduction_bit_for_bit(p):
    # squares that underflow (1e-160) or overflow (1e160), and l^1e300 of
    # 1.0 leaving float range, come out as the sum would give them
    rng = np.random.Generator(np.random.Philox(key=derive_seed(41)))
    entries = np.concatenate([rng.normal(size=64), [0.0, -0.0, 1.0, -1.0, 1e-160, -1e-160,
                                                    1e160, -1e160, 1e-308, 5e-324, 1.7e308]])
    space = LpSpace(p, 1)
    for x in (entries[:, None], entries.reshape(3, 25, 1), entries[:1], entries[-1:],
              entries[:0, None]):
        with np.errstate(all="ignore"):
            got, want = space.norms(x), summed_norms(x, p)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_norms_reject_a_wrong_last_axis():
    with pytest.raises(ValueError, match="last axis"):
        LpSpace(INF, 3).norms(np.ones((3, 4)))


def test_is_hilbert_flag():
    assert LpSpace(2, 3).is_hilbert
    assert not LpSpace(1.9999, 3).is_hilbert
    assert not LpSpace(INF, 3).is_hilbert


def test_gaussian_p_moment_exact_special_cases():
    # E|N(0,s^2)|^1 = s sqrt(2/pi); second moment s^2; fourth 3 s^4.
    assert gaussian_p_moment(1.0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert gaussian_p_moment(0.7, 2.0) == pytest.approx(0.49, rel=1e-14)
    assert gaussian_p_moment(1.3, 4.0) == pytest.approx(3.0 * 1.3 ** 4, rel=1e-13)
    assert gaussian_p_moment(0.0, 3.0) == 0.0


def test_gaussian_p_moment_against_quadrature():
    # Independent oracle: integrate |x|^p against the N(0, s^2) density.
    for p in (1.0, 1.7, 2.5, 4.0, 7.3):
        for s in (0.5, 1.0, 2.0):
            half, err = integrate.quad(
                lambda x: x ** p * math.exp(-x * x / (2 * s * s))
                / (s * math.sqrt(2 * math.pi)),
                0.0, 40.0 * s, limit=200)
            oracle = 2.0 * half
            assert err < 1e-7 * max(1.0, oracle)
            assert gaussian_p_moment(s, p) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("p", [math.nan, math.inf, INF, "inf", 0.5])
def test_gaussian_p_moment_needs_a_finite_p_at_least_one(p):
    # nan and inf once returned nan, and INF raised a TypeError
    with pytest.raises(ValueError, match="finite p >= 1"):
        gaussian_p_moment(1.0, p)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.5])
def test_gaussian_p_moment_needs_a_finite_sigma_at_least_zero(sigma):
    # nan and inf once returned nan and inf
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        gaussian_p_moment(sigma, 1.5)


def test_gaussian_p_moment_large_p_does_not_overflow():
    val = gaussian_p_moment(1.0, 300.0)
    assert math.isfinite(val) and val > 0.0


def test_second_moment_l1_matches_closed_form():
    # E(|g1| + |g2|)^2 = 2 + 2 (E|g|)^2 = 2 + 4/pi for unit basis vectors.
    space = LpSpace(1, 2)
    vecs = np.eye(2)
    est = gaussian_second_moment(space, vecs, MCConfig(samples=200000, seed=21))
    target = 2.0 + 4.0 / math.pi
    assert abs(est.mean - target) < 4.0 * est.std_error
    assert est.std_error < 0.05


def test_second_moment_hilbert_exact():
    # always sampled; on a Hilbert target it estimates the exact
    # E||sum gamma_n x_n||^2 = sum_n ||x_n||^2
    space = LpSpace(2, 4)
    vecs = gaussian_array((5, 4), 8)
    est = gaussian_second_moment(space, vecs, MCConfig(samples=200000, seed=9))
    assert abs(est.mean - float((vecs ** 2).sum())) < 4.0 * est.std_error
    with pytest.raises(ValueError, match="dimension 4"):
        gaussian_second_moment(space, [], MCConfig(samples=100, seed=9))


def test_l1_closed_form_of_a_rank_one_covariance():
    # G = gamma v, so ||G||_1^2 = gamma^2 ||v||_1^2 and E||G||_1^2 = ||v||_1^2
    for seed in range(5):
        v = gaussian_array((1, 6), 30 + seed)[0]
        assert l1_gaussian_second_moment(np.outer(v, v)) == pytest.approx(
            float(np.abs(v).sum()) ** 2, rel=1e-12)


def test_l1_closed_form_of_a_diagonal_covariance():
    # independent coordinates: E|G_i||G_j| = (2/pi) sigma_i sigma_j for i != j
    sigmas = np.array([0.5, 1.0, 2.0, 3.5])
    cross = float(sigmas.sum()) ** 2 - float((sigmas ** 2).sum())
    expected = float((sigmas ** 2).sum()) + 2.0 / math.pi * cross
    assert l1_gaussian_second_moment(np.diag(sigmas ** 2)) == pytest.approx(expected,
                                                                            rel=1e-12)


def test_l1_closed_form_ignores_zero_variance_coordinates():
    v = np.array([1.5, 0.0, -2.0, 0.0])
    cov = np.outer(v, v)
    cov[3, 3] = 4.0  # an independent coordinate beside the zero one
    got = l1_gaussian_second_moment(cov)
    expected = 3.5 ** 2 + 4.0 + 2.0 * (2.0 / math.pi) * 3.5 * 2.0
    assert math.isfinite(got)
    assert got == pytest.approx(expected, rel=1e-12)
    assert l1_gaussian_second_moment(np.zeros((3, 3))) == 0.0


def test_l1_closed_form_clips_correlations_rounded_past_one():
    # X^T X with proportional rows is ||c||^2 v v^T, but rounds some
    # correlations Q_ij / (s_i s_j) to just above 1 in magnitude
    c = np.array([0.3, 0.7, 1.1])
    v = gaussian_array((1, 4), 0)[0]
    x = np.outer(c, v)
    cov = x.T @ x
    sigmas = np.sqrt(np.diag(cov))
    assert np.abs(cov / np.outer(sigmas, sigmas)).max() > 1.0
    assert l1_gaussian_second_moment(cov) == pytest.approx(
        float((c ** 2).sum()) * float(np.abs(v).sum()) ** 2, rel=1e-12)


@pytest.mark.parametrize("dim, seed", [(2, 41), (4, 42), (16, 43)])
def test_l1_closed_form_matches_sampling(dim, seed):
    x = gaussian_array((dim + 1, dim), seed)
    space = LpSpace(1, dim)
    est = gaussian_second_moment(space, x, MCConfig(samples=200000, seed=seed))
    exact = l1_gaussian_second_moment(x.T @ x)
    assert abs(est.mean - exact) < 4.0 * est.std_error


# (samples, vectors, dim): odd sample counts with an even number of vectors
# (a row straddles the middle of the draws) and with an odd number (the last
# draw is dropped), one and several Box-Muller blocks, sample counts that no
# block size divides
_STREAMED_SHAPES = [(1, 1, 1), (1, 3, 2), (3, 2, 4), (5, 3, 3), (7, 4, 4), (999, 6, 5),
                    (1001, 7, 7), (2 * _BLOCK + 1, 1, 2), (4097, 2, 3), (4097, 8, 4),
                    (20001, 15, 16), (20001, 4, 3), (20000, 16, 16), (3, 1, 2 * _BLOCK + 5)]


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, INF])
@pytest.mark.parametrize("samples, n, dim", _STREAMED_SHAPES)
def test_second_moment_streams_the_one_shot_estimate(p, samples, n, dim):
    # bit for bit the estimate over the full samples x n draw matrix
    space, seed = LpSpace(p, dim), 2 ** 63 + samples
    vecs = gaussian_array((n, dim), samples + n + dim)
    want = batch_means(space.norms(gaussian_array((samples, n), seed) @ vecs) ** 2, seed)
    assert gaussian_second_moment(space, vecs, MCConfig(samples, seed)) == want


def test_second_moment_reports_an_overflowing_norm():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"l\^700\.0 norm .* overflowed float range"):
            gaussian_second_moment(LpSpace(700.0, 2), 10.0 * np.eye(2), MCConfig(2000, 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_second_moment_rejects_a_non_finite_entry_before_sampling(bad):
    # a tuple that was never finite is not reported as an overflow
    with pytest.raises(ValueError, match="finite entries"):
        gaussian_second_moment(LpSpace(3, 2), [[bad, 1.0]], MCConfig(640, 1))


def test_second_moment_never_builds_the_draw_matrix():
    # the samples x 16 draws alone would take 24.4 MiB
    space, vecs, cfg = LpSpace(4.0 / 3.0, 16), np.eye(16), MCConfig(200000, 5)
    tracemalloc.start()
    try:
        gaussian_second_moment(space, vecs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
