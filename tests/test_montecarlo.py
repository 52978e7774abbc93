import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovgamma import spaces
from besovgamma.montecarlo import (_BLOCK, MCConfig, MCEstimate, _box_muller_blocks,
                                   batch_means, derive_seed, gaussian_array,
                                   rademacher_array)
from besovgamma.spaces import INF, LpSpace, gaussian_second_moment


def test_derive_seed_is_deterministic_and_label_sensitive():
    a = derive_seed(123, "alpha", 7)
    assert a == derive_seed(123, "alpha", 7)
    assert a != derive_seed(123, "alpha", 8)
    assert a != derive_seed(124, "alpha", 7)
    assert a != derive_seed(123, "beta", 7)
    assert 0 <= a < 2 ** 64


def test_derive_seed_distinguishes_int_from_string_labels():
    assert derive_seed(0, 7) != derive_seed(0, "7")


def test_gaussian_array_reproducible_and_shaped():
    x = gaussian_array((5, 3), 42)
    y = gaussian_array((5, 3), 42)
    z = gaussian_array((5, 3), 43)
    assert x.shape == (5, 3)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


def test_gaussian_array_moments():
    # First four moments of N(0,1): 0, 1, 0, 3, within seeded MC noise.
    x = gaussian_array(200000, 7)
    n = x.size
    assert abs(x.mean()) < 4.0 / math.sqrt(n)
    assert abs((x ** 2).mean() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs((x ** 3).mean()) < 4.0 * math.sqrt(15.0 / n)
    assert abs((x ** 4).mean() - 3.0) < 4.0 * math.sqrt(96.0 / n)


def test_gaussian_array_odd_total_size():
    x = gaussian_array((3, 3), 0)
    assert x.shape == (3, 3)
    assert np.isfinite(x).all()


def _one_shot_gaussian_array(shape, seed):
    # the transform gaussian_array ran before it was built on _box_muller_blocks
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    total = int(np.prod(shape)) if shape else 1
    half = (total + 1) // 2
    gen = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
    u = gen.random(2 * half).reshape(2, half)
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    angle = 2.0 * np.pi * u[1]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:total].reshape(shape)


@pytest.mark.parametrize("shape", [
    (), (1,), (2,), (3, 3), (0, 4), (7,), (2 * _BLOCK - 1,), (2 * _BLOCK + 1,),
    (2 * _BLOCK + 2,), (4 * _BLOCK - 1,), (4 * _BLOCK + 3,), (20000, 16), (3, 4 * _BLOCK + 1)])
@pytest.mark.parametrize("seed", [0, 17, 2 ** 63, 2 ** 64 - 1])
def test_gaussian_array_equals_the_one_shot_transform(shape, seed):
    got = gaussian_array(shape, seed)
    want = _one_shot_gaussian_array(shape, seed)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("half", [1, 2, 5, 6, 13, 101])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 100])
def test_box_muller_blocks_do_not_depend_on_the_block_size(half, block):
    seed = 2 ** 63 + half
    cos, sin = np.empty(half), np.empty(half)
    sizes = []
    for m0, c, s in _box_muller_blocks(half, seed, block):
        cos[m0:m0 + c.size], sin[m0:m0 + s.size] = c, s
        sizes.append(c.size)
    assert np.array_equal(np.concatenate([cos, sin])[:2 * half - 1],
                          _one_shot_gaussian_array(2 * half - 1, seed))
    assert sum(sizes) == half
    assert all(size == block for size in sizes[:-1])
    assert block <= sizes[-1] < 2 * block or sizes == [half] and half < block


def _in_order_box_muller_blocks(half, seed, block):
    # _box_muller_blocks as it ran before it grouped each block's angles:
    # theta, cos and sin taken in pair order
    count, key = max(1, half // block), int(seed) & (2**64 - 1)
    radii = np.random.Generator(np.random.Philox(key=key))
    angles = np.random.Generator(np.random.Philox(key=key).advance(half // 4))
    angles.random(half % 4)
    buffers = [np.empty(half - (count - 1) * block) for _ in range(4)]
    for m0 in range(0, count * block, block):
        r, theta, cos, sin = (b[:block if m0 + 2 * block <= half else half - m0] for b in buffers)
        radii.random(out=r)
        angles.random(out=theta)
        np.sqrt(np.multiply(-2.0, np.log1p(np.negative(r, out=r), out=r), out=r), out=r)
        np.multiply(2.0 * np.pi, theta, out=theta)
        np.multiply(r, np.cos(theta, out=cos), out=cos)
        np.multiply(r, np.sin(theta, out=sin), out=sin)
        yield m0, cos.copy(), sin.copy()


@st.composite
def halves_and_blocks(draw):
    block = draw(st.one_of(st.integers(1, 100), st.just(_BLOCK)))
    odd = draw(st.integers(0, 3 * min(block, 100))) * 2 + 1
    half = draw(st.sampled_from([1, 2, 3, odd, max(1, block - 1), block + 1,
                                 2 * block - 1, 3 * block]))
    return half, block


@settings(max_examples=150, deadline=None)
@given(halves_and_blocks(), st.integers(0, 2 ** 64 - 1))
def test_box_muller_blocks_equal_the_in_order_transform_bit_for_bit(half_block, seed):
    # grouping the angles by sixteenth of a turn moves no value and no block
    half, block = half_block
    got = [(m0, c.tobytes(), s.tobytes()) for m0, c, s in _box_muller_blocks(half, seed, block)]
    want = [(m0, c.tobytes(), s.tobytes())
            for m0, c, s in _in_order_box_muller_blocks(half, seed, block)]
    assert got == want


SECOND_MOMENT_CASES = [(16, 16, 4.0 / 3.0), (4, 4, 1.5), (3, 5, 3.0), (32, 4, INF)]


@pytest.mark.parametrize("n, dim, p", SECOND_MOMENT_CASES)
@pytest.mark.parametrize("samples", [1, 333, 1001, 4097])
def test_second_moment_equals_the_one_shot_estimate(n, dim, p, samples):
    # the norms of the tuple product over the draws of the in-order transform,
    # in one and in several blocks; the streamed sums are the one-shot ones only
    # where BLAS rounds each row alike at any row count, which on 32 vectors in
    # l^inf_4 fails from 8191 to 20001 samples, with or without the grouping
    space, seed = LpSpace(p, dim), 2 ** 64 - samples
    vecs = gaussian_array((n, dim), derive_seed(seed, n, dim))
    draws = _one_shot_gaussian_array((samples, n), seed)
    want = batch_means(space.norms(draws @ vecs) ** 2, seed)
    assert gaussian_second_moment(space, vecs, MCConfig(samples, seed)) == want


@pytest.mark.parametrize("n, dim, p", SECOND_MOMENT_CASES)
@pytest.mark.parametrize("samples", [8191, 2 * _BLOCK + 1, 20001])
def test_second_moment_equals_the_in_order_stream(n, dim, p, samples, monkeypatch):
    # the same stream of products over the draws of the in-order transform
    space, seed = LpSpace(p, dim), 2 ** 64 - samples
    vecs = gaussian_array((n, dim), derive_seed(seed, n, dim))
    got = gaussian_second_moment(space, vecs, MCConfig(samples, seed))
    monkeypatch.setattr(spaces, "_box_muller_blocks", _in_order_box_muller_blocks)
    assert got == gaussian_second_moment(space, vecs, MCConfig(samples, seed))


def test_rademacher_values_and_mean():
    x = rademacher_array(100000, 11)
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert abs(x.mean()) < 4.0 / math.sqrt(x.size)
    assert np.array_equal(x, rademacher_array(100000, 11))


def test_batch_means_constant_input():
    est = batch_means(np.full(3200, 2.5), seed=9)
    assert est.mean == 2.5
    assert est.std_error == 0.0
    assert est.samples == 3200
    assert est.seed == 9


def test_batch_means_small_sample_flags_error_as_inf():
    est = batch_means(np.ones(100), seed=0)
    assert est.mean == 1.0
    assert math.isinf(est.std_error)


def test_batch_means_covers_true_mean():
    # 50 independent replications; the 4-sigma band should essentially
    # always contain the true mean, and the se should scale like 1/sqrt(n).
    misses = 0
    for rep in range(50):
        x = gaussian_array(6400, derive_seed(5, "rep", rep)) + 1.0
        est = batch_means(x, seed=rep)
        if abs(est.mean - 1.0) > 4.0 * est.std_error:
            misses += 1
        assert 0.2 / math.sqrt(6400) < est.std_error < 5.0 / math.sqrt(6400)
    assert misses <= 1


def test_batch_means_truncates_to_batch_multiple():
    x = np.arange(1000, dtype=float)
    est = batch_means(x, seed=0)
    # 1000 -> 31 per batch * 32 = 992 samples used.
    assert est.samples == 992
    assert est.mean == x[:992].mean()


def test_batch_means_rejects_empty():
    with pytest.raises(ValueError):
        batch_means(np.array([]), seed=0)


def test_mcconfig_defaults():
    cfg = MCConfig()
    assert cfg.samples == 20000
    assert cfg.seed == 0
    assert isinstance(batch_means(np.ones(320), 0), MCEstimate)


@pytest.mark.parametrize("samples", [2.5, 320.5, math.nan, math.inf, 640.0, "640"])
def test_mcconfig_rejects_a_sample_count_that_is_not_an_integer(samples):
    # 2.5 and nan built a config that failed later inside np.empty
    with pytest.raises(ValueError, match="samples must be an integer"):
        MCConfig(samples, 1)


@pytest.mark.parametrize("samples", [True, False, np.True_])
def test_mcconfig_refuses_booleans_as_sample_counts(samples):
    # a bool is a numbers.Integral: MCConfig(True, 1) drew one sample
    with pytest.raises(ValueError, match="samples must be an integer"):
        MCConfig(samples, 1)


def test_mcconfig_takes_numpy_integers():
    assert MCConfig(np.int64(640), 1).samples == 640
    assert MCConfig(np.uint16(320), 1).samples == 320


@pytest.mark.parametrize("samples", [0, -5])
def test_mcconfig_rejects_fewer_than_one_sample(samples):
    # 0 once gave a nan mean through "Mean of empty slice", -5 a NumPy shape error
    with pytest.raises(ValueError, match="samples must be positive"):
        MCConfig(samples, 1)


@pytest.mark.parametrize("seed", [1.5, 2.9, 1.0, math.nan, np.float64(3.0), True, False, "3"])
def test_every_seed_entry_refuses_what_is_not_an_integer(seed):
    # each truncated or read a bool as 0 or 1: derive_seed(1.7, "a") equalled
    # derive_seed(1, "a"), and MCConfig(seed=1.5) kept the 1.5 it reported
    for draw in (lambda: derive_seed(seed, "a"), lambda: gaussian_array((3,), seed),
                 lambda: rademacher_array((3,), seed), lambda: MCConfig(640, seed)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw()


def test_seeds_take_numpy_integers():
    assert derive_seed(np.int64(7), "a") == derive_seed(7, "a")
    assert gaussian_array((5,), np.uint32(9)).tobytes() == gaussian_array((5,), 9).tobytes()
    assert rademacher_array((5,), np.int16(-2)).tobytes() == rademacher_array((5,), -2).tobytes()
    assert MCConfig(640, np.int64(3)).seed == 3
