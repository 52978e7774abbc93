import math

import numpy as np
import pytest

from besovgamma.montecarlo import (_BLOCK, MCConfig, MCEstimate, _box_muller_blocks,
                                   batch_means, derive_seed, gaussian_array,
                                   rademacher_array)


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


def test_mcconfig_takes_numpy_integers():
    assert MCConfig(np.int64(640), 1).samples == 640
    assert MCConfig(np.uint16(320), 1).samples == 320


@pytest.mark.parametrize("samples", [0, -5])
def test_mcconfig_rejects_fewer_than_one_sample(samples):
    # 0 once gave a nan mean through "Mean of empty slice", -5 a NumPy shape error
    with pytest.raises(ValueError, match="samples must be positive"):
        MCConfig(samples, 1)
