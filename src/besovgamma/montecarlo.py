"""Seeded Monte Carlo plumbing shared by the norm estimators.

All randomness in the package flows through counter-based Philox streams
keyed by explicit 64-bit seeds.  Gaussians are Box-Muller on Philox uniforms
(not the generator's own ziggurat), a block of pairs at a time: radii and
angles come from two Philox generators on one key, the second advanced by
half the draws, so the values depend on (seed, shape) and not on the block
size.  A block takes cos and sin over its angles grouped by sixteenth of a
turn and puts them back in pair order: the same libm calls on the same
operands, so the grouping moves no bit.  `gaussian_array` and the streamed
`spaces.gaussian_second_moment` share that kernel.  `derive_seed` hashes a
parent seed with labels for sub-tasks, so serial and parallel execution see
identical streams.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Batch-means settings: 32 batches needs >= 10 samples per batch before the
# error estimate means anything; below that we fall back to a single batch
# and flag the std_error as unusable (+inf).
N_BATCHES = 32
MIN_BATCHED_SAMPLES = 10 * N_BATCHES


def _integer_seed(seed) -> int:
    """`seed` as an int: a float, a boolean or a string raises (int() would
    truncate 1.7 to 1 and read True as 1); NumPy integers pass."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def derive_seed(root_seed: int, *parts) -> int:
    """Deterministically derive a 64-bit child seed from a root seed and labels."""
    text = repr(_integer_seed(root_seed)) + "".join("|" + repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_BLOCK = 2 ** 13  # pairs per block of `_box_muller_blocks`


def _box_muller_blocks(half: int, seed: int, block: int = _BLOCK):
    """Yield (m0, r cos(theta), r sin(theta)) over blocks of the pair index
    m0 <= m < half: r = sqrt(-2 log(1 - u[m])), theta = 2 pi u[half + m], u the
    Philox uniforms of `seed`.  u[half:] comes from a second generator on the
    key, advanced by half draws, so no value depends on the block size.  Each
    block reuses the arrays; the last one takes block to 2 block - 1 pairs.

    A block takes theta, cos and sin over its angles grouped by the uint8 key
    floor(16 u) (one stable argsort, a radix sort), so that libm's range
    reduction predicts its branches, and scatters both back to their pair
    indices.  Ufuncs act elementwise: each value is the same call on the
    same operand as in pair order, so the grouping moves no bit."""
    count, key = max(1, half // block), _integer_seed(seed) & (2**64 - 1)
    radii = np.random.Generator(np.random.Philox(key=key))
    angles = np.random.Generator(np.random.Philox(key=key).advance(half // 4))  # 4 doubles/step
    angles.random(half % 4)
    size = half - (count - 1) * block
    buffers, sixteenths = [np.empty(size) for _ in range(4)], np.empty(size, np.uint8)
    for m0 in range(0, count * block, block):
        m = block if m0 + 2 * block <= half else half - m0
        r, u, cos, sin = (b[:m] for b in buffers)
        radii.random(out=r)
        angles.random(out=u)
        # 1 - u in (0, 1] keeps the log finite; the ufuncs of a one-shot transform, in place
        np.sqrt(np.multiply(-2.0, np.log1p(np.negative(r, out=r), out=r), out=r), out=r)
        order = np.argsort(np.multiply(16.0, u, out=sixteenths[:m], casting="unsafe"),
                           kind="stable")
        theta = np.multiply(2.0 * np.pi, np.take(u, order, out=sin, mode="clip"), out=sin)
        cos[order] = np.cos(theta, out=u)
        sin[order] = np.sin(theta, out=u)  # theta, in sin, is read before the scatter
        np.multiply(r, cos, out=cos)
        np.multiply(r, sin, out=sin)
        yield m0, cos, sin


def gaussian_array(shape, seed: int) -> np.ndarray:
    """Standard normal array of the given shape via Box-Muller on Philox uniforms."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    total = int(np.prod(shape)) if shape else 1
    half = (total + 1) // 2
    z = np.empty(2 * half)
    for m0, cos, sin in _box_muller_blocks(half, seed):
        z[m0:m0 + cos.size], z[half + m0:half + m0 + sin.size] = cos, sin
    return z[:total].reshape(shape)


def rademacher_array(shape, seed: int) -> np.ndarray:
    """Array of independent +-1 signs from the same Philox stream family."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    total = int(np.prod(shape)) if shape else 1
    u = np.random.Generator(np.random.Philox(key=_integer_seed(seed) & (2**64 - 1))).random(total)
    return np.where(u < 0.5, -1.0, 1.0).reshape(shape)


@dataclass(frozen=True)
class MCConfig:
    """Sample count and root seed for a Monte Carlo estimate."""

    samples: int = 20000
    seed: int = 0

    def __post_init__(self):
        _integer_seed(self.seed)
        if not isinstance(self.samples, numbers.Integral) or isinstance(self.samples, bool):
            raise ValueError("samples must be an integer")
        if self.samples < 1:
            raise ValueError("samples must be positive")


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with a batch-means standard error, or, with
    samples == 0, an exact value (std_error 0, seed 0; see `gamma.gamma_norm`).

    `std_error` is computed from 32 equal batches; fewer than 320 samples
    cannot support that and report a single batch with std_error = +inf.
    Given (seed, samples) the estimate is bit-exact reproducible.
    """

    mean: float
    std_error: float
    samples: int
    seed: int


def batch_means(values: np.ndarray, seed: int) -> MCEstimate:
    """Estimate the mean of `values` with a 32-batch batch-means std error.

    The sample count is truncated to a multiple of 32 so the overall mean
    equals the mean of the batch means exactly.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n == 0:
        raise ValueError("batch_means needs at least one sample")
    if n < MIN_BATCHED_SAMPLES:
        return MCEstimate(mean=float(values.mean()), std_error=math.inf,
                          samples=n, seed=seed)
    per_batch = n // N_BATCHES
    used = per_batch * N_BATCHES
    bm = values[:used].reshape(N_BATCHES, per_batch).mean(axis=1)
    se = float(bm.std(ddof=1) / math.sqrt(N_BATCHES))
    return MCEstimate(mean=float(bm.mean()), std_error=se, samples=used, seed=seed)
