"""Finite-dimensional l^p spaces and Gaussian moment formulas.

The exponent p lives in [1, inf].  Infinity is the singleton `INF`, a
distinguished object rather than a float, so p-dependent arithmetic
(1/p, 2^{ks/p}, ...) never silently runs on a float infinity; every
formula branches explicitly.  Constructors accept float("inf"), numpy
inf, or the string "inf" and normalize to `INF` at the boundary.  Every
exponent rule lives here: `as_exponent`, `check_exponent` (type and
cotype ranges) and `_finite_exponent` (formulas that need p < inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .montecarlo import _BLOCK, MCConfig, MCEstimate, _box_muller_blocks, batch_means


class _Infinity:
    """Singleton marker for the exponent p = infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()

Exponent = Union[float, _Infinity]


def as_exponent(p) -> Exponent:
    """Normalize an exponent to a float in [1, inf) or the INF singleton;
    a boolean, which float() would read as 1 or 0, raises."""
    if p is INF or isinstance(p, _Infinity):
        return INF
    _not_boolean(p)
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            return INF
        p = float(p)
    p = float(p)
    if math.isinf(p):
        return INF
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return p


def check_exponent(direction: str, exponent):
    """Normalize `exponent` for `direction`: type needs p in [1, 2],
    cotype needs q in [2, inf]."""
    exponent = as_exponent(exponent)
    if direction == "type":
        if exponent is INF or float(exponent) > 2.0:
            raise ValueError("type exponent must lie in [1, 2]")
    elif direction == "cotype":
        if exponent is not INF and float(exponent) < 2.0:
            raise ValueError("cotype exponent must lie in [2, inf]")
    else:
        raise ValueError("direction must be 'type' or 'cotype'")
    return exponent


def _not_boolean(p) -> None:
    """Refuse a boolean exponent, which float() would read as 1 or 0."""
    if isinstance(p, (bool, np.bool_)):
        raise ValueError(f"exponent must be a number, not the boolean {p!r}")


def _finite_exponent(p) -> float:
    """p as a float in [1, inf): INF, inf, NaN, p < 1 and booleans raise."""
    _not_boolean(p)
    if p is INF or not 1.0 <= float(p) < math.inf:
        raise ValueError(f"the exponent must be a finite p >= 1, got {p}")
    return float(p)


@dataclass(frozen=True)
class LpSpace:
    """The space R^dim with the l^p norm.

    is_hilbert is True exactly for p = 2.  `gaussian_exact` is the one rule for
    a closed-form Gaussian second moment, read by `gamma` and `typecotype`.
    A tuple of vectors in it passes one check, `_finite_tuple`, wherever it
    enters: moments, ratios, warm starts and the step and psi constructions.
    """

    p: Exponent
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_exponent(self.p))
        if isinstance(self.dim, (bool, np.bool_)) or not (
                float(self.dim).is_integer() and self.dim >= 1):
            raise ValueError("dim must be a whole number >= 1")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def is_hilbert(self) -> bool:
        return self.p == 2.0

    @property
    def gaussian_exact(self) -> bool:
        """Whether E||sum gamma_n x_n||^2 has a closed form: the sum of squares
        on l^2, Nabeya's on l^1 and in dimension 1 (every l^p_1 is l^1_1)."""
        return self.p in (1.0, 2.0) or self.dim == 1

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of dimension {self.dim}, got shape {x.shape}")
        return float(self.norms(x[None, :])[0])

    def norms(self, arr) -> np.ndarray:
        """Vectorized l^p norm along the last axis.

        For p = inf, |arr| is laid out coordinate-major, so NumPy folds the
        coordinates together with one elementwise maximum per coordinate
        instead of running a reduction loop per (short) row.  Max is exact,
        so the result equals a row-wise max bit for bit.

        In dimension 1 the sum or max over the one coordinate is read, not
        reduced (`_over_coordinates`): the same bits without NumPy's
        per-row loop.  Each p keeps its own formula there, not plain |x|,
        so (|x|^p)^{1/p} still leaves float range where it did (l^1e300 of
        1.0 is inf), and callers that check for that still see it.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape[-1] != self.dim:
            raise ValueError(f"last axis has length {arr.shape[-1]}, expected {self.dim}")
        if self.p is INF:
            return _over_coordinates(np.maximum, np.abs(arr, order="F"))[()]
        if self.p == 1.0:
            return _over_coordinates(np.add, np.abs(arr))[()]
        if self.p == 2.0:
            total = _over_coordinates(np.add, arr * arr)
            return np.sqrt(total, out=total)[()]
        # np.power, not **: a 1-D input sums to a NumPy scalar, whose ** takes
        # a different pow path than the array ufunc and can differ in the last bit
        total = _over_coordinates(np.add, np.power(np.abs(arr), self.p))
        return np.power(total, 1.0 / self.p, out=total)[()]


def _over_coordinates(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """op.reduce over the last (coordinate) axis of the temporary a, as an
    array the caller may overwrite (0-d for a vector; [()] makes it the
    scalar a reduction returns); a length-1 axis is read instead, since a
    sum or max of one element is that element."""
    return a[..., 0] if a.shape[-1] == 1 else np.asarray(op.reduce(a, axis=-1))


def lq_norm(seq, q) -> float:
    """l^q norm of a nonnegative sequence, max-factored so that a single
    dominant entry returns that entry to the bit (monotonicity in q then
    survives floating point); inf with an infinite entry, at every q.  A
    negative or nan entry raises."""
    q = as_exponent(q)
    seq = np.asarray(seq, dtype=float)
    if not (seq >= 0.0).all():
        raise ValueError("lq_norm needs nonnegative entries, none of them nan")
    top = float(seq.max(initial=0.0))
    if top == 0.0 or top == math.inf or q is INF:
        return top
    return top * float(((seq / top) ** q).sum()) ** (1.0 / q)


def gaussian_p_moment(sigma: float, p: float) -> float:
    """E|N(0, sigma^2)|^p = sigma^p * 2^{p/2} Gamma((p+1)/2) / sqrt(pi).

    Evaluated through lgamma so large p cannot overflow the Gamma factor
    before the final exp.
    """
    p = _finite_exponent(p)
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return 0.0
    log_moment = (p * math.log(sigma) + 0.5 * p * math.log(2.0)
                  + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi))
    return math.exp(log_moment)


def _nabeya_terms(cov):
    """(s, T) for a covariance matrix: s_i = sqrt(cov_ii) and
    T_ij = s_i s_j (sqrt(1 - rho^2) + rho arcsin rho), rho = cov_ij / (s_i s_j),
    so that E|G_i||G_j| = (2/pi) T_ij (Nabeya 1951).  A pair with a zero
    variance gives 0, and rho is clipped to [-1, 1] against roundoff."""
    cov = np.asarray(cov, dtype=float)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    scale = np.outer(sigmas, sigmas)
    rho = np.divide(cov, scale, out=np.zeros_like(scale), where=scale > 0.0)
    rho = np.clip(rho, -1.0, 1.0)
    # (1 - rho)(1 + rho), not 1 - rho^2: accurate as |rho| -> 1
    pair = np.sqrt((1.0 - rho) * (1.0 + rho)) + rho * np.arcsin(rho)
    return sigmas, scale * pair


def _nabeya_row(j: int, sigmas: list, cov_row: list) -> list:
    """Row j of T in `_nabeya_terms` for one row of the covariance, with
    s_j = sqrt(cov_jj) and the other s_k given, in plain Python floats (a
    short row costs less this way than in NumPy calls); T_jj = (pi/2) cov_jj,
    since E|G_j|^2 = cov_jj."""
    sqrt, asin = math.sqrt, math.asin
    s_j = sqrt(cov_row[j])
    row = []
    for s_k, c in zip(sigmas, cov_row):
        scale = s_j * s_k
        rho = c / scale if scale > 0.0 else 0.0
        if rho > 1.0:
            rho = 1.0
        elif rho < -1.0:
            rho = -1.0
        row.append(scale * (sqrt((1.0 - rho) * (1.0 + rho)) + rho * asin(rho)))
    row[j] = 0.5 * math.pi * cov_row[j]
    return row


def l1_gaussian_second_moment(cov) -> float:
    """E ||G||_1^2 for a centred Gaussian G with covariance `cov`, exactly:
    E||G||_1^2 = sum_{i,j} E|G_i||G_j| = (2/pi) sum_{i,j} T_ij, T from
    `_nabeya_terms`."""
    return 2.0 / math.pi * float(_nabeya_terms(cov)[1].sum())


def _finite_tuple(space: LpSpace, vectors) -> np.ndarray:
    """`vectors` as an (n >= 1, space.dim) float array with finite entries."""
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] != space.dim:
        raise ValueError(f"vectors must be one or more vectors of dimension {space.dim}")
    if not np.isfinite(mat).all():
        raise ValueError("the tuple must have finite entries")
    return mat


def gaussian_second_moment(space: LpSpace, vectors: Sequence, cfg: MCConfig) -> MCEstimate:
    """E || sum_n gamma_n x_n ||^2 for independent standard Gaussians gamma_n,
    as the batch-means estimate over the rows of gaussian_array((cfg.samples,
    n), cfg.seed), streamed from `_box_muller_blocks`.  The tuple passes
    `_finite_tuple`, so a non-finite square is an overflow and raises
    ValueError saying so.  The exact forms of `LpSpace.gaussian_exact` live
    elsewhere: sum_n ||x_n||^2 on l^2, Nabeya's form of the covariance else."""
    mat = _finite_tuple(space, vectors)
    n = mat.shape[0]
    half = (cfg.samples * n + 1) // 2
    block = max(2, _BLOCK // max(n, space.dim)) * n  # one-row products go to gemv
    values, carry, row = np.empty(cfg.samples + 1), np.empty(0), -(-half // n)
    for m0, cos, sin in _box_muller_blocks(half, cfg.seed, block):
        # cosines: rows from the top; sines: rows after the one straddling the middle
        if m0 == 0:
            straddle, sin = sin[:-half % n].copy(), sin[-half % n:]
        cos = np.concatenate([cos, straddle]) if m0 + cos.size == half else cos
        z = np.concatenate([cos, carry, sin])
        cut = z.size - z.size % n
        z, carry = z[:cut].reshape(-1, n), z[cut:]
        with np.errstate(over="ignore"):  # reported below
            squares = space.norms(z @ mat) ** 2
        if not np.isfinite(squares).all():
            raise ValueError(f"the l^{space.p} norm of a Gaussian sum overflowed float range")
        top, rest = cos.size // n, squares.size - cos.size // n
        values[m0 // n:m0 // n + top], values[row:row + rest] = squares[:top], squares[top:]
        row += rest
    # an odd total draws one value too many: a last row when n = 1, else a carry
    return batch_means(values[:cfg.samples], cfg.seed)
