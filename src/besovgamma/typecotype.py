"""Lower-bound estimation of Gaussian type and cotype constants.

The type-p constant of a normed space is the best C in

    (E || sum_n gamma_n x_n ||^2)^{1/2}  <=  C (sum_n ||x_n||^p)^{1/p}

over all finite tuples; cotype-q reverses the comparison (with max ||x_n||
at q = infinity).  `type_ratio` / `cotype_ratio` evaluate the defining
ratio of one tuple; `estimate_constant` searches for a large ratio by
random restarts plus greedy coordinatewise hill climbing.  Every reported
value is a valid lower bound: it is the ratio of an explicit witness tuple
under a reproducible evaluation (exact in Hilbert spaces, fixed-seed Monte
Carlo otherwise).

Climbing compares candidates under common random numbers (one Gaussian
matrix xi per restart), otherwise MC noise would swamp single-coordinate
gains.  A trial move of X[i, j] changes only column j of S = xi X and row i
of X, so it is scored in O(samples + n): |S[:, j] + step xi[:, i]| is
folded, in one buffer reused across the restart, into a per-sample summary
of the other columns (their max for p = inf, their sum of |S|^p
otherwise), and the denominator re-norms row i alone against cached norms
of the other rows.  A trial within TIE_RTOL of the best, hence every
accepted move, is re-scored by the fresh objective, and S and the cached
norms are rebuilt on acceptance, so the climb makes the decisions and
holds the values of fresh scoring unless rounding moves a trial by more
than TIE_RTOL (it moved trials by at most 6e-16 relative in the default
type-constant and cotype-constant searches).  The final value re-scores
all candidates under one shared evaluation matrix whose seed depends only
on (seed, samples, tuple size), so a witness padded with zero coordinates
into a larger space reproduces its value bit for bit; sweeps over growing
spaces can therefore warm-start and are exactly monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import MCConfig, derive_seed, gaussian_array, rademacher_array
from .spaces import INF, LpSpace, as_exponent, lq_norm

DEFAULT_RESTARTS = 64
CLIMB_SCALES = (0.5, 0.2, 0.08, 0.03)
TIE_RTOL = 1e-10


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


def _ratio(space: LpSpace, direction: str, exponent, vectors, cfg: MCConfig | None,
           variant: str) -> float:
    """`_objective` of one tuple over xi = cfg.samples rows of Gaussian or
    Rademacher signs, or xi = None (exact) for a Hilbert target."""
    if variant not in ("gaussian", "rademacher"):
        raise ValueError("variant must be 'gaussian' or 'rademacher'")
    vectors = np.asarray(vectors, dtype=float)
    xi = None
    if not space.is_hilbert:
        if cfg is None:
            raise ValueError("non-Hilbert spaces need an MC config")
        draw = gaussian_array if variant == "gaussian" else rademacher_array
        xi = draw((cfg.samples, vectors.shape[0]), cfg.seed)
    value = _objective(space, direction, exponent, vectors, xi)
    if value == -math.inf:
        raise ValueError("the tuple must contain a nonzero vector")
    return value


def type_ratio(space: LpSpace, p, vectors, cfg: MCConfig | None = None,
               variant: str = "gaussian") -> float:
    """(E ||sum gamma_n x_n||^2)^{1/2} / (sum ||x_n||^p)^{1/p}."""
    return _ratio(space, "type", check_exponent("type", p), vectors, cfg, variant)


def cotype_ratio(space: LpSpace, q, vectors, cfg: MCConfig | None = None,
                 variant: str = "gaussian") -> float:
    """(sum ||x_n||^q)^{1/q} / (E ||sum gamma_n x_n||^2)^{1/2} (max at q = inf)."""
    return _ratio(space, "cotype", check_exponent("cotype", q), vectors, cfg, variant)


@dataclass(frozen=True)
class ConstantEstimate:
    """A certified lower bound for a type/cotype constant.

    value is the defining ratio of `witness`, recomputable exactly: for
    analytic cases by the closed identity, otherwise by `type_ratio` /
    `cotype_ratio` with MCConfig(samples, derive_seed(seed, "final-eval")).
    """

    value: float
    witness: np.ndarray
    direction: str
    exponent: object
    budget: int          # objective evaluations consumed
    seed: int
    samples: int
    analytic: bool
    restarts_run: int = 0           # restarts whose climb began
    budget_exhausted: bool = False  # the budget ran out

    def eval_config(self) -> MCConfig:
        return MCConfig(samples=self.samples, seed=derive_seed(self.seed, "final-eval"))


def _objective(space, direction, exponent, X, xi) -> float:
    """Ratio with the second moment averaged over the fixed draw matrix xi
    (None for the exact Hilbert path)."""
    den = lq_norm(space.norms(X), exponent)
    if den == 0.0:
        return -math.inf
    if xi is None:
        num = math.sqrt(float((X ** 2).sum()))
    else:
        num = math.sqrt(float(np.mean(space.norms(xi @ X) ** 2)))
    return num / den if direction == "type" else den / num


def _columns(space, xi, X):
    """S = xi @ X transposed (one contiguous row per column of S); for each
    column j a per-sample summary of the others: max_{l != j} |S[:, l]| for
    p = inf, from prefix and suffix maxima (0 when dim is 1), else
    sum_{l != j} |S[:, l]|^p clipped at 0; and the row norms of X as
    Python floats."""
    St = np.ascontiguousarray((xi @ X).T)
    A = np.abs(St)
    norms = space.norms(X).tolist()
    if space.p is not INF:
        A = A ** space.p
        return St, np.maximum(A.sum(axis=0) - A, 0.0), norms
    before, after = np.zeros_like(A), np.zeros_like(A)
    for k in range(1, len(A)):
        np.maximum(before[k - 1], A[k - 1], out=before[k])
        np.maximum(after[-k], A[-k], out=after[-k - 1])
    return St, np.maximum(before, after), norms


def _trial_value(space, direction, exponent, columns, xiT, buf, X, i, j, step) -> float:
    """`_objective` after X[i, j] moved by `step` (X already holds the
    move), up to rounding.  Only column j of S is rebuilt, as
    |S[:, j] + step * xi[:, i]| in `buf`, and only row i's norm is
    recomputed; the l^q norm of the n row norms runs in plain Python,
    max-factored as in `lq_norm`."""
    St, others, norms = columns
    norms = norms.copy()
    norms[i] = float(space.norms(X[i]))
    top = max(norms)
    if top == 0.0:
        return -math.inf
    den = top
    if exponent is not INF:
        den *= sum((v / top) ** exponent for v in norms) ** (1.0 / exponent)
    np.multiply(xiT[i], step, out=buf)
    np.add(St[j], buf, out=buf)
    np.abs(buf, out=buf)
    if space.p is INF:
        np.maximum(others[j], buf, out=buf)
    elif space.p == 1.0:
        np.add(others[j], buf, out=buf)
    else:
        np.power(buf, space.p, out=buf)
        np.add(others[j], buf, out=buf)
        np.power(buf, 1.0 / space.p, out=buf)
    num = math.sqrt(float(buf @ buf) / len(buf))
    return num / den if direction == "type" else den / num


def _analytic_case(space, direction, exponent, n_vectors, seed, samples):
    """Constant-1 identities: type 1 (triangle inequality), cotype infinity
    (each ||x_n|| is at most the Gaussian-sum moment), Hilbert exponent 2
    (Parseval both ways)."""
    witness = np.zeros((n_vectors, space.dim))
    witness[0, 0] = 1.0
    return ConstantEstimate(value=1.0, witness=witness, direction=direction,
                            exponent=exponent, budget=0, seed=seed,
                            samples=samples, analytic=True)


def estimate_constant(space: LpSpace, direction: str, exponent, n_vectors: int,
                      budget: int = 20000, seed: int = 0, samples: int = 2048,
                      restarts: int = DEFAULT_RESTARTS,
                      warm_start=None) -> ConstantEstimate:
    """Search for a tuple with a large defining ratio.

    Deterministic given (seed, samples, restarts, budget).  `warm_start`
    (a tuple of vectors, possibly found in a smaller space and padded with
    zero coordinates) joins the candidate pool unclimbed and climbed, so a
    sweep that feeds each winner forward can never report a decrease.
    """
    exponent = check_exponent(direction, exponent)
    if budget <= 0:
        raise ValueError("budget must be positive")
    if n_vectors < 1:
        raise ValueError("need at least one vector")

    if (direction == "type" and float(exponent) == 1.0) or \
       (direction == "cotype" and exponent is INF) or \
       (space.is_hilbert and exponent is not INF and float(exponent) == 2.0):
        return _analytic_case(space, direction, exponent, n_vectors, seed, samples)

    exact = space.is_hilbert
    evals = 0
    candidates = []
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != (n_vectors, space.dim):
            raise ValueError("warm start has the wrong shape")
        candidates.append(warm)

    restarts_run = 0
    for r in range(restarts):
        if evals >= budget:
            break
        restarts_run += 1
        if warm_start is not None and r == 0:
            X = candidates[0].copy()
        else:
            X = gaussian_array((n_vectors, space.dim), derive_seed(seed, "restart", r))
            norms = space.norms(X)
            norms[norms == 0.0] = 1.0
            X = X / norms[:, None]
        xi = None if exact else gaussian_array((samples, n_vectors),
                                               derive_seed(seed, "crn", r))
        best = _objective(space, direction, exponent, X, xi)
        evals += 1
        xiT = None if exact else np.ascontiguousarray(xi.T)
        buf = None if exact else np.empty(samples)
        columns = None if exact else _columns(space, xi, X)
        for scale in CLIMB_SCALES:
            improved = True
            while improved and evals < budget:
                improved = False
                for i in range(n_vectors):
                    for j in range(space.dim):
                        for sign in (1.0, -1.0):
                            if evals >= budget:
                                break
                            X[i, j] += sign * scale
                            evals += 1
                            if exact:
                                val = _objective(space, direction, exponent, X, xi)
                            else:
                                val = _trial_value(space, direction, exponent, columns,
                                                   xiT, buf, X, i, j, sign * scale)
                                if val > best * (1.0 - TIE_RTOL):
                                    val = _objective(space, direction, exponent, X, xi)
                            if val > best:
                                best = val
                                improved = True
                                columns = None if exact else _columns(space, xi, X)
                            else:
                                X[i, j] -= sign * scale
        candidates.append(X)

    final_xi = None if exact else gaussian_array((samples, n_vectors),
                                                 derive_seed(seed, "final-eval"))
    scores = [_objective(space, direction, exponent, X, final_xi) for X in candidates]
    pick = int(np.argmax(scores))
    return ConstantEstimate(value=float(scores[pick]), witness=candidates[pick],
                            direction=direction, exponent=exponent, budget=evals,
                            seed=seed, samples=samples, analytic=False,
                            restarts_run=restarts_run, budget_exhausted=evals >= budget)
