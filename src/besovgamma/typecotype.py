"""Witness searches for Gaussian type and cotype constants.

The type-p constant of a normed space is the best C in

    (E || sum_n gamma_n x_n ||^2)^{1/2}  <=  C (sum_n ||x_n||^p)^{1/p}

over all finite tuples; cotype-q reverses the comparison (with max ||x_n||
at q = infinity).  `type_ratio` / `cotype_ratio` evaluate the defining
ratio of one tuple; `estimate_constant` searches for a large ratio by
random restarts plus greedy coordinatewise hill climbing.  Each value is
the ratio of an explicit witness tuple under a reproducible evaluation:
exact, so a lower bound, where `LpSpace.gaussian_exact` holds (Gaussian
variant; Rademacher signs only on Hilbert targets); elsewhere a fixed-seed
estimate of the witness's ratio, biased up by the search's pick.

Sampled climbing compares candidates under common random numbers (one
Gaussian matrix xi per restart), otherwise MC noise would swamp
single-coordinate gains.  A restart climbs X held as rows of Python floats:
a move and its reversal, (x + s) - s, round as they would in an array, and
an array of X is formed only for a fresh score or a candidate.  A trial
move of X[i, j] changes only column j of S = xi X and row i of X (exact:
only row and column j of Q = X^T X).  The fresh score `_scored` chooses the
climb's kernel in one branch and returns a builder of its trial scorer,
which makes, from the products the score formed, a scorer that
re-evaluates only those: in O(samples + n) on l^inf (from S^T and |S^T|,
so a build only takes the other columns' maxima, and an advance only the
maxima that read the moved column), and over the Nabeya pairs of the
moved column where the moment is exact (l^1 and dimension 1).  Each keeps
the tuple's denominator while a move leaves row i's norm unchanged.
Sampled finite-p targets score each trial by the fresh `_scored`, which
hands on its builder.  Elsewhere a trial that beats the
best by more than TIE_RTOL is accepted on its own value, and the scorer
advances its products in place by the move; a close call, within TIE_RTOL
of the best, is decided by fresh scores of the trial and of the best (if
that was such an accept), and the scorer is rebuilt from the trial's on
acceptance.  So the climb makes the decisions of fresh scoring unless
rounding moves a trial by more than TIE_RTOL/2 (it moved trials by less
than 6.3e-16 relative in the default type-constant and cotype-constant
searches, advanced scorers included).  The final value re-scores
all candidates under one shared evaluation (a matrix whose seed depends
only on (seed, samples, tuple size), or the closed form), so a witness
padded with zero coordinates into a larger space reproduces its value bit
for bit; sweeps over growing spaces can therefore warm-start and are
exactly monotone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .montecarlo import MCConfig, derive_seed, gaussian_array, rademacher_array
from .spaces import (INF, LpSpace, _finite_tuple, _nabeya_row, _nabeya_terms, check_exponent,
                     lq_norm)

DEFAULT_RESTARTS = 64
CLIMB_SCALES = (0.5, 0.2, 0.08, 0.03)
TIE_RTOL = 1e-10


def _ratio(space: LpSpace, direction: str, exponent, vectors, cfg: MCConfig | None,
           variant: str) -> float:
    """`_objective` of one (n, dim) tuple over xi = cfg.samples rows of Gaussian
    or Rademacher signs, or xi = None on Hilbert targets and, for Gaussians,
    wherever `LpSpace.gaussian_exact` holds."""
    if variant not in ("gaussian", "rademacher"):
        raise ValueError("variant must be 'gaussian' or 'rademacher'")
    vectors = _finite_tuple(space, vectors)
    if 0.0 < np.abs(vectors).max(initial=0.0) < math.sqrt(np.finfo(float).tiny):
        raise ValueError("the tuple is below float range: its second moment "
                         "underflows (the ratio is scale-invariant, so rescale it)")
    xi = None
    if not (space.is_hilbert or variant == "gaussian" and space.gaussian_exact):
        if cfg is None:
            raise ValueError(f"the {variant} ratio on this space needs an MC config")
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
    """A witness for a type/cotype constant and its ratio.

    value is the defining ratio of `witness`, recomputable exactly by the
    closed identity in analytic cases, otherwise by `type_ratio` /
    `cotype_ratio` with `eval_config()`: exact, so a lower bound, where
    `LpSpace.gaussian_exact` holds (the config is then ignored), else a
    fixed-seed estimate over MCConfig(samples, derive_seed(seed, "final-eval")).
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
        return _final_eval_config(self.seed, self.samples)


def _final_eval_config(seed: int, samples: int) -> MCConfig:
    """The one draw every candidate of a search is finally scored under."""
    return MCConfig(samples=samples, seed=derive_seed(seed, "final-eval"))


def _scored(space, direction, exponent, X, xi):
    """The ratio of X, with the second moment averaged over the fixed draw
    matrix xi, or exact for xi = None (Hilbert: sum of squares; else Nabeya's
    sum over the pair terms of X^T X); and `build(rows)` (rows = X as lists
    of Python floats, which the climb moves in place), which makes the
    climb's scorer for X from the products formed here, and then advances
    them in place (build once per score): `trial(i, j, step)` gives
    `_objective` after rows[i][j] moved by `step` (rows already hold the
    move), up to rounding, and the builder for the moved X where that value
    is the fresh score (else None); an incremental scorer's
    `trial.advance(i, j, step)` takes in the move just scored.

    - Sampled l^inf: S^T = (xi X)^T, coordinate-major, and A = |S^T|, whose
      column maxima are the sample norms (max and abs are exact:
      `space.norms(xi @ X)` to the bit).  The scorer takes the prefix and
      suffix maxima of A and their max, the other columns' maxima
      (`_max_of_others`), into its own buffers, and forms |step| xi^T once
      per climb scale (the climb takes them in turn); a trial adds or
      subtracts row i of that to S^T[j] in one buffer (the bits of adding
      step xi[:, i], as (-s) x = -(s x)), takes |.|, folds in the maxima of
      the other columns and reads row i's norm as a Python max, in
      O(samples + n).  An advance takes the sum into S^T[j] and its |.|
      into A[j], then the prefix maxima after column j and the suffix
      maxima before it.
    - Exact l^1 and l^p_1 (normed by sum |x|): row j of the Nabeya terms is
      re-evaluated in plain Python floats (`_nabeya_row`) from the new row
      j of Q = X^T X, formed as one product X[:, j] @ X on a copy of X kept
      in step with the rows (an update of the cached row would carry
      rounding of the old entries, large against a column the move nearly
      cancels), and added to the sum over the pairs that avoid j (a masked
      product of nonnegative terms: no difference loses digits).  An
      advance writes that row and column into the terms, sets s_j and sums
      the pairs that avoid each column again.
    - Sampled finite p: the trial is the fresh `_scored` of the rows, value
      and builder.
    - Hilbert targets are analytic and never climbed: no builder."""
    norms = space.norms(X)
    if xi is not None and space.p is INF:
        St = np.ascontiguousarray((xi @ X).T)
        A = np.abs(St)
        moment = float(np.mean(A.max(axis=0) ** 2))

        def build(rows):
            before, after, others = np.zeros_like(A), np.zeros_like(A), np.empty_like(A)
            _max_of_others(A, before, after, others)
            # rows as lists of views, read without making a view per trial
            S, O, scaled, buf = list(St), list(others), [None, None], np.empty(len(xi))

            def shifted(i, j, step, out):  # S^T[j] + step xi[:, i], into out
                if scaled[0] != abs(step):  # |step| xi^T, once per climb scale
                    scaled[:] = abs(step), list(np.multiply(xi.T, abs(step), order="C"))
                return (np.add if step > 0.0 else np.subtract)(S[j], scaled[1][i], out=out)

            def moved(i, j, step):
                np.abs(shifted(i, j, step, buf), out=buf)
                np.maximum(O[j], buf, out=buf)
                return float(buf @ buf) / len(buf)

            def advance(i, j, step):
                np.abs(shifted(i, j, step, S[j]), out=A[j])
                _max_of_others(A, before, after, others, j)
            return _trial(direction, exponent, rows, norms, max, moved, advance)
    elif xi is not None:
        moment = float(np.mean(space.norms(xi @ X) ** 2))

        def build(rows):
            return lambda i, j, step: _scored(space, direction, exponent, np.array(rows), xi)
    elif space.is_hilbert:
        moment, build = float((X ** 2).sum()), None
    else:
        sigmas, T = _nabeya_terms(X.T @ X)
        moment = 2.0 / math.pi * float(T.sum())  # l1_gaussian_second_moment

        def build(rows):
            off, s, q, row = 1.0 - np.eye(len(sigmas)), sigmas.tolist(), [], []
            avoid = ((off @ T) * off).sum(axis=1).tolist()
            mirror, last = X.copy(), (0, 0)

            def moved(i, j, step):
                nonlocal last
                # the last trial's entry, kept or taken back, and this one's
                mirror[last], mirror[i, j], last = rows[last[0]][last[1]], rows[i][j], (i, j)
                q[:] = mirror[:, j].dot(mirror).tolist()
                row[:] = _nabeya_row(j, s, q)
                return 2.0 / math.pi * (avoid[j] + 2.0 * sum(row) - row[j])

            def advance(i, j, step):
                s[j], T[j], T[:, j] = math.sqrt(q[j]), row, row
                avoid[:] = ((off @ T) * off).sum(axis=1).tolist()
            return _trial(direction, exponent, rows, norms, sum, moved, advance)
    den = lq_norm(norms, exponent)
    if den == 0.0:
        return -math.inf, build
    num = math.sqrt(moment)
    return (num / den if direction == "type" else den / num), build


def _objective(space, direction, exponent, X, xi) -> float:
    """The ratio of X: `_scored` without the builder."""
    return _scored(space, direction, exponent, X, xi)[0]


def _trial(direction, exponent, rows, norms, norm_of, moved, advance):
    """The trial scorer over the row norms before a move, where
    `moved(i, j, step)` gives the second moment after it (called on every
    trial, so a scorer may keep a copy of the rows in step) and `norm_of`
    (max or sum) reads row i's norm from the moved rows; its values are
    incremental, so it hands on no builder.  `trial.advance(i, j, step)`
    takes in the move just scored, in place: `advance` moves the products,
    and row i's norm and the tuple's denominator are set.

    The denominator is `_moved_den`'s to the bit, from the same inputs: the
    tuple's own while the move leaves row i's norm unchanged; while the
    largest norm `top` stays, top (sum of the kept terms (norm / top)^q,
    row i's replaced)^{1/q}, summed in the same order; else `_moved_den`."""
    norms = norms.tolist()
    den, last = _moved_den(exponent, norms, 0, norms[0]), None
    top = ties = terms = None

    def take_terms():
        nonlocal top, ties, terms
        top = max(norms)
        ties = norms.count(top)  # rows whose norm is top
        terms = [(v / top) ** exponent for v in norms] if top and exponent is not INF else []
    take_terms()

    def moved_den(i, size):
        if size == norms[i]:
            return den
        if size > top or norms[i] == top and ties == 1:  # the largest norm moves
            return _moved_den(exponent, norms, i, size)
        if exponent is INF:
            return top
        kept, terms[i] = terms[i], (size / top) ** exponent
        value = top * sum(terms) ** (1.0 / exponent)
        terms[i] = kept
        return value

    def trial(i, j, step):
        nonlocal last
        size = norm_of(map(abs, rows[i]))
        last = moved_den(i, size), size
        num = math.sqrt(moved(i, j, step))
        if last[0] == 0.0:
            return -math.inf, None
        return (num / last[0] if direction == "type" else last[0] / num), None

    def advanced(i, j, step):
        nonlocal den
        advance(i, j, step)
        den, norms[i] = last
        take_terms()
    trial.advance = advanced
    return trial


def _moved_den(exponent, norms, i, moved) -> float:
    """The l^q norm of the row norms with row i's replaced by `moved`, in
    plain Python, max-factored as in `lq_norm` (0 for a zero tuple); the
    list is restored before the return."""
    kept, norms[i] = norms[i], moved
    top = max(norms)
    if top != 0.0 and exponent is not INF:
        top *= sum((v / top) ** exponent for v in norms) ** (1.0 / exponent)
    norms[i] = kept
    return top


def _max_of_others(A, before, after, others, j=None):
    """others[k] = the max of rows k' != k of A (0 for one row), as the max
    of the prefix maxima before[k] (rows < k) and the suffix maxima after[k]
    (rows > k), in buffers of A's shape whose before[0] and after[-1] hold
    0.  After row j of A moved, only before[k > j] and after[k < j] are
    taken again; all of them for j = None."""
    lo, hi = (0, len(A) - 1) if j is None else (j, j)
    for k in range(lo + 1, len(A)):
        np.maximum(before[k - 1], A[k - 1], out=before[k])
    for k in range(hi - 1, -1, -1):
        np.maximum(after[k + 1], A[k + 1], out=after[k])
    return np.maximum(before, after, out=others)


def _unit_tuple(space: LpSpace, count: int, seed: int) -> np.ndarray:
    """`count` standard normal vectors drawn under `seed`, each normalized in
    the norm of `space` (a zero row stays zero).  Raises ValueError naming
    the exponent when a nonzero row's norm leaves float range (it reads 0
    or inf at huge p)."""
    vecs = gaussian_array((count, space.dim), seed)
    with np.errstate(over="ignore", under="ignore"):  # reported below
        norms = space.norms(vecs)
    if not (np.isfinite(norms) & ((norms > 0.0) | ~vecs.any(axis=1))).all():
        raise ValueError(f"the l^{space.p} norm of a nonzero vector leaves float range")
    norms[norms == 0.0] = 1.0
    return vecs / norms[:, None]


def _analytic_case(space, direction, exponent, n_vectors, seed, samples):
    """Constant-1 identities: type 1 (triangle inequality), cotype infinity
    (each ||x_n|| is at most the Gaussian-sum moment), and every exponent on
    a Hilbert target: E||sum gamma_n x_n||^2 = sum ||x_n||^2 there, and the
    l^2 norm of (||x_n||) is at most its l^p norm for p <= 2 and at least its
    l^q norm for q >= 2.  The witness is one unit vector."""
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

    Deterministic given (seed, samples, restarts, budget); where
    `LpSpace.gaussian_exact` holds no draw is made and `samples` only sets
    `eval_config()`.  `warm_start` (a tuple of vectors, possibly found in a
    smaller space and padded with zero coordinates) joins the candidate
    pool unclimbed and climbed (unclimbed alone at restarts = 0), so a
    sweep that feeds each winner forward can never report a decrease.
    """
    exponent = check_exponent(direction, exponent)
    final = _final_eval_config(seed, samples)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
               for v in (budget, n_vectors, restarts)):
        raise ValueError("budget, n_vectors and restarts must be integers")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if n_vectors < 1:
        raise ValueError("need at least one vector")
    if restarts < 0 or restarts == 0 and warm_start is None:
        raise ValueError("restarts must be positive, or 0 with a warm start")

    if (direction == "type" and float(exponent) == 1.0) or \
       (direction == "cotype" and exponent is INF) or space.is_hilbert:
        return _analytic_case(space, direction, exponent, n_vectors, seed, samples)

    exact = space.gaussian_exact
    evals = 0
    candidates = []
    if warm_start is not None:
        warm = _finite_tuple(space, warm_start)
        if warm.shape[0] != n_vectors:
            raise ValueError("warm start has the wrong shape")
        if not warm.any():  # its ratio would read -inf, which `type_ratio` refuses
            raise ValueError("the tuple must contain a nonzero vector")
        candidates.append(warm)

    restarts_run = 0
    for r in range(restarts):
        if evals >= budget:
            break
        restarts_run += 1
        if warm_start is not None and r == 0:
            X = candidates[0].tolist()
        else:
            X = _unit_tuple(space, n_vectors, derive_seed(seed, "restart", r)).tolist()
        xi = None if exact else gaussian_array((samples, n_vectors),
                                               derive_seed(seed, "crn", r))
        best, build = _scored(space, direction, exponent, np.array(X), xi)
        evals += 1
        trial, held = build(X), None
        for scale in CLIMB_SCALES:
            improved = True
            while improved and evals < budget:
                improved = False
                for i, row in enumerate(X):
                    for j in range(space.dim):
                        for step in (scale, -scale):
                            if evals >= budget:
                                break
                            row[j] += step
                            evals += 1
                            val, fresh = trial(i, j, step)
                            clear = fresh is None and val > best * (1.0 + TIE_RTOL)
                            if fresh is not None:
                                build = fresh
                            elif not clear and val > best * (1.0 - TIE_RTOL):
                                if held is not None:  # best is an incremental value
                                    best = _objective(space, direction, exponent, held, xi)
                                    held = None
                                val, build = _scored(space, direction, exponent, np.array(X), xi)
                            if val > best:
                                best, improved = val, True
                                if clear:
                                    held = np.array(X)
                                    trial.advance(i, j, step)
                                else:
                                    trial = build(X)
                            else:
                                row[j] -= step
        candidates.append(np.array(X))
        trial = build = None  # the scorer's products go before the next restart draws

    final_xi = None if exact else gaussian_array((final.samples, n_vectors), final.seed)
    scores = [_objective(space, direction, exponent, X, final_xi) for X in candidates]
    pick = int(np.argmax(scores))
    return ConstantEstimate(value=float(scores[pick]), witness=candidates[pick],
                            direction=direction, exponent=exponent, budget=evals,
                            seed=seed, samples=samples, analytic=False,
                            restarts_run=restarts_run, budget_exhausted=evals >= budget)
