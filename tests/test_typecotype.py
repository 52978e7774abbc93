import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovgamma import typecotype
from besovgamma.montecarlo import MCConfig, derive_seed, gaussian_array
from besovgamma.spaces import INF, LpSpace
from besovgamma.typecotype import (CLIMB_SCALES, ConstantEstimate, check_exponent,
                                   cotype_ratio, estimate_constant, type_ratio)

# Closed forms used as oracles below, for unit basis vectors e1, e2:
#   E max(|g1|, |g2|)^2 = 1 + 2/pi      (sup norm of a standard pair)
#   E (|g1| + |g2|)^2   = 2 + 4/pi      (sum norm of a standard pair)
SUP_PAIR = 1.0 + 2.0 / math.pi
SUM_PAIR = 2.0 + 4.0 / math.pi


def test_type_ratio_hilbert_exact_one():
    space = LpSpace(2, 3)
    assert type_ratio(space, 2.0, np.eye(3)) == 1.0
    # scaling both sides keeps the ratio at 1 up to one rounding step
    assert type_ratio(space, 2.0, 3.7 * np.eye(3)) == pytest.approx(1.0, abs=1e-15)


def test_cotype_ratio_hilbert_exact_one():
    space = LpSpace(2, 4)
    assert cotype_ratio(space, 2.0, np.eye(4)) == 1.0


def test_type_ratio_linf_pair_closed_form():
    space = LpSpace(INF, 2)
    got = type_ratio(space, 2.0, np.eye(2), MCConfig(samples=400000, seed=31))
    expect = math.sqrt(SUP_PAIR / 2.0)
    assert got == pytest.approx(expect, abs=0.005)


def test_cotype_ratio_l1_pair_closed_form():
    # the Gaussian l^1 ratio is exact: any config is ignored, to the bit
    space = LpSpace(1, 2)
    got = [cotype_ratio(space, 2.0, np.eye(2), cfg)
           for cfg in (None, MCConfig(samples=320, seed=32), MCConfig(samples=400000, seed=32))]
    assert got[0] == got[1] == got[2]
    assert got[0] == pytest.approx(math.sqrt(2.0 / SUM_PAIR), rel=0.0, abs=1e-15)


def test_ratio_rejects_tuples_below_float_range():
    # the second moment of a 1e-170 tuple underflows to 0 on every path
    tiny = [[1e-170, 0.0]]
    cases = [lambda: cotype_ratio(LpSpace(INF, 2), 2.0, tiny, MCConfig(1000, 1)),
             lambda: cotype_ratio(LpSpace(1, 2), 2.0, tiny),
             lambda: type_ratio(LpSpace(1.5, 2), 1.5, tiny, MCConfig(1000, 1)),
             lambda: cotype_ratio(LpSpace(2, 2), 2.0, tiny)]
    for case in cases:
        with pytest.raises(ValueError, match="below float range"):
            case()
    with pytest.raises(ValueError, match="nonzero vector"):
        cotype_ratio(LpSpace(2, 2), 2.0, np.zeros((1, 2)))


def test_rademacher_variant_l1_pair():
    # signs make ||e1 eps1 + e2 eps2||_1 = 2 identically
    space = LpSpace(1, 2)
    got = cotype_ratio(space, 2.0, np.eye(2), MCConfig(samples=100000, seed=33),
                       variant="rademacher")
    assert got == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_ratio_validation():
    space = LpSpace(2, 2)
    with pytest.raises(ValueError):
        type_ratio(space, 2.5, np.eye(2))
    with pytest.raises(ValueError):
        cotype_ratio(space, 1.5, np.eye(2))
    with pytest.raises(ValueError):
        type_ratio(LpSpace(1.5, 2), 1.5, np.eye(2))  # sampled spaces need a config
    with pytest.raises(ValueError):
        cotype_ratio(LpSpace(1, 2), 2.0, np.eye(2), variant="rademacher")
    # the Gaussian ratio on l^1 is exact and needs none
    assert cotype_ratio(LpSpace(1, 2), 2.0, np.eye(2)) == pytest.approx(
        math.sqrt(2.0 / SUM_PAIR), rel=0.0, abs=1e-15)


def test_estimate_constant_analytic_shortcuts():
    for space in (LpSpace(2, 3), LpSpace(1, 4), LpSpace(INF, 2)):
        est = estimate_constant(space, "type", 1.0, 4, budget=10)
        assert est.value == 1.0 and est.analytic
        est = estimate_constant(space, "cotype", INF, 4, budget=10)
        assert est.value == 1.0 and est.analytic
    # on a Hilbert target every type and cotype constant is 1
    hil = LpSpace(2, 5)
    ratio = {"type": type_ratio, "cotype": cotype_ratio}
    for direction, exponent in (("type", 1.0), ("type", 1.5), ("type", 2.0),
                                ("cotype", 2.0), ("cotype", 3.0), ("cotype", INF)):
        est = estimate_constant(hil, direction, exponent, 4, budget=10)
        assert (est.value, est.budget, est.analytic) == (1.0, 0, True)
        assert ratio[direction](hil, exponent, est.witness) == 1.0


def test_estimate_constant_finds_linf_type2_witness():
    # the pair (1,1), (1,-1) certifies sqrt((2 + 4/pi)/2) ~ 1.2793
    space = LpSpace(INF, 2)
    est = estimate_constant(space, "type", 2.0, n_vectors=2, budget=6000,
                            seed=4, samples=4096, restarts=16)
    assert 1.25 <= est.value <= 1.32
    assert est.witness.shape == (2, 2)
    assert not est.analytic


def test_estimate_constant_reproducible_and_recomputable():
    space = LpSpace(1, 3)
    kw = dict(n_vectors=3, budget=2000, seed=9, samples=1024, restarts=6)
    a = estimate_constant(space, "cotype", 2.0, **kw)
    b = estimate_constant(space, "cotype", 2.0, **kw)
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)
    # the reported value is exactly the ratio of its witness under the
    # published final-evaluation config
    recomputed = cotype_ratio(space, 2.0, a.witness, a.eval_config())
    assert recomputed == a.value


def test_estimate_constant_warm_start_monotone():
    prev = None
    values = []
    for dim in (2, 4, 8):
        space = LpSpace(INF, dim)
        warm = None
        if prev is not None:
            warm = np.zeros((4, dim))
            warm[:, : prev.shape[1]] = prev
        est = estimate_constant(space, "type", 2.0, n_vectors=4, budget=1500,
                                seed=2, samples=1024, restarts=4,
                                warm_start=warm)
        values.append(est.value)
        prev = est.witness
    assert values[0] <= values[1] <= values[2]


def test_estimate_constant_validation():
    space = LpSpace(1, 2)
    with pytest.raises(ValueError):
        estimate_constant(space, "type", 2.5, 2, budget=100)
    with pytest.raises(ValueError):
        estimate_constant(space, "cotype", 1.0, 2, budget=100)
    with pytest.raises(ValueError):
        estimate_constant(space, "sideways", 2.0, 2, budget=100)
    with pytest.raises(ValueError):
        estimate_constant(space, "cotype", 2.0, 2, budget=0)


def test_constant_estimate_fields():
    est = estimate_constant(LpSpace(1, 2), "cotype", 2.0, 2, budget=500,
                            seed=11, samples=512, restarts=2)
    assert isinstance(est, ConstantEstimate)
    assert est.direction == "cotype"
    assert est.seed == 11
    assert est.samples == 512
    assert est.budget <= 500


def _reference_search(space, direction, exponent, n_vectors, budget, seed,
                      samples, restarts, warm_start=None):
    """estimate_constant's search as a plain climb: every trial is scored by
    a fresh `_objective`, i.e. a full product xi @ X and row reduction, or
    the closed form on the spaces of `is_exact`."""
    exponent = check_exponent(direction, exponent)
    exact = typecotype.is_exact(space)
    evals, started, candidates = 0, 0, []
    if warm_start is not None:
        candidates.append(np.asarray(warm_start, dtype=float))
    for r in range(restarts):
        if evals >= budget:
            break
        started += 1
        if warm_start is not None and r == 0:
            X = candidates[0].copy()
        else:
            X = gaussian_array((n_vectors, space.dim), derive_seed(seed, "restart", r))
            norms = space.norms(X)
            norms[norms == 0.0] = 1.0
            X = X / norms[:, None]
        xi = None if exact else gaussian_array((samples, n_vectors),
                                               derive_seed(seed, "crn", r))
        best = typecotype._objective(space, direction, exponent, X, xi)
        evals += 1
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
                            val = typecotype._objective(space, direction, exponent, X, xi)
                            evals += 1
                            if val > best:
                                best = val
                                improved = True
                            else:
                                X[i, j] -= sign * scale
        candidates.append(X)
    final_xi = None if exact else gaussian_array((samples, n_vectors),
                                                 derive_seed(seed, "final-eval"))
    scores = [typecotype._objective(space, direction, exponent, X, final_xi)
              for X in candidates]
    pick = int(np.argmax(scores))
    return scores[pick], candidates[pick], evals, started


ORACLE_CASES = [
    (INF, "type", 2.0), (INF, "cotype", 2.0), (1, "type", 2.0), (1, "cotype", 2.0),
    (1.5, "type", 1.5), (1.5, "cotype", 3.0), (3, "type", 2.0), (3, "cotype", 3.0),
]


@pytest.mark.parametrize("dim", [3, 1])
@pytest.mark.parametrize("p,direction,exponent", ORACLE_CASES)
def test_rank_one_climb_matches_fresh_scoring_bit_for_bit(p, direction, exponent, dim):
    # dim 1 leaves nothing when the only column is left out
    space = LpSpace(p, dim)
    kw = dict(budget=700, seed=5, samples=256, restarts=3)
    est = estimate_constant(space, direction, exponent, 3, **kw)
    value, witness, evals, started = _reference_search(space, direction, exponent, 3, **kw)
    assert est.value == value
    assert est.witness.tobytes() == witness.tobytes()
    assert est.budget == evals
    assert est.restarts_run == started
    assert est.budget_exhausted == (evals >= kw["budget"])


@pytest.mark.parametrize("p,direction", [(INF, "type"), (1, "cotype"), (1.5, "type")])
def test_rank_one_climb_matches_fresh_scoring_from_a_warm_start(p, direction):
    small = estimate_constant(LpSpace(p, 2), direction, 2.0, 4, budget=500, seed=3,
                              samples=256, restarts=2)
    warm = np.zeros((4, 4))
    warm[:, :2] = small.witness
    space = LpSpace(p, 4)
    kw = dict(budget=900, seed=3, samples=256, restarts=3, warm_start=warm)
    est = estimate_constant(space, direction, 2.0, 4, **kw)
    value, witness, evals, started = _reference_search(space, direction, 2.0, 4, **kw)
    assert est.value == value
    assert est.witness.tobytes() == witness.tobytes()
    assert (est.budget, est.restarts_run) == (evals, started)
    assert est.value >= small.value


def test_search_reports_restarts_run_and_budget_exhaustion():
    kw = dict(seed=1, samples=256, restarts=3)
    cut = estimate_constant(LpSpace(INF, 4), "type", 2.0, 4, budget=300, **kw)
    assert cut.budget == 300 and cut.budget_exhausted
    assert 1 <= cut.restarts_run < 3
    whole = estimate_constant(LpSpace(1, 2), "cotype", 2.0, 2, budget=10 ** 6, **kw)
    assert whole.restarts_run == 3 and not whole.budget_exhausted
    assert whole.budget < 10 ** 6
    analytic = estimate_constant(LpSpace(INF, 4), "type", 1.0, 4, budget=10)
    assert analytic.restarts_run == 0 and not analytic.budget_exhausted


def _relative_se(space, est):
    # relative standard error of the ratio, from the draws that define it:
    # half that of the mean square it takes the square root of
    cfg = est.eval_config()
    xi = gaussian_array((cfg.samples, est.witness.shape[0]), cfg.seed)
    sq = space.norms(xi @ est.witness) ** 2
    return 0.5 * float(sq.std(ddof=1)) / (float(sq.mean()) * math.sqrt(sq.size))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_searches_stay_below_the_gaussian_moment_upper_bounds(dim):
    # type 2 of l^inf_d is at most sqrt(4 log d + 2 log 2), from the
    # exponential-moment bound on E max_j g_j^2; allowance: 6 relative
    # standard errors of the estimate.  Cotype 2 of l^1_d is at most
    # sqrt(pi/2), from E||G||_1 = sqrt(2/pi) ||(sum |x_n|^2)^{1/2}||_1 and
    # Minkowski; that value is the exact ratio of its witness: no allowance.
    kw = dict(budget=800, seed=7, samples=1024, restarts=3)
    linf = LpSpace(INF, dim)
    est = estimate_constant(linf, "type", 2.0, 8, **kw)
    bound = math.sqrt(4.0 * math.log(dim) + 2.0 * math.log(2.0))
    assert 1.0 < est.value <= bound * (1.0 + 6.0 * _relative_se(linf, est))
    est = estimate_constant(LpSpace(1, dim), "cotype", 2.0, 8, **kw)
    assert 1.0 < est.value <= math.sqrt(math.pi / 2.0)


@pytest.mark.parametrize("p,direction", [(INF, "type"), (1, "cotype")])
def test_full_size_search_matches_fresh_scoring_bit_for_bit(p, direction):
    # the experiments' defaults in dimension 8, where trials meet long
    # runs of accepted moves and near-ties
    space = LpSpace(p, 8)
    kw = dict(budget=4000, seed=2, samples=2048, restarts=12)
    est = estimate_constant(space, direction, 2.0, 8, **kw)
    value, witness, evals, started = _reference_search(space, direction, 2.0, 8, **kw)
    assert est.value == value
    assert est.witness.tobytes() == witness.tobytes()
    assert (est.budget, est.restarts_run) == (evals, started)


TRIAL_CASES = [(INF, "type", 2.0), (INF, "cotype", 2.0), (1, "type", 1.5), (1, "cotype", 3.0),
               (1.5, "type", 2.0), (1.5, "cotype", INF), (3, "type", 1.5), (3, "cotype", 2.0)]


@settings(max_examples=100)
@given(st.sampled_from(TRIAL_CASES), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_trial_value_agrees_with_fresh_scoring_of_the_moved_tuple(case, n, dim, seed, data):
    p, direction, exponent = case
    space = LpSpace(p, dim)
    X = gaussian_array((n, dim), derive_seed(seed, "tuple"))
    xi = gaussian_array((64, n), derive_seed(seed, "xi"))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, dim - 1))
    step = data.draw(st.floats(-1.0, 1.0))
    _, parts = typecotype._scored(space, direction, exponent, X, xi)
    trial = typecotype._trials(space, direction, exponent, X, np.ascontiguousarray(xi.T), parts)
    X[i, j] += step
    got = trial(i, j, step)
    fresh = typecotype._objective(space, direction, exponent, X, xi)
    assert got == pytest.approx(fresh, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p,direction,exponent", TRIAL_CASES)
def test_a_move_that_zeroes_the_tuple_scores_minus_inf(p, direction, exponent):
    space = LpSpace(p, 3)
    X = np.zeros((2, 3))
    X[1, 2] = 0.7
    xi = gaussian_array((32, 2), 4)
    _, parts = typecotype._scored(space, direction, exponent, X, xi)
    trial = typecotype._trials(space, direction, exponent, X, np.ascontiguousarray(xi.T), parts)
    X[1, 2] -= 0.7
    got = trial(1, 2, -0.7)
    assert got == -math.inf
    assert typecotype._objective(space, direction, exponent, X, xi) == -math.inf


@st.composite
def l1_moves(draw):
    # a tuple in l^1_d whose columns are free, zero, or parallel or
    # antiparallel to an earlier one (|rho| = 1), with rows and columns
    # scaled by 10^u, u in [-3, 3]; then one move of it: free, zeroing its
    # entry (which can cancel a dominant column), or zeroing the tuple
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    X = gaussian_array((n, dim), derive_seed(draw(st.integers(0, 2 ** 32 - 1)), "tuple"))
    for j in range(dim):
        kind = draw(st.sampled_from(["free", "zero", "parallel"]))
        if kind == "zero":
            X[:, j] = 0.0
        elif kind == "parallel" and j > 0:
            factor = draw(st.sampled_from([-3.0, -1.0, -0.25, 0.5, 1.0, 2.0]))
            X[:, j] = factor * X[:, draw(st.integers(0, j - 1))]
    exponents = st.floats(-3.0, 3.0)
    X *= 10.0 ** np.array(draw(st.lists(exponents, min_size=n, max_size=n)))[:, None]
    X *= 10.0 ** np.array(draw(st.lists(exponents, min_size=dim, max_size=dim)))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))
    move = draw(st.sampled_from(["free", "zero-entry", "zero-tuple"]))
    if move == "zero-tuple":
        X[:] = 0.0
        X[i, j] = draw(st.floats(0.5, 2.0))
    if move != "free":
        return X, i, j, -X[i, j]
    # a free step is at least 1e-6 of the largest entry: a lone entry whose
    # square underflows makes both scorings divide by a zero moment
    size = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-6, 1.0))
    return X, i, j, size * max(float(np.abs(X).max()), 1e-3)


@settings(max_examples=300)
@given(st.sampled_from([("type", 2.0), ("type", 1.5), ("cotype", 2.0), ("cotype", 3.0),
                        ("cotype", INF)]), l1_moves())
def test_l1_pair_trial_agrees_with_fresh_exact_scoring(case, move):
    direction, exponent = case
    X, i, j, step = move
    space = LpSpace(1, X.shape[1])
    _, parts = typecotype._scored(space, direction, exponent, X, None)
    trial = typecotype._trials(space, direction, exponent, X, None, parts)
    X[i, j] += step
    got = trial(i, j, step)
    fresh = typecotype._objective(space, direction, exponent, X, None)
    if not X.any():
        assert got == fresh == -math.inf
    else:
        assert got == pytest.approx(fresh, rel=1e-13, abs=0.0)
