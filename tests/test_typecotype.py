import gc
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovgamma import typecotype
from besovgamma.constructions import make_step
from besovgamma.gamma import gamma_norm
from besovgamma.montecarlo import MCConfig, derive_seed, gaussian_array, rademacher_array
from besovgamma.spaces import (INF, LpSpace, gaussian_second_moment, lq_norm,
                               l1_gaussian_second_moment)
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


@pytest.mark.parametrize("seed", [60, 61, 62, 63])
def test_linf2_sampled_values_match_the_l1_isometry(seed):
    # T(a, b) = (a + b, a - b) maps l^1_2 isometrically onto l^inf_2, since
    # max(|a + b|, |a - b|) = |a| + |b|, and Gaussian sums commute with T:
    # E||sum gamma_n x_n||_inf^2 = l1_gaussian_second_moment(Y^T Y), y_n = T^{-1} x_n
    t = np.array([[1.0, 1.0], [1.0, -1.0]])
    x = gaussian_array((5, 2), seed)
    y = x @ t / 2.0
    np.testing.assert_allclose(LpSpace(INF, 2).norms(x), LpSpace(1, 2).norms(y), rtol=1e-15)
    exact = l1_gaussian_second_moment(y.T @ y)
    cfg = MCConfig(samples=20000, seed=derive_seed(seed, "isometry"))
    est = gaussian_second_moment(LpSpace(INF, 2), x, cfg)
    assert abs(est.mean - exact) < 3.0 * est.std_error
    # the sampled ratio averages the same rows; its error bar by the delta method
    den = math.sqrt(float((LpSpace(INF, 2).norms(x) ** 2).sum()))
    got = type_ratio(LpSpace(INF, 2), 2.0, x, cfg)
    assert got == pytest.approx(math.sqrt(est.mean) / den, rel=1e-12)
    se = est.std_error / (2.0 * math.sqrt(est.mean)) / den
    assert abs(got - math.sqrt(exact) / den) < 3.0 * se


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
    # a tuple is an (n, dim) array of finite entries, on every path
    cfg = MCConfig(640, 1)
    for space, bad in ((LpSpace(INF, 2), np.ones((2, 2, 2))), (LpSpace(1, 2), np.ones((2, 2, 2))),
                       (LpSpace(1, 2), np.ones(2)), (LpSpace(3, 2), np.ones((2, 3)))):
        with pytest.raises(ValueError, match="one or more vectors of dimension 2"):
            type_ratio(space, 2.0, bad, cfg)
    for space in (LpSpace(1, 2), LpSpace(INF, 2), LpSpace(2, 2)):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite entries"):
                type_ratio(space, 2.0, [[bad, 1.0]], cfg)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3, INF])
def test_one_exactness_rule_for_gaussian_moments(p, dim):
    # gamma_norm, the ratios and the search all read LpSpace.gaussian_exact
    space = LpSpace(p, dim)
    vecs = gaussian_array((3, dim), 17)
    cfg = MCConfig(640, 1)
    assert space.gaussian_exact == (gamma_norm(make_step(3, vecs, space), cfg).samples == 0)
    for ratio in (type_ratio, cotype_ratio):
        if space.gaussian_exact:
            assert ratio(space, 2.0, vecs) == ratio(space, 2.0, vecs, cfg)
        else:
            with pytest.raises(ValueError, match="needs an MC config"):
                ratio(space, 2.0, vecs)
    if dim == 1:
        # R is a Hilbert space: every type and cotype constant is 1, and an
        # exact search cannot read above it
        for direction in ("type", "cotype"):
            est = estimate_constant(space, direction, 2.0, 3, budget=400, samples=640,
                                    restarts=2)
            assert est.value <= 1.0 + 1e-15


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
    linf = LpSpace(INF, 2)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts"):
            estimate_constant(linf, "type", 2.0, 2, budget=100, restarts=restarts)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            estimate_constant(linf, "type", 2.0, 2, budget=100, samples=samples)
    # no restart, but a warm start: the warm tuple is scored alone
    warm = estimate_constant(linf, "type", 2.0, 2, budget=100, restarts=0, warm_start=np.eye(2))
    assert (warm.budget, warm.restarts_run) == (0, 0)
    assert warm.value == type_ratio(linf, 2.0, np.eye(2), warm.eval_config())
    # a warm tuple passes the same check as a ratio's tuple; a wrong count
    # keeps its own message
    for sp, bad in ((space, math.nan), (linf, math.nan), (linf, math.inf)):
        with pytest.raises(ValueError, match="finite entries"):
            estimate_constant(sp, "type", 2.0, 2, budget=50, restarts=1, samples=640,
                              warm_start=[[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="wrong shape"):
        estimate_constant(linf, "type", 2.0, 2, budget=50, warm_start=np.eye(3, 2))


@pytest.mark.parametrize("bad", [dict(budget=math.nan), dict(budget=100.0), dict(restarts=1.5),
                                 dict(n_vectors=2.5), dict(samples=320.5), dict(samples=math.nan)])
def test_estimate_constant_counts_must_be_integers(bad):
    # budget nan ran no climb and reported budget 1, not exhausted; samples
    # 320.5 was taken; restarts 1.5 and n_vectors 2.5 raised TypeError
    kw = dict(budget=100, restarts=1, samples=320, n_vectors=2) | bad
    with pytest.raises(ValueError, match="must be (an integer|integers)"):
        estimate_constant(LpSpace(INF, 2), "type", 2.0, kw.pop("n_vectors"), **kw)


@pytest.mark.parametrize("count", ["budget", "n_vectors", "restarts"])
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_estimate_constant_refuses_booleans_as_counts(count, flag):
    # a bool is a numbers.Integral: True was a budget, a tuple size or a restart count
    kw = dict(budget=100, restarts=1, samples=320, n_vectors=2) | {count: flag}
    with pytest.raises(ValueError, match="must be integers"):
        estimate_constant(LpSpace(INF, 2), "type", 2.0, kw.pop("n_vectors"), **kw)


def test_estimate_constant_takes_numpy_integer_counts():
    kw = dict(budget=100, seed=4, samples=320, restarts=2)
    want = estimate_constant(LpSpace(INF, 2), "type", 2.0, 2, **kw)
    got = estimate_constant(LpSpace(INF, 2), "type", 2.0, np.int64(2),
                            **{k: np.int64(v) for k, v in kw.items()})
    assert (got.value, got.budget, got.restarts_run) == (want.value, want.budget, want.restarts_run)
    assert got.witness.tobytes() == want.witness.tobytes()


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "4"])
def test_estimate_constant_refuses_a_seed_that_is_not_an_integer(seed):
    # seed 1.5 searched as seed 1 and reported seed=1.5; True searched as 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        estimate_constant(LpSpace(INF, 2), "type", 2.0, 2, budget=100, seed=seed, samples=320,
                          restarts=1)


@pytest.mark.parametrize("restarts", [0, 2])
@pytest.mark.parametrize("space", [LpSpace(INF, 2), LpSpace(1, 2), LpSpace(3, 2)])
def test_estimate_constant_refuses_a_zero_warm_start(space, restarts):
    # at restarts 0 it was scored alone and reported value -inf, where
    # `type_ratio` refuses the same tuple
    with pytest.raises(ValueError, match="nonzero vector"):
        type_ratio(space, 2.0, np.zeros((2, 2)), MCConfig(320, 1))
    with pytest.raises(ValueError, match="nonzero vector"):
        estimate_constant(space, "type", 2.0, 2, budget=100, samples=320, restarts=restarts,
                          warm_start=np.zeros((2, 2)))


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
    the closed form where `LpSpace.gaussian_exact` holds."""
    exponent = check_exponent(direction, exponent)
    exact = space.gaussian_exact
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


@pytest.mark.parametrize("p,direction,exponent", ORACLE_CASES[4:])
def test_sampled_finite_p_search_scores_each_evaluation_once(p, direction, exponent, monkeypatch):
    # a trial is the fresh score and hands on its builder: a near-tie is not
    # scored again, so `_scored` runs once per evaluation and once per
    # candidate in the final evaluation
    fresh, calls = typecotype._scored, []
    monkeypatch.setattr(typecotype, "_scored", lambda *args: calls.append(args) or fresh(*args))
    est = estimate_constant(LpSpace(p, 4), direction, exponent, 4, budget=3000, seed=0,
                            samples=1024, restarts=6)
    assert len(calls) == est.budget + est.restarts_run


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


# the default type-constant and cotype-constant searches in dimension 8
# (budget 4000, 2048 samples, 12 restarts), as the climb on NumPy arrays
# found them: value hex, witness sha256, budget, restarts run, exhausted
DEFAULT_SEARCH_DIGESTS = {
    (INF, "type", 1): ("0x1.c970c8a127181p+0",
                       "7131fb2d0f682a7f510c35c0597a1c9e39b5aa039b6fe1a56d263a2ed1ca22de", 4000, 3, True),
    (INF, "type", 2): ("0x1.c72e538c9a29fp+0",
                       "f6c00b7da3bbccd1e8c4289affa08d236a517c70f2a366c11c1cc07fb08845a0", 4000, 2, True),
    (INF, "type", 3): ("0x1.cd4ab9bb4c3b4p+0",
                       "6e6b270b7e95368d0c9fa4c00664956c93ce5c7d5f6a438de70e89365d78d3e3", 4000, 2, True),
    (INF, "type", 4): ("0x1.c9c0f7ab90950p+0",
                       "3a3db12d6caab9c7d4570493189a9419b361768f457d273c28e370b6c6772ed3", 4000, 3, True),
    (INF, "type", 5): ("0x1.c9336ea6c6bf0p+0",
                       "1e31e9473fea331fb98a50d9994492b5573a97d88a8dfa5781d568b9c429c5bf", 4000, 3, True),
    (INF, "type", 6): ("0x1.c8089e7a1e872p+0",
                       "7d7431782d6bf7a4a72ac604326d2e2adb760d9319dd1c0e479f9a417faf5bf5", 4000, 3, True),
    (1, "cotype", 1): ("0x1.31af8379f84a2p+0",
                       "65367dc45d6f038ab1d79a676216d465047280b8552c575a7235bb9098d0e31a", 4000, 1, True),
    (1, "cotype", 2): ("0x1.31a3d1891b2d2p+0",
                       "44dde8a60b84dafff3998037e4e515bd7f8cc75015e72b21683b45797af48191", 4000, 1, True),
    (1, "cotype", 3): ("0x1.342e0e941a7a4p+0",
                       "28a658b970ab0eaa956dce82988028c7dec253e285cd8b8989546b180ae9edf7", 4000, 1, True),
    (1, "cotype", 4): ("0x1.3344de920e1e9p+0",
                       "4fafcf4d3146d642a6208443562eec7de08879418b016a7eb9de583b91ebff0d", 4000, 1, True),
    (1, "cotype", 5): ("0x1.33a197930a16fp+0",
                       "f30c98f325e824ed2964c8d534f44b0cec117d59f46314f95af9cf8934df9a07", 4000, 1, True),
    (1, "cotype", 6): ("0x1.337bb143a514dp+0",
                       "fbde0f252af2d070ad01bf7c4cbe702318c4e0ddb28d027775621f26f3db17c8", 4000, 2, True),
}


@pytest.mark.parametrize("p,direction,seed", list(DEFAULT_SEARCH_DIGESTS))
def test_default_size_searches_keep_their_pinned_digests(p, direction, seed):
    est = estimate_constant(LpSpace(p, 8), direction, 2.0, 8, budget=4000, seed=seed,
                            samples=2048, restarts=12)
    got = (est.value.hex(), hashlib.sha256(est.witness.tobytes()).hexdigest(), est.budget,
           est.restarts_run, est.budget_exhausted)
    assert got == DEFAULT_SEARCH_DIGESTS[p, direction, seed]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_default_searches_score_fresh_only_at_restart_starts_and_final_candidates(seed, monkeypatch):
    # a clear accept advances the trial scorer on its incremental value, so
    # fresh scores go to each restart's start, each final candidate and the
    # close calls, two each (the held best and the trial): on these seeds
    # at most one, seed 3's l^inf search meeting a move that leaves its
    # ratio unchanged to the bit (hundreds of fresh scores before)
    fresh, calls = typecotype._scored, []
    monkeypatch.setattr(typecotype, "_scored", lambda *args: calls.append(args) or fresh(*args))
    kw = dict(budget=4000, seed=seed, samples=2048, restarts=12)
    for p, direction in [(INF, "type"), (1, "cotype")]:
        calls.clear()
        est = estimate_constant(LpSpace(p, 8), direction, 2.0, 8, **kw)
        assert 2 * est.restarts_run <= len(calls) <= 2 * est.restarts_run + 2


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,dim", [(INF, 3), (1, 3), (INF, 8), (1, 8)])
def test_close_calls_after_clear_accepts_decide_as_fresh_scoring(p, dim, seed, monkeypatch):
    # a wide tie band makes most accepts close calls, many of them against a
    # best held from a clear accept, which must be re-scored fresh first
    monkeypatch.setattr(typecotype, "TIE_RTOL", 1e-2)
    fresh, calls = typecotype._scored, []
    monkeypatch.setattr(typecotype, "_scored", lambda *args: calls.append(args) or fresh(*args))
    space, direction = LpSpace(p, dim), "type" if p is INF else "cotype"
    kw = dict(budget=1500, seed=seed, samples=512, restarts=6)
    est = estimate_constant(space, direction, 2.0, 4, **kw)
    assert len(calls) > 10 * est.restarts_run
    value, witness, evals, started = _reference_search(space, direction, 2.0, 4, **kw)
    assert est.value == value
    assert est.witness.tobytes() == witness.tobytes()
    assert (est.budget, est.restarts_run) == (evals, started)


def test_a_search_leaves_no_reference_cycles():
    # a scorer that held itself would keep each fresh score's products alive
    # until the cyclic collector ran
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for p, direction in [(INF, "type"), (1, "cotype"), (1.5, "type")]:
            estimate_constant(LpSpace(p, 4), direction, 2.0, 4, budget=800, seed=1,
                              samples=256, restarts=3)
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


TRIAL_CASES = [(INF, "type", 2.0), (INF, "cotype", 2.0), (1, "type", 1.5), (1, "cotype", 3.0),
               (1.5, "type", 2.0), (1.5, "cotype", INF), (3, "type", 1.5), (3, "cotype", 2.0)]


def built_trial(space, direction, exponent, X, xi):
    """The climb's trial scorer for X, as `estimate_constant` builds it:
    draws only where the moment is sampled, over the rows of X as lists
    of Python floats, which the caller moves."""
    xi = None if space.gaussian_exact else xi
    rows = X.tolist()
    _, build = typecotype._scored(space, direction, exponent, np.array(rows), xi)
    return build(rows), xi, rows


# the incremental kinds: sampled l^inf and exact l^1 (a sampled finite-p
# trial is the fresh `_objective` itself), built fresh or advanced in place
# through 50 accepted moves of the climb's sizes
@settings(max_examples=100)
@given(st.sampled_from(TRIAL_CASES[:4]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 50]), st.data())
def test_trial_value_agrees_with_fresh_scoring_of_the_moved_tuple(case, n, dim, seed, advances, data):
    p, direction, exponent = case
    space = LpSpace(p, dim)
    X = gaussian_array((n, dim), derive_seed(seed, "tuple"))
    xi = gaussian_array((64, n), derive_seed(seed, "xi"))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, dim - 1))
    step = data.draw(st.floats(-1.0, 1.0))
    trial, xi, rows = built_trial(space, direction, exponent, X, xi)
    rng = np.random.default_rng(seed)
    for _ in range(advances):
        a, b = rng.integers(n), rng.integers(dim)
        move = float(rng.choice([-1.0, 1.0]) * rng.choice(CLIMB_SCALES))
        rows[a][b] += move
        trial(a, b, move)
        trial.advance(a, b, move)
    rows[i][j] += step
    got, build = trial(i, j, step)
    fresh = typecotype._objective(space, direction, exponent, np.array(rows), xi)
    assert got == pytest.approx(fresh, rel=1e-13, abs=0.0)
    assert build is None


@pytest.mark.parametrize("p,direction,exponent", TRIAL_CASES)
def test_a_move_that_zeroes_the_tuple_scores_minus_inf(p, direction, exponent):
    space = LpSpace(p, 3)
    X = np.zeros((2, 3))
    X[1, 2] = 0.7
    trial, xi, rows = built_trial(space, direction, exponent, X, gaussian_array((32, 2), 4))
    rows[1][2] -= 0.7
    got, _ = trial(1, 2, -0.7)
    assert got == -math.inf
    assert typecotype._objective(space, direction, exponent, np.array(rows), xi) == -math.inf


@pytest.mark.parametrize("p,dim,incremental", [(INF, 3, True), (1, 3, True), (3, 1, True),
                                               (1.5, 3, False), (3, 3, False)])
def test_only_linf_and_exact_climbs_get_an_incremental_scorer(p, dim, incremental, monkeypatch):
    # exact l^1 and l^p_1 re-evaluate one column's Nabeya pairs, sampled l^inf
    # one column of |S|; a sampled finite-p trial is one fresh `_scored`,
    # which hands on its builder
    space = LpSpace(p, dim)
    X = gaussian_array((2, dim), 6)
    trial, xi, rows = built_trial(space, "type", 2.0, X, gaussian_array((32, 2), 7))
    fresh, calls = typecotype._scored, []
    monkeypatch.setattr(typecotype, "_scored", lambda *args: calls.append(args) or fresh(*args))
    rows[1][0] += 0.3
    got, build = trial(1, 0, 0.3)
    assert len(calls) == (0 if incremental else 1)
    assert (build is None) == incremental
    assert got == pytest.approx(fresh(space, "type", 2.0, np.array(rows), xi)[0],
                                rel=1e-13, abs=0.0)


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
                        ("cotype", INF)]), l1_moves(), st.sampled_from([1, 1.5, 3, INF]))
def test_l1_pair_trial_agrees_with_fresh_exact_scoring(case, move, p):
    # in dimension 1 every l^p_1 is l^1_1 and takes the same exact scorer
    direction, exponent = case
    X, i, j, step = move
    space = LpSpace(p if X.shape[1] == 1 else 1, X.shape[1])
    rows = X.tolist()
    trial = typecotype._scored(space, direction, exponent, X, None)[1](rows)
    rows[i][j] += step
    X = np.array(rows)
    got, _ = trial(i, j, step)
    fresh = typecotype._objective(space, direction, exponent, X, None)
    if not X.any():
        assert got == fresh == -math.inf
    else:
        assert got == pytest.approx(fresh, rel=1e-13, abs=0.0)


def zero_filled_one_sided_maxima(A):
    """The prefix maxima (rows < k) and suffix maxima (rows > k) of A's
    rows, zero-filled, as the l^inf scorer took them before it kept them."""
    before, after = np.zeros_like(A), np.zeros_like(A)
    for k in range(1, len(A)):
        np.maximum(before[k - 1], A[k - 1], out=before[k])
        np.maximum(after[-k], A[-k], out=after[-k - 1])
    return before, after


def zero_filled_max_of_others(A):
    """The l^inf scorer's per-sample max of the other columns as it stood:
    zero-filled prefix and suffix maxima and a third array for their max."""
    return np.maximum(*zero_filled_one_sided_maxima(A))


@st.composite
def linf_samples(draw):
    # S = xi X for 1..64 samples in l^inf_d, d = 1..8, whose columns are
    # free, zero, or equal or opposite to an earlier one (ties in |S|)
    samples, dim = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    S = gaussian_array((samples, dim), derive_seed(draw(st.integers(0, 2 ** 32 - 1)), "S"))
    for j in range(dim):
        kind = draw(st.sampled_from(["free", "zero", "tie"]))
        if kind == "zero":
            S[:, j] = 0.0
        elif kind == "tie" and j > 0:
            S[:, j] = draw(st.sampled_from([-1.0, 1.0])) * S[:, draw(st.integers(0, j - 1))]
    return S


@settings(max_examples=200)
@given(linf_samples(), st.data())
def test_linf_max_of_others_matches_the_zero_filled_prefix_and_suffix(S, data):
    A = np.abs(np.ascontiguousarray(S.T))
    kept = A.tobytes()
    before, after, others = np.zeros_like(A), np.zeros_like(A), np.empty_like(A)
    got = typecotype._max_of_others(A, before, after, others)
    assert got is others
    assert got.tobytes() == zero_filled_max_of_others(A).tobytes()
    assert A.tobytes() == kept
    # after one row moves, only the maxima that read it are taken again
    j = data.draw(st.integers(0, len(A) - 1))
    A[j] = np.abs(gaussian_array(A.shape[1], data.draw(st.integers(0, 2 ** 32 - 1))))
    typecotype._max_of_others(A, before, after, others, j)
    want = zero_filled_one_sided_maxima(A)
    assert (before.tobytes(), after.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    assert others.tobytes() == np.maximum(*want).tobytes()


@pytest.mark.parametrize("draw", [gaussian_array, rademacher_array])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_fresh_linf_score_forms_the_scorer_products_to_the_bit(draw, dim):
    space = LpSpace(INF, dim)
    X = gaussian_array((6, dim), derive_seed(dim, "tuple"))
    xi = draw((512, 6), derive_seed(dim, "xi"))
    S = xi @ X
    moment = float(np.mean(space.norms(S) ** 2))
    den = lq_norm(space.norms(X), 2.0)
    for direction in ("type", "cotype"):
        value, build = typecotype._scored(space, direction, 2.0, X, xi)
        num = math.sqrt(moment)
        assert value == (num / den if direction == "type" else den / num)
        # the scorer built from the score's products is the one built from scratch
        rows = X.tolist()
        trial = build(rows)
        for i, j, step in ((0, 0, 0.5), (5, dim - 1, -0.2), (2, 1, -X[2, 1])):
            want = rebuilt_linf_trial(space, direction, 2.0, X, xi, i, j, step)
            rows[i][j] += step
            assert trial(i, j, step) == (want, None)
            rows[i][j] -= step


def rebuilt_linf_trial(space, direction, exponent, X, xi, i, j, step, St=None):
    """The sampled l^inf trial value as its scorer stood: S^T (from X before
    the move, unless given), |S^T| and the zero-filled maxima rebuilt, step
    xi[:, i] added by a product and a sum, and row i's norm after the move
    by `space.norms`."""
    xiT = np.ascontiguousarray(xi.T)
    St = np.ascontiguousarray((xi @ X).T) if St is None else St
    others = zero_filled_max_of_others(np.abs(St))
    norms = space.norms(X).tolist()
    moved = X[i].copy()
    moved[j] += step
    den = typecotype._moved_den(exponent, norms, i, float(space.norms(moved)))
    if den == 0.0:
        return -math.inf
    buf = np.empty(xi.shape[0])
    np.multiply(xiT[i], step, out=buf)
    np.add(St[j], buf, out=buf)
    np.abs(buf, out=buf)
    np.maximum(others[j], buf, out=buf)
    num = math.sqrt(float(buf @ buf) / len(buf))
    return num / den if direction == "type" else den / num


LINF_CASES = [("type", 2.0), ("type", 1.5), ("cotype", 2.0), ("cotype", INF)]


@settings(max_examples=150)
@given(st.sampled_from(LINF_CASES), st.integers(1, 4), st.integers(1, 8), st.integers(1, 64),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_linf_trial_matches_a_scorer_rebuilt_from_scratch_bit_for_bit(case, n, dim, samples, seed, data):
    direction, exponent = case
    space = LpSpace(INF, dim)
    X = gaussian_array((n, dim), derive_seed(seed, "tuple"))
    if data.draw(st.booleans()):
        X[:, data.draw(st.integers(0, dim - 1))] = 0.0
    xi = gaussian_array((samples, n), derive_seed(seed, "xi"))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, dim - 1))
    step = data.draw(st.sampled_from([-X[i, j], 0.5, -0.2, 0.08, data.draw(st.floats(-1.0, 1.0))]))
    want = rebuilt_linf_trial(space, direction, exponent, X, xi, i, j, step)
    rows = X.tolist()
    trial = typecotype._scored(space, direction, exponent, X, xi)[1](rows)
    rows[i][j] += step
    assert trial(i, j, step) == (want, None)


@settings(max_examples=150)
@given(st.sampled_from(LINF_CASES), st.integers(1, 4), st.integers(1, 8), st.integers(1, 64),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7), st.sampled_from(CLIMB_SCALES),
                          st.sampled_from([1.0, -1.0])), max_size=24),
       st.integers(0, 3), st.integers(0, 7))
def test_linf_trial_after_advances_matches_the_rebuilt_scorer_bit_for_bit(
        case, n, dim, samples, seed, moves, i, j):
    # S^T advanced by the scorer (a sum with |step| xi^T, kept per step
    # size) and by the rebuilt reference (a product and a sum) agree to the
    # bit, and so do the one-sided maxima it keeps and takes again only
    # where the moved column is read
    direction, exponent = case
    space = LpSpace(INF, dim)
    X = gaussian_array((n, dim), derive_seed(seed, "tuple"))
    xi = gaussian_array((samples, n), derive_seed(seed, "xi"))
    xiT, St = np.ascontiguousarray(xi.T), np.ascontiguousarray((xi @ X).T)
    rows, sided = X.tolist(), []
    keep = typecotype._max_of_others
    with mock.patch.object(typecotype, "_max_of_others",
                           lambda *args: sided.append(args) or keep(*args)):
        trial = typecotype._scored(space, direction, exponent, X, xi)[1](rows)
        for a, b, scale, sign in moves:
            a, b, step = a % n, b % dim, sign * scale
            want = rebuilt_linf_trial(space, direction, exponent, np.array(rows), xi, a, b,
                                      step, St)
            rows[a][b] += step
            assert trial(a, b, step) == (want, None)
            trial.advance(a, b, step)
            np.add(St[b], np.multiply(xiT[a], step), out=St[b])
            before, after, others = sided[-1][1:4]
            want = zero_filled_one_sided_maxima(np.abs(St))
            assert (before.tobytes(), after.tobytes()) == (want[0].tobytes(), want[1].tobytes())
            assert others.tobytes() == np.maximum(*want).tobytes()
    i, j = i % n, j % dim
    for scale in CLIMB_SCALES:
        for step in (scale, -scale):
            want = rebuilt_linf_trial(space, direction, exponent, np.array(rows), xi, i, j,
                                      step, St)
            rows[i][j] += step
            assert trial(i, j, step) == (want, None)
            rows[i][j] -= step


@pytest.mark.parametrize("seed,budget,restarts,cut", [(9, 4000, 12, True), (31, 20000, 2, False)])
def test_linf_search_at_full_size_matches_fresh_scoring_per_seed(seed, budget, restarts, cut):
    # seed 9 runs out of budget in its third restart; seed 31 finishes both
    space = LpSpace(INF, 8)
    kw = dict(budget=budget, seed=seed, samples=2048, restarts=restarts)
    est = estimate_constant(space, "type", 2.0, 8, **kw)
    value, witness, evals, started = _reference_search(space, "type", 2.0, 8, **kw)
    assert est.value == value
    assert est.witness.tobytes() == witness.tobytes()
    assert (est.budget, est.restarts_run) == (evals, started)
    assert est.budget_exhausted == cut and (started < restarts) == cut
