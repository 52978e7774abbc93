"""Named, reproducible experiments wiring the library together.

Each experiment declares its config keys once, as `Param`s in `EXPERIMENTS`;
`run` rejects unknown keys and bad values, then passes the checked values as
keyword arguments.  Report rows carry both sides of every comparison, the
constant, the margin, a standard-error budget and, for asserted rows, the
tolerance.  CSV reports carry a schema version and 17-significant-digit
floats, so re-running a config produces a byte-identical file.

Randomness policy: every random object is drawn from a counter-based
generator keyed by `derive_seed(seed, labels...)`, never from global
state.  Random vector tuples are standard normal rows normalized in the
target norm; the derivation labels appear in the row's `inputs` field so
each row is recomputable by library calls, with two caveats.  A
`type-constant` or `cotype-constant` sweep row warm-starts from the
previous dimension's witness, so it is recomputed by replaying the sweep
from its first `dims` entry: a cold l^inf_8 search from the
`linf-type2;dim=8` row's inputs gives 1.79229, the row reads 1.77690.  The
`partition` cases draw block counts, vectors and cuts with the generator's
own `integers`, `normal` and `uniform`, whose streams numpy does not
promise to keep across versions, unlike `montecarlo`'s Box-Muller samples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from .besov import (besov_norm_difference, besov_norm_fourier,
                    build_filter_bank, holder_norm)
from .constructions import (make_psi_system, make_single_band, make_step,
                            make_tent_family, tent_l2_sigmas, zeta_sum)
from .functions import dilate, grid_lp_norm, lp_norm
from .gamma import (disjoint_lp_from_sigmas, gamma_norm, gamma_norm_hilbert,
                    gamma_norm_mc, partition_inequality_check)
from .montecarlo import MCConfig, derive_seed
from .spaces import INF, LpSpace, gaussian_second_moment
from .typecotype import _unit_tuple, cotype_ratio, estimate_constant, type_ratio

SCHEMA_VERSION = 1

CSV_COLUMNS = ("experiment", "case", "inputs", "lhs", "rhs", "constant",
               "margin", "std_error", "tolerance", "asserted", "passed")


class UsageError(ValueError):
    """Invalid experiment id or parameter; maps to process exit status 2."""


class Param(NamedTuple):
    """One config key: its kind (int, float, list[int] or list[float]), its
    default and its bounds.  `minimum` and `maximum` are inclusive, `above`
    and `below` exclusive; on a list they bound every entry and `min_items`
    its length.  Every key that sizes an array has a `maximum`, so a request
    too large to hold is refused before any work."""
    kind: object
    default: object
    minimum: float | None = None
    above: float | None = None
    below: float | None = None
    min_items: int = 1
    maximum: float | None = None


class Experiment(NamedTuple):
    """A registry entry: `func(report, **params)` fills the report."""
    func: Callable
    description: str
    params: dict


@dataclass(frozen=True)
class ReportRow:
    case: str
    inputs: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    std_error: float
    tolerance: float
    asserted: bool
    passed: bool


@dataclass
class Report:
    experiment: str
    config: dict
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, case: str, inputs: str, lhs: float, rhs: float, *,
            constant: float = 1.0, std_error: float = 0.0,
            tolerance: float = 0.0, asserted: bool = False,
            margin: float | None = None) -> ReportRow:
        """Margin defaults to rhs - lhs, and an identity row passes minus its
        deviation.  An asserted row passes when the margin is not below minus
        its tolerance, so an identity row when its deviation is within it."""
        if margin is None:
            margin = rhs - lhs
        passed = (margin >= -tolerance) if asserted else True
        row = ReportRow(case=case, inputs=inputs, lhs=lhs, rhs=rhs,
                        constant=constant, margin=margin, std_error=std_error,
                        tolerance=tolerance, asserted=asserted, passed=passed)
        self.rows.append(row)
        return row


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def format_inputs(**kv) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(kv.items()))


def _row_inputs(exact: bool, samples: int, **kv) -> str:
    """`format_inputs(**kv)`, plus the configured sample count unless the row is exact."""
    return format_inputs(**kv) if exact else format_inputs(**kv, samples=samples)


def write_report_csv(report: Report, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(report))


def render_csv(report: Report) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(CSV_COLUMNS)]
    for r in report.rows:
        lines.append(",".join([
            report.experiment, r.case, r.inputs, _fmt(r.lhs), _fmt(r.rhs),
            _fmt(r.constant), _fmt(r.margin), _fmt(r.std_error),
            _fmt(r.tolerance), _fmt(r.asserted), _fmt(r.passed)]))
    for key in sorted(report.summary):
        lines.append(f"# summary {key}={_fmt(report.summary[key])}")
    lines.append(f"# passed={_fmt(report.passed)}")
    return "\n".join(lines) + "\n"


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise UsageError(f"{field_name}: {message}")


_KIND_NAMES = {int: "an integer", float: "a number",
               list[int]: "a list of integers", list[float]: "a list of numbers"}


def _check(key: str, param: Param, value):
    """`value` cast to the declared kind of `key`, or a UsageError naming `key`."""
    many = get_origin(param.kind) is list
    kind = get_args(param.kind)[0] if many else param.kind
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    items = value if many and isinstance(value, (list, tuple)) else [value]
    _require(isinstance(value, (list, tuple)) == many
             and all(isinstance(v, types) and not isinstance(v, bool) for v in items),
             key, f"must be {_KIND_NAMES[param.kind]}")
    _require(all(v == v for v in items), key, "must not be NaN")
    _require(len(items) >= param.min_items, key, f"length must be at least {param.min_items}")
    for bound, holds, words in ((param.minimum, operator.ge, "be at least"),
                                (param.above, operator.gt, "exceed"),
                                (param.below, operator.lt, "be below"),
                                (param.maximum, operator.le, "be at most")):
        _require(bound is None or all(holds(v, bound) for v in items), key,
                 f"{'entries ' if many else ''}must {words} {bound}")
    try:
        return [kind(v) for v in items] if many else kind(value)
    except OverflowError:  # an integer beyond float range
        raise UsageError(f"{key}: {'entries ' if many else ''}must fit in a float") from None


# ---------------------------------------------------------------------------
# experiments


def _exp_embedding_type(report, *, seed, samples, ps, ns) -> None:
    for p in ps:
        s = 1.0 / p - 0.5
        best = 0.0
        for n in ns:
            space = LpSpace(p, n)
            vec_seed = derive_seed(seed, "embedding-type", _fmt(p), n)
            f = make_step(n, _unit_tuple(space, n, vec_seed), space)
            est = gamma_norm(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
            besov = besov_norm_difference(f, s, p, q=p)
            ratio = est.mean / besov
            best = max(best, ratio)
            report.add(case=f"p={p:g};n={n}",
                       inputs=_row_inputs(est.samples == 0, samples, n=n, p=p, s=s, q=p,
                                          vector_seed=vec_seed),
                       lhs=est.mean, rhs=besov, constant=ratio,
                       std_error=est.std_error)
        report.summary[f"max_gamma_over_besov_p={p:g}"] = best


def _exp_embedding_cotype(report, *, seed, samples, grid_n, period, levels, qs, ns) -> None:
    _require(all(3 * count < levels for count in ns), "ns", "needs 3n below the bank levels")
    bank = build_filter_bank(period, grid_n, 1, levels)
    for q in qs:
        s = 1.0 / q - 0.5
        best = 0.0
        for count in ns:
            space = LpSpace(q, count)
            vec_seed = derive_seed(seed, "embedding-cotype", _fmt(q), count)
            vectors = _unit_tuple(space, count, vec_seed)
            f = make_psi_system(count, vectors, bank, space)
            besov = besov_norm_fourier(f, s, q, q, bank)
            est = gamma_norm(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
            ratio = besov / est.mean
            best = max(best, ratio)
            report.add(case=f"q={q:g};n={count}",
                       inputs=_row_inputs(est.samples == 0, samples, n=count, q=q, s=s,
                                          grid_n=grid_n, period=period,
                                          levels=levels, vector_seed=vec_seed),
                       lhs=besov, rhs=est.mean, constant=ratio, std_error=est.std_error)
        report.summary[f"max_besov_over_gamma_q={q:g}"] = best


def _exp_band_limited(report, *, seed, samples, grid_n, period, width, dim, ps) -> None:
    bank = build_filter_bank(period, grid_n, 1, 2)
    # shell 2 with a wide envelope: spectrum lives in ~[1, 3], inside [-pi, pi]
    for p in ps:
        space = LpSpace(p, dim)
        vec_seed = derive_seed(seed, "band-limited", _fmt(p))
        v = _unit_tuple(space, 1, vec_seed)[0]
        f = make_single_band(1, bank, width=width, vector=v, space=space)
        lp_val = grid_lp_norm(f, p)
        est = gamma_norm(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
        inputs = _row_inputs(est.samples == 0, samples, p=p, width=width, grid_n=grid_n,
                             period=period, vector_seed=vec_seed)
        if space.is_hilbert:  # the L^2 identity, asserted
            report.add(case="p=2", inputs=inputs, lhs=est.mean, rhs=lp_val, constant=1.0,
                       tolerance=1e-9, asserted=True, margin=-abs(est.mean - lp_val))
        else:
            report.add(case=f"p={p:g}", inputs=inputs, lhs=est.mean, rhs=lp_val,
                       constant=est.mean / lp_val, std_error=est.std_error)
        report.summary[f"gamma_over_lp_p={p:g}"] = est.mean / lp_val


def _exp_partition(report, *, seed, samples, cases, dim) -> None:
    worst_gap = 0.0
    for i in range(cases):
        case_seed = derive_seed(seed, "partition", i)
        rng = np.random.Generator(np.random.Philox(key=case_seed))
        blocks = int(rng.integers(2, 6))
        vectors = rng.normal(size=(blocks, dim))
        n_sets = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=n_sets - 1))
        edges = np.concatenate([[0.0], cuts, [1.0]])
        partition = list(zip(edges[:-1], edges[1:]))
        shape = dict(case_seed=case_seed, blocks=blocks, sets=n_sets, dim=dim)

        f2 = make_step(blocks, vectors, LpSpace(2, dim))
        chk = partition_inequality_check(f2, partition, "type", 2.0, 1.0)
        gap = abs(chk.whole_norm ** 2 - sum(v ** 2 for v in chk.part_norms))
        worst_gap = max(worst_gap, gap)
        report.add(case=f"case={i};hilbert-p2", inputs=_row_inputs(chk.exact, samples, **shape),
                   lhs=chk.lhs, rhs=chk.rhs, constant=1.0, tolerance=1e-10,
                   asserted=True, margin=-gap)

        for label, space_p, direction, expo in (
                ("l1-type1", 1.0, "type", 1.0),
                ("linf-type1", INF, "type", 1.0),
                ("linf-cotypeinf", INF, "cotype", INF)):
            space = LpSpace(space_p, dim)
            fp = make_step(blocks, vectors, space)
            cfg = MCConfig(samples, derive_seed(case_seed, label))  # unused where exact
            chk = partition_inequality_check(fp, partition, direction, expo, 1.0, cfg)
            tol = 3.0 * chk.std_error_budget
            report.add(case=f"case={i};{label}",
                       inputs=_row_inputs(chk.exact, samples, **shape),
                       lhs=chk.lhs, rhs=chk.rhs, constant=1.0,
                       std_error=chk.std_error_budget, tolerance=tol,
                       asserted=True, margin=chk.margin)
    report.summary["worst_hilbert_squared_gap"] = worst_gap


def _exp_dilation(report, *, grid_n, period, levels, k0, width, s, p, q, lambdas,
                  tolerance) -> None:
    _require(math.isfinite(s), "s", "must be finite")
    _require(all(v & (v - 1) == 0 for v in lambdas), "lambdas", "entries must be powers of two")
    bank = build_filter_bank(period, grid_n, 1, levels)
    f = make_single_band(k0, bank, width=width)
    base = besov_norm_fourier(f, s, p, q, bank)
    ratios = []
    for lam in lambdas:
        f_lam = dilate(f, float(lam))
        val = besov_norm_fourier(f_lam, s, p, q, bank)
        den = lam ** (s - 1.0 / p) * base
        _require(0.0 < den < math.inf, "s",
                 f"lambda^(s - 1/p) times the base norm leaves float range at s = {s}")
        ratios.append(val / den)
    gmean = float(np.exp(np.mean(np.log(ratios))))
    for lam, ratio in zip(lambdas, ratios):
        report.add(case=f"lambda={lam}",
                   inputs=format_inputs(k0=k0, width=width, s=s, p=p, q=q,
                                        grid_n=grid_n, period=period, levels=levels),
                   lhs=ratio, rhs=gmean, constant=gmean, tolerance=tolerance,
                   asserted=True, margin=-abs(ratio / gmean - 1.0))
    report.summary["dilation_constant_gmean"] = gmean
    report.summary["max_relative_spread"] = max(abs(r / gmean - 1.0) for r in ratios)


def _exp_step_identities(report, *, seed, samples, ps, ns) -> None:
    for p in ps:
        worst_ratio = 0.0
        for n in ns:
            space = LpSpace(p, n)
            vec_seed = derive_seed(seed, "step-identities", _fmt(p), n)
            vectors = _unit_tuple(space, n, vec_seed)
            f = make_step(n, vectors, space)
            inputs = partial(_row_inputs, samples=samples, n=n, p=p, vector_seed=vec_seed)

            s_p = float((space.norms(vectors) ** p).sum()) ** (1.0 / p)
            closed = (2 * n) ** (-1.0 / p) * s_p
            got = lp_norm(f, p)
            report.add(case=f"p={p:g};n={n};lp", inputs=inputs(True), lhs=got,
                       rhs=closed, tolerance=1e-12, asserted=True,
                       margin=-abs(got - closed))

            if space.is_hilbert:
                target = (2 * n) ** -0.5 * math.sqrt(float((vectors ** 2).sum()))
                got_g = gamma_norm_hilbert(f)
                report.add(case=f"p={p:g};n={n};gamma-exact", inputs=inputs(True),
                           lhs=got_g, rhs=target, tolerance=1e-12, asserted=True,
                           margin=-abs(got_g - target))
            else:
                est = gamma_norm_mc(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
                ref = gaussian_second_moment(space, vectors,
                                             MCConfig(samples, derive_seed(vec_seed, "ref")))
                target = (2 * n) ** -0.5 * math.sqrt(ref.mean)
                ref_se = (2 * n) ** -0.5 * ref.std_error / (2.0 * math.sqrt(ref.mean))
                tol = 3.0 * (est.std_error + ref_se)
                report.add(case=f"p={p:g};n={n};gamma-mc", inputs=inputs(False),
                           lhs=est.mean, rhs=target, std_error=est.std_error + ref_se,
                           tolerance=tol, asserted=True, margin=-abs(est.mean - target))

            if 1.0 < p < 2.0:
                s = 1.0 / p - 0.5
                bound_c = 1.0 + 2.0 ** (1.0 / p + 1.0) + 2.0 / s
                besov = besov_norm_difference(f, s, p, 1.0)
                rhs = bound_c * (2 * n) ** -0.5 * s_p
                worst_ratio = max(worst_ratio, besov / rhs)
                report.add(case=f"p={p:g};n={n};besov-bound", inputs=inputs(True),
                           lhs=besov, rhs=rhs, constant=bound_c,
                           asserted=True)
        if 1.0 < p < 2.0:
            report.summary[f"besov_bound_utilization_p={p:g}"] = worst_ratio


def _exp_tent_scaling(report, *, p, alpha, r, holder_ns, slope_ns, slope_tolerance) -> None:
    _require(r < 1.0 / (p / 2.0 + alpha * p), "r",
             "must stay below 1/(p/2 + alpha p) for the scaling regime")
    c = zeta_sum(r)

    for n in holder_ns:
        g = make_tent_family(n, r, p)
        bound = 1.0 + 4.0 * c ** alpha * n ** (r * alpha)
        val = holder_norm(g, alpha)
        report.add(case=f"holder;n={n}",
                   inputs=format_inputs(n=n, p=p, alpha=alpha, r=r),
                   lhs=val, rhs=bound, constant=4.0, asserted=True)

    moments = []
    for n in slope_ns:
        dg = disjoint_lp_from_sigmas(tent_l2_sigmas(n, r), p)
        moments.append(dg.lp_moment)
        report.add(case=f"gamma;n={n}",
                   inputs=format_inputs(n=n, p=p, r=r),
                   lhs=dg.lp_moment, rhs=dg.l2_moment)

    logs_n = np.log(np.asarray(slope_ns, dtype=float))
    design = np.vstack([logs_n, np.ones_like(logs_n)]).T
    slope = float(np.linalg.lstsq(design, np.log(moments), rcond=None)[0][0])
    target = (1.0 - p * r / 2.0) / p
    report.add(case="slope",
               inputs=format_inputs(p=p, r=r, n_min=slope_ns[0], n_max=slope_ns[-1]),
               lhs=slope, rhs=target, tolerance=slope_tolerance * target,
               asserted=True, margin=-abs(slope - target))
    report.add(case="contradiction-exponents",
               inputs=format_inputs(p=p, r=r, alpha=alpha),
               lhs=r * alpha, rhs=slope, asserted=True)
    report.summary["fitted_slope"] = slope
    report.summary["target_slope"] = target
    report.summary["holder_exponent"] = r * alpha


# direction -> (exponent of the swept l^p space, the constant-1 case on that
# space as (type/cotype exponent, case label), case prefix of the sweep rows,
# summary-key format, Rademacher ratio, analytic upper bound by dimension).
# Type 2 of l^inf_d is at most sqrt(4 log d + 2 log 2), from the
# exponential-moment bound on E max_j g_j^2; cotype 2 of l^1_d is at most
# sqrt(pi/2), from E||G||_1 = sqrt(2/pi) ||(sum |x_n|^2)^{1/2}||_1 and Minkowski.
_CONSTANT_SEARCHES = {
    "type": (INF, (1.0, "any-type1"), "linf-type2", "linf{dim}_type2", type_ratio,
             lambda dim: math.sqrt(4.0 * math.log(dim) + 2.0 * math.log(2.0))),
    "cotype": (1.0, (INF, "any-cotypeinf"), "l1-cotype2", "l1_{dim}_cotype2", cotype_ratio,
               lambda dim: math.sqrt(math.pi / 2.0)),
}


def _exp_constant(direction, report, *, seed, samples, budget, restarts, n_vectors,
                  dims) -> None:
    (space_p, (exponent_1, case_1), prefix, key_format, ratio,
     upper_bound) = _CONSTANT_SEARCHES[direction]

    # analytic constant-1 cases: every Hilbert constant, and the trivial exponent
    for case, p, exponent in ((f"hilbert-{direction}2", 2, 2.0),
                              (case_1, space_p, exponent_1)):
        est = estimate_constant(LpSpace(p, 4), direction, exponent, n_vectors,
                                budget=budget, seed=seed)
        report.add(case=case, inputs=format_inputs(dim=4),
                   lhs=est.value, rhs=1.0, tolerance=0.0, asserted=True,
                   margin=-abs(est.value - 1.0))

    prev_value, prev_witness = 0.0, None
    for dim in dims:
        space = LpSpace(space_p, dim)
        warm = None
        if prev_witness is not None:
            warm = np.zeros((n_vectors, dim))
            warm[:, :prev_witness.shape[1]] = prev_witness
        est = estimate_constant(space, direction, 2.0, n_vectors, budget=budget,
                                seed=seed, samples=samples, restarts=restarts,
                                warm_start=warm)
        rad = ratio(space, 2.0, est.witness, est.eval_config(), variant="rademacher")
        inputs = _row_inputs(space.gaussian_exact, samples, dim=dim, n_vectors=n_vectors,
                             budget=budget, restarts=restarts, seed=seed)
        report.add(case=f"{prefix};dim={dim}", inputs=inputs,
                   lhs=est.value, rhs=prev_value, constant=est.value,
                   asserted=True, margin=est.value - prev_value)
        key = key_format.format(dim=dim)
        report.summary[f"{key}_lower_bound"] = est.value
        report.summary[f"{key}_upper_bound"] = upper_bound(dim)
        report.summary[f"{key}_rademacher_ratio"] = rad
        report.summary[f"{key}_restarts_run"] = est.restarts_run
        report.summary[f"{key}_budget_exhausted"] = est.budget_exhausted
        prev_value, prev_witness = est.value, est.witness


_SEED = Param(int, 0, minimum=0)
# maxima of the keys that size an array
_MAX_SAMPLES, _MAX_DIM, _MAX_GRID = 10 ** 6, 256, 2 ** 20
_MC_SAMPLES = Param(int, 20000, minimum=320, maximum=_MAX_SAMPLES)
_CONSTANT_PARAMS = {
    "seed": _SEED,
    "samples": Param(int, 2048, minimum=320, maximum=_MAX_SAMPLES),
    "budget": Param(int, 4000, minimum=1),
    "restarts": Param(int, 12, minimum=1),
    "n_vectors": Param(int, 8, minimum=1, maximum=_MAX_DIM),
    "dims": Param(list[int], [2, 4, 8], minimum=1, maximum=_MAX_DIM),
}

EXPERIMENTS = {
    "embedding-type": Experiment(
        _exp_embedding_type,
        "Gaussian-sum norm vs difference-route Besov norm of random step families (ratios)",
        {"seed": _SEED, "samples": _MC_SAMPLES,
         "ps": Param(list[float], [4.0 / 3.0, 1.5], above=1.0, below=2.0),
         "ns": Param(list[int], [2, 4, 8, 16], minimum=1, maximum=_MAX_DIM)}),
    "embedding-cotype": Experiment(
        _exp_embedding_cotype,
        "frequency-route Besov vs Gaussian-sum norm of bump systems; exact on l^2, l^1 and dim 1",
        {"seed": _SEED, "samples": _MC_SAMPLES,
         "grid_n": Param(int, 2048, minimum=64, maximum=_MAX_GRID),
         "period": Param(float, 4.0, above=0.0),
         "levels": Param(int, 8, minimum=4),
         "qs": Param(list[float], [2.0, 3.0], minimum=2),
         "ns": Param(list[int], [1, 2], minimum=1, maximum=_MAX_DIM)}),
    "band-limited": Experiment(
        _exp_band_limited,
        "Gaussian-sum vs L^p norm, spectra in [-pi, pi]; exact on l^2 and l^1, l^2 asserted",
        {"seed": _SEED, "samples": _MC_SAMPLES,
         "grid_n": Param(int, 4096, minimum=256, maximum=_MAX_GRID),
         "period": Param(float, 128.0, above=0.0),
         "width": Param(float, 5.0, above=0.0),
         "dim": Param(int, 3, minimum=1, maximum=_MAX_DIM),
         "ps": Param(list[float], [2.0, 1.5, 1.0], minimum=1)}),
    "partition": Experiment(
        _exp_partition,
        "partition inequalities: exact Hilbert Pythagoras, exact l^1 type-1 within a 1e-12 "
        "roundoff budget, l^inf type/cotype cases by MC within 3 standard errors",
        {"seed": _SEED, "samples": _MC_SAMPLES,
         "cases": Param(int, 20, minimum=1),
         "dim": Param(int, 4, minimum=2, maximum=_MAX_DIM)}),
    "dilation": Experiment(
        _exp_dilation,
        "dilation covariance of the frequency-route norm: ratios near their geometric mean",
        {"grid_n": Param(int, 32768, minimum=4096, maximum=_MAX_GRID),
         "period": Param(float, 64.0, above=0.0),
         "levels": Param(int, 10, minimum=6),
         "k0": Param(int, 5, minimum=1),
         "width": Param(float, 0.35, above=0.0),
         "s": Param(float, 0.5),
         "p": Param(float, 4.0 / 3.0, minimum=1),
         "q": Param(float, 4.0 / 3.0, minimum=1),
         "lambdas": Param(list[int], [2, 4, 8, 16], minimum=2),
         "tolerance": Param(float, 0.2, above=0.0)}),
    "step-identities": Experiment(
        _exp_step_identities,
        "closed-form L^p and Gaussian-sum identities and the difference-norm bound of steps",
        {"seed": _SEED, "samples": _MC_SAMPLES,
         "ps": Param(list[float], [1.0, 4.0 / 3.0, 1.5, 2.0], minimum=1),
         "ns": Param(list[int], [2, 4, 8, 16, 32, 64], minimum=1, maximum=_MAX_DIM)}),
    "tent-scaling": Experiment(
        _exp_tent_scaling,
        "Holder bound and Gaussian moment growth of shrinking tents; log-log slope vs target",
        {"p": Param(float, 1.5, minimum=1),
         "alpha": Param(float, 0.1, above=0.0, below=1.0),
         "r": Param(float, 1.05, above=1.0),
         "holder_ns": Param(list[int], [4, 8, 16, 32, 64, 128], minimum=1, maximum=1024),
         "slope_ns": Param(list[int], [2 ** k for k in range(16, 22)], minimum=2, min_items=2,
                           maximum=2 ** 24),
         "slope_tolerance": Param(float, 0.10, above=0.0)}),
    "type-constant": Experiment(
        partial(_exp_constant, "type"),
        "randomized lower bounds for Gaussian type constants, with exact constant-1 cases",
        _CONSTANT_PARAMS),
    "cotype-constant": Experiment(
        partial(_exp_constant, "cotype"),
        "randomized lower bounds for Gaussian cotype constants, mirror of type-constant",
        _CONSTANT_PARAMS),
}


def run(experiment_id: str, config: dict | None = None) -> Report:
    """Run one named experiment on `config`.  An unknown id or key, or a value
    its Param does not admit, is rejected before any work; a ValueError or an
    ArithmeticError (overflow, division by zero) that the values given make
    the library raise becomes a UsageError too."""
    _require(experiment_id in EXPERIMENTS, "experiment",
             f"unknown id {experiment_id!r} (known: {', '.join(sorted(EXPERIMENTS))})")
    experiment = EXPERIMENTS[experiment_id]
    config = dict(config or {})
    unknown = sorted(set(config) - set(experiment.params))
    _require(not unknown, ", ".join(unknown),
             f"not a parameter of {experiment_id} (known: {', '.join(experiment.params)})")
    params = {key: _check(key, param, config.get(key, param.default))
              for key, param in experiment.params.items()}
    report = Report(experiment_id, config)
    try:
        experiment.func(report, **params)
    except (ValueError, ArithmeticError) as exc:
        if isinstance(exc, UsageError) or not config:
            raise  # already a usage error, or a fault: the defaults must run
        raise UsageError(f"{', '.join(sorted(config))}: {exc}") from exc
    return report
