"""Named, reproducible experiments wiring the library together.

Each experiment takes a config mapping, runs a fixed sweep, and returns a
Report whose rows carry both sides of every comparison, the constant used,
the margin, a standard-error budget, and (for asserted rows) the tolerance
the row was judged with.  Reports serialize to CSV with a schema-version
header and 17-significant-digit floats, so re-running a config produces a
byte-identical file.

Randomness policy: every random object is drawn from a counter-based
generator keyed by `derive_seed(seed, labels...)`, never from global
state.  Random vector tuples are standard normal rows normalized in the
target norm; the derivation labels appear in the row's `inputs` field so
each row is recomputable by library calls alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .besov import (besov_norm_difference, besov_norm_fourier,
                    build_filter_bank, holder_norm)
from .constructions import (make_psi_system, make_single_band, make_step,
                            make_tent_family, tent_l2_sigmas, zeta_sum)
from .functions import dilate, grid_lp_norm, lp_norm
from .gamma import (disjoint_lp_from_sigmas, gamma_norm_hilbert,
                    gamma_norm_mc, partition_inequality_check)
from .montecarlo import MCConfig, derive_seed, gaussian_array
from .spaces import INF, LpSpace, gaussian_second_moment
from .typecotype import cotype_ratio, estimate_constant, type_ratio

SCHEMA_VERSION = 1

CSV_COLUMNS = ("experiment", "case", "inputs", "lhs", "rhs", "constant",
               "margin", "std_error", "tolerance", "asserted", "passed")


class UsageError(ValueError):
    """Invalid experiment id or parameter; maps to process exit status 2."""


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
        """Margin defaults to rhs - lhs; an asserted row passes when the
        margin is not below minus its tolerance."""
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


def _unit_tuple(space: LpSpace, count: int, seed: int) -> np.ndarray:
    vecs = gaussian_array((count, space.dim), seed)
    norms = space.norms(vecs)
    norms[norms == 0.0] = 1.0
    return vecs / norms[:, None]


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise UsageError(f"{field_name}: {message}")


def _int_param(config, key, default, minimum=None):
    value = config.get(key, default)
    _require(isinstance(value, (int, np.integer)) and not isinstance(value, bool),
             key, "must be an integer")
    if minimum is not None:
        _require(value >= minimum, key, f"must be at least {minimum}")
    return int(value)


def _float_param(config, key, default, lo=None, hi=None):
    value = config.get(key, default)
    _require(isinstance(value, (int, float, np.floating)) and not isinstance(value, bool),
             key, "must be a number")
    value = float(value)
    if lo is not None:
        _require(value > lo, key, f"must exceed {lo}")
    if hi is not None:
        _require(value < hi, key, f"must be below {hi}")
    return value


def _list_param(config, key, default, kind, minimum, min_items=0):
    """At least `min_items` entries of `kind` (int or float), each >= `minimum`."""
    value = config.get(key, default)
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    _require(isinstance(value, (list, tuple))
             and all(isinstance(v, types) and not isinstance(v, bool) for v in value),
             key, "must be a list of integers" if kind is int else "must be a list of numbers")
    _require(len(value) >= min_items, key, f"length must be at least {min_items}")
    _require(all(v >= minimum for v in value), key, f"entries must be at least {minimum}")
    return [kind(v) for v in value]


# ---------------------------------------------------------------------------
# experiments


def _exp_embedding_type(config) -> Report:
    seed = _int_param(config, "seed", 0, 0)
    samples = _int_param(config, "samples", 20000, 320)
    ps = _list_param(config, "ps", [4.0 / 3.0, 1.5], float, 1)
    ns = _list_param(config, "ns", [2, 4, 8, 16], int, 1)
    report = Report("embedding-type", config)
    for p in ps:
        _require(1.0 < p < 2.0, "ps", "difference-route exponents must lie in (1, 2)")
        s = 1.0 / p - 0.5
        best = 0.0
        for n in ns:
            space = LpSpace(p, n)
            vec_seed = derive_seed(seed, "embedding-type", _fmt(p), n)
            f = make_step(n, _unit_tuple(space, n, vec_seed), space)
            est = gamma_norm_mc(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
            besov = besov_norm_difference(f, s, p, q=p)
            ratio = est.mean / besov
            best = max(best, ratio)
            report.add(case=f"p={p:g};n={n}",
                       inputs=format_inputs(n=n, p=p, s=s, q=p, samples=samples,
                                            vector_seed=vec_seed),
                       lhs=est.mean, rhs=besov, constant=ratio,
                       std_error=est.std_error)
        report.summary[f"max_gamma_over_besov_p={p:g}"] = best
    return report


def _exp_embedding_cotype(config) -> Report:
    seed = _int_param(config, "seed", 0, 0)
    samples = _int_param(config, "samples", 20000, 320)
    grid_n = _int_param(config, "grid_n", 2048, 64)
    period = _float_param(config, "period", 4.0, 0.0)
    levels = _int_param(config, "levels", 8, 4)
    qs = _list_param(config, "qs", [2.0, 3.0], float, 2)
    counts = _list_param(config, "ns", [1, 2], int, 1)
    bank = build_filter_bank(period, grid_n, 1, levels)
    report = Report("embedding-cotype", config)
    for q in qs:
        s = 1.0 / q - 0.5
        best = 0.0
        for count in counts:
            _require(3 * count < levels, "ns", "needs 3n below the bank levels")
            space = LpSpace(q, count)
            vec_seed = derive_seed(seed, "embedding-cotype", _fmt(q), count)
            vectors = _unit_tuple(space, count, vec_seed)
            f = make_psi_system(count, vectors, bank, space)
            besov = besov_norm_fourier(f, s, q, q, bank)
            if space.is_hilbert:
                gam, se = gamma_norm_hilbert(f), 0.0
            else:
                est = gamma_norm_mc(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
                gam, se = est.mean, est.std_error
            ratio = besov / gam
            best = max(best, ratio)
            report.add(case=f"q={q:g};n={count}",
                       inputs=format_inputs(n=count, q=q, s=s, samples=samples,
                                            grid_n=grid_n, period=period,
                                            levels=levels, vector_seed=vec_seed),
                       lhs=besov, rhs=gam, constant=ratio, std_error=se)
        report.summary[f"max_besov_over_gamma_q={q:g}"] = best
    return report


def _exp_band_limited(config) -> Report:
    seed = _int_param(config, "seed", 0, 0)
    samples = _int_param(config, "samples", 20000, 320)
    grid_n = _int_param(config, "grid_n", 4096, 256)
    period = _float_param(config, "period", 128.0, 0.0)
    width = _float_param(config, "width", 5.0, 0.0)
    dim = _int_param(config, "dim", 3, 1)
    ps = _list_param(config, "ps", [2.0, 1.5, 1.0], float, 1)
    bank = build_filter_bank(period, grid_n, 1, 2)
    report = Report("band-limited", config)
    # shell 2 with a wide envelope: spectrum lives in ~[1, 3], inside [-pi, pi]
    for p in ps:
        space = LpSpace(p, dim)
        vec_seed = derive_seed(seed, "band-limited", _fmt(p))
        v = _unit_tuple(space, 1, vec_seed)[0]
        f = make_single_band(1, bank, width=width, vector=v, space=space)
        lp_val = grid_lp_norm(f, p)
        if space.is_hilbert:
            gam, se = gamma_norm_hilbert(f), 0.0
            report.add(case="p=2", inputs=format_inputs(p=2.0, width=width,
                                                        grid_n=grid_n, period=period,
                                                        vector_seed=vec_seed),
                       lhs=gam, rhs=lp_val, constant=1.0, tolerance=1e-9,
                       asserted=True, margin=1e-9 - abs(gam - lp_val))
        else:
            est = gamma_norm_mc(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
            gam, se = est.mean, est.std_error
            report.add(case=f"p={p:g}",
                       inputs=format_inputs(p=p, width=width, grid_n=grid_n,
                                            period=period, samples=samples,
                                            vector_seed=vec_seed),
                       lhs=gam, rhs=lp_val, constant=gam / lp_val, std_error=se)
        report.summary[f"gamma_over_lp_p={p:g}"] = gam / lp_val
    return report


def _exp_partition(config) -> Report:
    seed = _int_param(config, "seed", 0, 0)
    samples = _int_param(config, "samples", 20000, 320)
    cases = _int_param(config, "cases", 20, 1)
    dim = _int_param(config, "dim", 4, 2)
    report = Report("partition", config)
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
        inputs = format_inputs(case_seed=case_seed, blocks=blocks, sets=n_sets,
                               dim=dim, samples=samples)

        f2 = make_step(blocks, vectors, LpSpace(2, dim))
        chk = partition_inequality_check(f2, partition, "type", 2.0, 1.0)
        gap = abs(chk.whole_norm ** 2 - sum(v ** 2 for v in chk.part_norms))
        worst_gap = max(worst_gap, gap)
        report.add(case=f"case={i};hilbert-p2", inputs=inputs,
                   lhs=chk.lhs, rhs=chk.rhs, constant=1.0, tolerance=1e-10,
                   asserted=True, margin=1e-10 - gap)

        for label, space_p, direction, expo in (
                ("l1-type1", 1.0, "type", 1.0),
                ("linf-type1", INF, "type", 1.0),
                ("linf-cotypeinf", INF, "cotype", INF)):
            space = LpSpace(space_p, dim)
            fp = make_step(blocks, vectors, space)
            cfg = MCConfig(samples, derive_seed(case_seed, label))
            chk = partition_inequality_check(fp, partition, direction, expo, 1.0, cfg)
            tol = 3.0 * chk.std_error_budget
            report.add(case=f"case={i};{label}", inputs=inputs,
                       lhs=chk.lhs, rhs=chk.rhs, constant=1.0,
                       std_error=chk.std_error_budget, tolerance=tol,
                       asserted=True, margin=chk.margin)
    report.summary["worst_hilbert_squared_gap"] = worst_gap
    return report


def _exp_dilation(config) -> Report:
    seed = _int_param(config, "seed", 0, 0)  # unused randomness; kept for the schema
    grid_n = _int_param(config, "grid_n", 32768, 4096)
    period = _float_param(config, "period", 64.0, 0.0)
    levels = _int_param(config, "levels", 10, 6)
    k0 = _int_param(config, "k0", 5, 1)
    width = _float_param(config, "width", 0.35, 0.0)
    s = _float_param(config, "s", 0.5)
    p = _float_param(config, "p", 4.0 / 3.0, 1.0 - 1e-12)
    q = _float_param(config, "q", 4.0 / 3.0, 1.0 - 1e-12)
    lambdas = _list_param(config, "lambdas", [2, 4, 8, 16], int, 2, min_items=1)
    _require(all(v & (v - 1) == 0 for v in lambdas), "lambdas", "entries must be powers of two")
    tol = _float_param(config, "tolerance", 0.2, 0.0)
    bank = build_filter_bank(period, grid_n, 1, levels)
    f = make_single_band(k0, bank, width=width)
    base = besov_norm_fourier(f, s, p, q, bank)
    ratios = []
    for lam in lambdas:
        f_lam = dilate(f, float(lam))
        val = besov_norm_fourier(f_lam, s, p, q, bank)
        ratios.append(val / (lam ** (s - 1.0 / p) * base))
    gmean = float(np.exp(np.mean(np.log(ratios))))
    report = Report("dilation", config)
    for lam, ratio in zip(lambdas, ratios):
        report.add(case=f"lambda={lam}",
                   inputs=format_inputs(k0=k0, width=width, s=s, p=p, q=q,
                                        grid_n=grid_n, period=period, levels=levels),
                   lhs=ratio, rhs=gmean, constant=gmean, tolerance=tol,
                   asserted=True, margin=tol - abs(ratio / gmean - 1.0))
    report.summary["dilation_constant_gmean"] = gmean
    report.summary["max_relative_spread"] = max(abs(r / gmean - 1.0) for r in ratios)
    return report


def _step_besov_constant(p: float) -> float:
    return 1.0 + 2.0 ** (1.0 / p + 1.0) + 2.0 / (1.0 / p - 0.5)


def _exp_step_identities(config) -> Report:
    seed = _int_param(config, "seed", 0, 0)
    samples = _int_param(config, "samples", 20000, 320)
    ps = _list_param(config, "ps", [1.0, 4.0 / 3.0, 1.5, 2.0], float, 1)
    ns = _list_param(config, "ns", [2, 4, 8, 16, 32, 64], int, 1)
    report = Report("step-identities", config)
    for p in ps:
        worst_ratio = 0.0
        for n in ns:
            space = LpSpace(p, n)
            vec_seed = derive_seed(seed, "step-identities", _fmt(p), n)
            vectors = _unit_tuple(space, n, vec_seed)
            f = make_step(n, vectors, space)
            inputs = format_inputs(n=n, p=p, samples=samples, vector_seed=vec_seed)

            s_p = float((space.norms(vectors) ** p).sum()) ** (1.0 / p)
            closed = (2 * n) ** (-1.0 / p) * s_p
            got = lp_norm(f, p)
            report.add(case=f"p={p:g};n={n};lp", inputs=inputs, lhs=got,
                       rhs=closed, tolerance=1e-12, asserted=True,
                       margin=1e-12 - abs(got - closed))

            if space.is_hilbert:
                target = (2 * n) ** -0.5 * math.sqrt(float((vectors ** 2).sum()))
                got_g = gamma_norm_hilbert(f)
                report.add(case=f"p={p:g};n={n};gamma-exact", inputs=inputs,
                           lhs=got_g, rhs=target, tolerance=1e-12, asserted=True,
                           margin=1e-12 - abs(got_g - target))
            else:
                est = gamma_norm_mc(f, MCConfig(samples, derive_seed(vec_seed, "mc")))
                ref = gaussian_second_moment(space, vectors,
                                             MCConfig(samples, derive_seed(vec_seed, "ref")))
                target = (2 * n) ** -0.5 * math.sqrt(ref.mean)
                ref_se = (2 * n) ** -0.5 * ref.std_error / (2.0 * math.sqrt(ref.mean))
                tol = 3.0 * (est.std_error + ref_se)
                report.add(case=f"p={p:g};n={n};gamma-mc", inputs=inputs,
                           lhs=est.mean, rhs=target, std_error=est.std_error + ref_se,
                           tolerance=tol, asserted=True,
                           margin=tol - abs(est.mean - target))

            if 1.0 < p < 2.0:
                s = 1.0 / p - 0.5
                bound_c = _step_besov_constant(p)
                besov = besov_norm_difference(f, s, p, 1.0)
                rhs = bound_c * (2 * n) ** -0.5 * s_p
                worst_ratio = max(worst_ratio, besov / rhs)
                report.add(case=f"p={p:g};n={n};besov-bound", inputs=inputs,
                           lhs=besov, rhs=rhs, constant=bound_c,
                           asserted=True)
        if 1.0 < p < 2.0:
            report.summary[f"besov_bound_utilization_p={p:g}"] = worst_ratio
    return report


def _exp_tent_scaling(config) -> Report:
    p = _float_param(config, "p", 1.5, 1.0 - 1e-12)
    alpha = _float_param(config, "alpha", 0.1, 0.0, 1.0)
    r = _float_param(config, "r", 1.05, 1.0)
    _require(r < 1.0 / (p / 2.0 + alpha * p), "r",
             "must stay below 1/(p/2 + alpha p) for the scaling regime")
    holder_ns = _list_param(config, "holder_ns", [4, 8, 16, 32, 64, 128], int, 1)
    # a slope fit needs at least two sizes
    slope_ns = _list_param(config, "slope_ns",
                           [2 ** 16, 2 ** 17, 2 ** 18, 2 ** 19, 2 ** 20, 2 ** 21],
                           int, 2, min_items=2)
    slope_tol = _float_param(config, "slope_tolerance", 0.10, 0.0)
    c = zeta_sum(r)
    report = Report("tent-scaling", config)

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
               lhs=slope, rhs=target, tolerance=slope_tol * target,
               asserted=True, margin=slope_tol * target - abs(slope - target))
    report.add(case="contradiction-exponents",
               inputs=format_inputs(p=p, r=r, alpha=alpha),
               lhs=r * alpha, rhs=slope, asserted=True)
    report.summary["fitted_slope"] = slope
    report.summary["target_slope"] = target
    report.summary["holder_exponent"] = r * alpha
    return report


# direction -> (exponent of the swept l^p space, the constant-1 case on that
# space as (type/cotype exponent, case label), case prefix of the sweep rows,
# summary-key format, Rademacher ratio)
_CONSTANT_SEARCHES = {
    "type": (INF, (1.0, "any-type1"), "linf-type2", "linf{dim}_type2", type_ratio),
    "cotype": (1.0, (INF, "any-cotypeinf"), "l1-cotype2", "l1_{dim}_cotype2", cotype_ratio),
}


def _exp_constant(direction, config) -> Report:
    space_p, (exponent_1, case_1), prefix, key_format, ratio = _CONSTANT_SEARCHES[direction]
    seed = _int_param(config, "seed", 0, 0)
    samples = _int_param(config, "samples", 2048, 320)
    budget = _int_param(config, "budget", 4000, 1)
    restarts = _int_param(config, "restarts", 12, 1)
    n_vectors = _int_param(config, "n_vectors", 8, 1)
    dims = _list_param(config, "dims", [2, 4, 8], int, 1)
    report = Report(f"{direction}-constant", config)

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
        report.add(case=f"{prefix};dim={dim}",
                   inputs=format_inputs(dim=dim, n_vectors=n_vectors, budget=budget,
                                        samples=samples, restarts=restarts, seed=seed),
                   lhs=est.value, rhs=prev_value, constant=est.value,
                   asserted=True, margin=est.value - prev_value)
        key = key_format.format(dim=dim)
        report.summary[f"{key}_lower_bound"] = est.value
        report.summary[f"{key}_rademacher_ratio"] = rad
        report.summary[f"{key}_restarts_run"] = est.restarts_run
        report.summary[f"{key}_budget_exhausted"] = est.budget_exhausted
        prev_value, prev_witness = est.value, est.witness
    return report


EXPERIMENTS = {
    "embedding-type": _exp_embedding_type,
    "embedding-cotype": _exp_embedding_cotype,
    "band-limited": _exp_band_limited,
    "partition": _exp_partition,
    "dilation": _exp_dilation,
    "step-identities": _exp_step_identities,
    "tent-scaling": _exp_tent_scaling,
    "type-constant": partial(_exp_constant, "type"),
    "cotype-constant": partial(_exp_constant, "cotype"),
}

EXPERIMENT_INFO = {
    "embedding-type": "Gaussian-sum norm against the difference-route smoothness "
                      "norm on random step families (ratios reported)",
    "embedding-cotype": "frequency-route smoothness norm against the Gaussian-sum "
                        "norm for orthonormal band-bump systems (ratios reported)",
    "band-limited": "Gaussian-sum norm vs L^p norm for functions with spectrum "
                    "inside [-pi, pi] (exact Hilbert case asserted)",
    "partition": "partition inequalities for restricted operators: exact Hilbert "
                 "Pythagoras plus constant-1 type/cotype cases under MC",
    "dilation": "dilation covariance of the frequency-route norm on single-band "
                "bumps: scaled ratios stay within a band around their geometric mean",
    "step-identities": "closed-form L^p and Gaussian-sum identities plus the "
                       "difference-norm upper bound for alternating steps",
    "tent-scaling": "exact Holder bound and closed-form Gaussian moment growth "
                    "for shrinking tent families; log-log slope vs target",
    "type-constant": "randomized lower bounds for Gaussian type constants with "
                     "exact constant-1 shortcuts and a monotone dimension sweep",
    "cotype-constant": "randomized lower bounds for Gaussian cotype constants, "
                       "mirror of type-constant",
}


def run(experiment_id: str, config: dict | None = None) -> Report:
    """Run one named experiment; unknown ids are rejected before any work."""
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise UsageError(f"experiment: unknown id {experiment_id!r} (known: {known})")
    config = dict(config or {})
    return EXPERIMENTS[experiment_id](config)
