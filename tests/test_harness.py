import hashlib
import json
import math
import warnings
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest

from besovgamma import cli
from besovgamma.functions import lp_norm
from besovgamma.harness import (CSV_COLUMNS, EXPERIMENTS, UsageError, _check,
                                render_csv, run, write_report_csv)
from besovgamma.montecarlo import gaussian_array
from besovgamma.spaces import LpSpace
from besovgamma.constructions import make_step

SMALL_PARTITION = {"cases": 2, "samples": 640}
SMALL_STEPS = {"ps": [2.0], "ns": [4], "samples": 640}


# SHA-256 of render_csv(run(e)) for each experiment at its default config.
# A change that moves rows of a default CSV re-pins these and names the rows.
DEFAULT_CSV_SHA256 = {
    "embedding-type": "126546bdce7a16d6fb002dac52b70554d5f3cbb997fca63fb7b048687d8a4089",
    "embedding-cotype": "8c00148c56330905a0305317e665080a052b314285da658671a770d85ec31575",
    "band-limited": "7ecc3e5c5af41736541db02fa0944daf45693c0f9cebc8bc8358de8c94eb683f",
    "partition": "d996722a9addabf8cc88a9903055046e276842aa65433c28fe14d1dc4c66316c",
    "dilation": "471cc6fa6703ccff13a87e42e9d3e38349156b03ac3c5097ef8d7bb75359862d",
    "step-identities": "073216ea507ad95850fba3180eb0e73aa2db848073da833d4d51d2c129120ae1",
    "tent-scaling": "43cd95614c167fd97b2d7d9843c02c1036ccd6b5a6db9c50b88478666f8500ec",
    "type-constant": "bb00acbbe974840c36ccdd18872139d98200d9e9915b1190c4f1c85de5cbb2c9",
    "cotype-constant": "4704ea248a6047258ce1e5ccb692add1f7ac7824bddadcfed81ad5eaeccf5d55",
}


def test_default_csvs_are_byte_identical_to_the_pinned_digests():
    assert set(DEFAULT_CSV_SHA256) == set(EXPERIMENTS)
    for experiment, digest in DEFAULT_CSV_SHA256.items():
        text = render_csv(run(experiment))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, experiment


def test_csv_layout():
    text = render_csv(run("partition", SMALL_PARTITION))
    lines = text.splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert lines[-1] == "# passed=true"
    data = [ln for ln in lines[2:] if not ln.startswith("#")]
    assert data and all(len(ln.split(",")) == len(CSV_COLUMNS) for ln in data)


def test_csv_byte_determinism():
    a = render_csv(run("partition", SMALL_PARTITION))
    b = render_csv(run("partition", SMALL_PARTITION))
    assert a == b
    c = render_csv(run("partition", dict(SMALL_PARTITION, seed=1)))
    assert c != a


def test_exact_partition_rows_list_no_sample_count():
    # hilbert-p2 and l1-type1 are exact: their inputs omit `samples`, and
    # changing the sample count leaves those rows byte-identical
    a = run("partition", SMALL_PARTITION).rows
    b = run("partition", dict(SMALL_PARTITION, samples=1280)).rows
    exact = ("hilbert-p2", "l1-type1")
    for row_a, row_b in zip(a, b):
        if row_a.case.endswith(exact):
            assert "samples" not in row_a.inputs
            assert row_a == row_b
        else:
            assert "samples=640" in row_a.inputs and "samples=1280" in row_b.inputs
    assert sum(r.case.endswith(exact) for r in a) == 4


def test_asserted_rows_carry_tolerances():
    for experiment, config in (("partition", SMALL_PARTITION),
                               ("step-identities", SMALL_STEPS)):
        report = run(experiment, config)
        asserted = [r for r in report.rows if r.asserted]
        assert asserted
        for row in asserted:
            assert row.tolerance is not None
            assert row.tolerance >= 0.0 and math.isfinite(row.tolerance)
            assert row.margin is not None


def test_unknown_experiment_rejected():
    with pytest.raises(UsageError, match="partition"):
        run("no-such-experiment", {})


def test_bad_params_name_the_field():
    with pytest.raises(UsageError, match="samples"):
        run("partition", {"samples": 5})
    with pytest.raises(UsageError, match="seed"):
        run("step-identities", {"seed": -1})
    with pytest.raises(UsageError, match="ns"):
        run("embedding-cotype", {"ns": [3]})  # psi levels do not fit the bank
    with pytest.raises(UsageError, match="r"):
        run("tent-scaling", {"r": 2.0})


def test_inputs_field_recomputes_reported_lhs():
    # any reader can rebuild the random vectors from the inputs column alone
    report = run("step-identities", SMALL_STEPS)
    row = next(r for r in report.rows if r.case == "p=2;n=4;lp")
    fields = dict(pair.split("=", 1) for pair in row.inputs.split(";"))
    n = int(fields["n"])
    p = float(fields["p"])
    space = LpSpace(p, n)
    vecs = gaussian_array((n, n), int(fields["vector_seed"]))
    vecs = vecs / space.norms(vecs)[:, None]
    assert lp_norm(make_step(n, vecs, space), p) == row.lhs


def test_write_report_csv(tmp_path):
    report = run("partition", SMALL_PARTITION)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    assert path.read_text(encoding="utf-8") == render_csv(report)


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_pass_run_writes_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", SMALL_PARTITION)
    out = tmp_path / "r.csv"
    rc = cli.main(["run", "partition", "--config", cfg, "--out", str(out)])
    stderr = capsys.readouterr().err
    assert rc == 0
    assert out.read_text(encoding="utf-8").startswith("# schema_version=1")
    assert "PASS" in stderr


def test_cli_failing_assertion_returns_one(tmp_path, capsys):
    # small families sit far from the asymptotic slope, so the fit fails
    cfg = _write_config(tmp_path, "c.json",
                        {"slope_ns": [4, 8, 16, 32, 64, 128]})
    rc = cli.main(["run", "tent-scaling", "--config", cfg])
    stderr = capsys.readouterr().err
    assert rc == 1
    assert "FAIL" in stderr


def test_cli_stdout_is_exactly_the_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", SMALL_PARTITION)
    assert cli.main(["run", "partition", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out == render_csv(run("partition", SMALL_PARTITION))
    assert "partition: PASS" in captured.err


def test_cli_usage_errors_return_two(tmp_path, capsys):
    assert cli.main(["run", "no-such-experiment"]) == 2
    cfg = _write_config(tmp_path, "c.json", {"cases": 1})
    assert cli.main(["run", "partition", "--config", cfg, "--samples", "5"]) == 2
    missing = str(tmp_path / "absent.json")
    assert cli.main(["run", "partition", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert err.strip()


@pytest.mark.parametrize("lambdas", [[3], [], [2.5], "24"])
def test_cli_rejects_bad_dilation_lambdas(tmp_path, capsys, lambdas):
    # not a power of two, empty, not an integer, not a list
    cfg = _write_config(tmp_path, "c.json", {"lambdas": lambdas})
    assert cli.main(["run", "dilation", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "lambdas" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("experiment, payload, field_name", [
    ("embedding-type", {"ns": [2.5], "ps": [1.5], "samples": 320}, "ns"),
    ("step-identities", {"ps": "1.5"}, "ps"),
    ("embedding-cotype", {"qs": "3"}, "qs"),
    ("type-constant", {"dims": [2.7]}, "dims"),
    ("tent-scaling", {"holder_ns": [0]}, "holder_ns"),
    ("tent-scaling", {"slope_ns": []}, "slope_ns"),
    ("step-identities", {"ps": []}, "ps"),
    ("embedding-cotype", {"qs": []}, "qs"),
    ("embedding-type", {"ns": []}, "ns"),
    ("cotype-constant", {"dims": []}, "dims"),
    ("tent-scaling", {"holder_ns": []}, "holder_ns"),
])
def test_cli_rejects_bad_list_parameters(tmp_path, capsys, experiment, payload, field_name):
    # a non-integer size, a string for a list, an item below its minimum,
    # too few sizes for a slope fit, a sweep over nothing
    cfg = _write_config(tmp_path, "c.json", payload)
    assert cli.main(["run", experiment, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"besovgamma: {field_name}:" in captured.err
    assert captured.out == ""


def test_band_limited_runs_at_p_infinity():
    # JSON's Infinity literal is the one way to ask for p = inf
    report = run("band-limited", {"ps": [math.inf], "samples": 640})
    assert [r.case for r in report.rows] == ["p=inf"]
    assert "p=inf" in report.rows[0].inputs
    assert list(report.summary) == ["gamma_over_lp_p=inf"]


@pytest.mark.parametrize("experiment, payload, message", [
    ("dilation", {"s": math.nan}, "s: must not be NaN"),
    ("dilation", {"s": math.inf}, "s: must be finite"),
    ("dilation", {"s": -math.inf}, "s: must be finite"),
    ("dilation", {"p": math.nan}, "p: must not be NaN"),
    ("embedding-cotype", {"qs": [3.0, math.nan]}, "qs: must not be NaN"),
])
def test_cli_rejects_nan_and_an_infinite_smoothness(tmp_path, capsys, experiment, payload,
                                                    message):
    # json writes and reads the NaN and Infinity literals
    cfg = _write_config(tmp_path, "c.json", payload)
    assert cli.main(["run", experiment, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"besovgamma: {message}\n"
    assert captured.out == ""


def test_dilation_runs_at_infinite_p_and_q():
    # only s must be finite; the norm exponents may be infinite
    report = run("dilation", {"p": math.inf, "q": math.inf, "lambdas": [2]})
    assert report.passed
    assert ";p=inf;" in report.rows[0].inputs and ";q=inf;" in report.rows[0].inputs


SMALL_SEARCH = {"budget": 300, "restarts": 2, "samples": 320, "dims": [2, 3]}


@pytest.mark.parametrize("direction, cases, key_head", [
    ("type", ["hilbert-type2", "any-type1", "linf-type2;dim=2", "linf-type2;dim=3"],
     ["linf2_type2", "linf3_type2"]),
    ("cotype", ["hilbert-cotype2", "any-cotypeinf", "l1-cotype2;dim=2", "l1-cotype2;dim=3"],
     ["l1_2_cotype2", "l1_3_cotype2"]),
])
def test_constant_searches_keep_their_cases_and_summary_keys(direction, cases, key_head):
    report = run(f"{direction}-constant", SMALL_SEARCH)
    assert report.experiment == f"{direction}-constant"
    assert report.passed
    assert [r.case for r in report.rows] == cases
    assert sorted(report.summary) == sorted(
        f"{head}_{tail}" for head in key_head
        for tail in ("lower_bound", "upper_bound", "rademacher_ratio", "restarts_run",
                     "budget_exhausted"))
    sweep = report.rows[2:]
    assert sweep[0].rhs == 0.0 and sweep[1].rhs == sweep[0].lhs


def test_exact_constant_rows_list_no_sample_count():
    # the l^1 cotype search is exact: its sweep rows omit `samples` and stay
    # byte-identical when the sample count changes; only the sampled
    # Rademacher ratios may move
    a, b = (render_csv(run("cotype-constant", dict(SMALL_SEARCH, samples=samples)))
            for samples in (320, 640))
    rows_a, rows_b = ([line for line in text.splitlines() if "l1-cotype2" in line]
                      for text in (a, b))
    assert len(rows_a) == 2
    assert rows_a == rows_b
    assert all("samples" not in line for line in rows_a)
    sampled = [line for line in a.splitlines() if "rademacher_ratio" in line]
    assert sampled and not set(sampled) & set(b.splitlines())
    linf = run("type-constant", SMALL_SEARCH).rows[2:]
    assert all("samples=320" in row.inputs for row in linf)


@pytest.mark.parametrize("experiment, upper", [
    ("type-constant", {f"linf{d}_type2": math.sqrt(4.0 * math.log(d) + 2.0 * math.log(2.0))
                       for d in (2, 4, 8)}),
    ("cotype-constant", {f"l1_{d}_cotype2": math.sqrt(math.pi / 2.0) for d in (2, 4, 8)}),
])
def test_default_constant_searches_stay_below_their_upper_bounds(experiment, upper):
    # sqrt(4 log d + 2 log 2) for type 2 of l^inf_d, sqrt(pi/2) for cotype 2 of l^1_d
    summary = run(experiment).summary
    for key, bound in upper.items():
        assert summary[f"{key}_upper_bound"] == pytest.approx(bound, rel=1e-15)
        assert 1.0 < summary[f"{key}_lower_bound"] <= summary[f"{key}_upper_bound"]


def test_cli_list_names_every_experiment(capsys):
    assert cli.main(["list"]) == 0
    stdout = capsys.readouterr().out
    for experiment_id in EXPERIMENTS:
        assert experiment_id in stdout


def test_cli_overrides_reach_the_experiment(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["run", "embedding-cotype", "--grid", "1024", "--samples", "640"]
    assert cli.main(base + ["--seed", "3", "--out", str(out_a)]) == 0
    assert cli.main(base + ["--seed", "4", "--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = out_a.read_text(encoding="utf-8")
    assert "grid_n=1024" in text_a
    assert "samples=640" in text_a
    assert text_a != out_b.read_text(encoding="utf-8")


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs"
                     / "experiment_config.schema.json").read_text(encoding="utf-8"))


def _declarations():
    """Config key -> every Param declared for it, across the experiments."""
    out = {}
    for experiment in EXPERIMENTS.values():
        for key, param in experiment.params.items():
            out.setdefault(key, []).append(param)
    return out


def test_schema_lists_exactly_the_declared_keys():
    assert SCHEMA["additionalProperties"] is False
    assert set(SCHEMA["properties"]) == set(_declarations())


@pytest.mark.parametrize("key", sorted(_declarations()))
def test_schema_entry_matches_the_declarations(key):
    params = _declarations()[key]
    entry = SCHEMA["properties"][key]
    (kind,) = {p.kind for p in params}
    many = get_origin(kind) is list
    json_type = {int: "integer", float: "number"}[get_args(kind)[0] if many else kind]
    bounded = entry["items"] if many else entry
    assert entry["type"] == ("array" if many else json_type)
    assert bounded["type"] == json_type
    # the schema states the loosest bound any experiment accepts
    lower = [(p.minimum, True) if p.minimum is not None else (p.above, False)
             for p in params]
    if any(value is None for value, _ in lower):
        assert "minimum" not in bounded and "exclusiveMinimum" not in bounded
    else:
        value, inclusive = min(lower, key=lambda b: (b[0], not b[1]))
        assert bounded.get("minimum" if inclusive else "exclusiveMinimum") == value
        assert ("exclusiveMinimum" if inclusive else "minimum") not in bounded
    uppers = [p.below for p in params]
    assert bounded.get("exclusiveMaximum") == (None if None in uppers else max(uppers))
    maxima = [p.maximum for p in params]
    assert bounded.get("maximum") == (None if None in maxima else max(maxima))
    assert entry.get("minItems") == (min(p.min_items for p in params) if many else None)
    if "default" in entry:
        assert all(p.default == entry["default"] for p in params)
    for param in params:
        assert _check(key, param, param.default) == param.default


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_cli_rejects_an_unknown_key(tmp_path, capsys, experiment_id):
    first = next(iter(EXPERIMENTS[experiment_id].params))
    typo = first + first[-1]
    assert typo not in EXPERIMENTS[experiment_id].params
    cfg = _write_config(tmp_path, "c.json", {typo: 1})
    assert cli.main(["run", experiment_id, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"besovgamma: {typo}: not a parameter of {experiment_id}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv, field_name", [
    (["run", "tent-scaling", "--seed", "3"], "seed"),   # tent-scaling draws nothing at random
    (["run", "dilation", "--grid", "4096"], "grid_n"),  # 2^10 bands need a finer grid
])
def test_cli_overrides_an_experiment_cannot_use_return_two(capsys, argv, field_name):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"besovgamma: {field_name}: ")
    assert captured.out == ""


@pytest.mark.parametrize("experiment, payload, message", [
    ("embedding-cotype", {"levels": 20}, "must stay below the Nyquist frequency"),
    ("embedding-cotype", {"grid_n": 100}, "must stay below the Nyquist frequency"),
    ("band-limited", {"width": 100}, "envelope width too large for the period"),
    ("band-limited", {"grid_n": 300}, "points per axis must be a power of two"),
    ("dilation", {"k0": 11}, "k0 must be in 1..10"),
    ("dilation", {"levels": 30}, "must stay below the Nyquist frequency"),
    ("embedding-cotype", {"levels": 2000}, "must stay below the Nyquist frequency"),
])
def test_cli_library_rejections_of_config_values_return_two(tmp_path, capsys, experiment,
                                                            payload, message):
    cfg = _write_config(tmp_path, "c.json", payload)
    assert cli.main(["run", experiment, "--config", cfg]) == 2
    captured = capsys.readouterr()
    (key,) = payload
    assert captured.err.startswith(f"besovgamma: {key}: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_usage_errors_from_an_experiment_are_not_wrapped_twice():
    with pytest.raises(UsageError) as info:
        run("embedding-cotype", {"ns": [3]})
    assert str(info.value) == "ns: needs 3n below the bank levels"


def test_a_value_error_at_the_defaults_stays_a_fault(monkeypatch):
    for error in (ValueError, OverflowError):
        def broken(report, **params):
            raise error("broken")

        monkeypatch.setitem(EXPERIMENTS, "partition",
                            EXPERIMENTS["partition"]._replace(func=broken))
        with pytest.raises(error, match="broken") as info:
            run("partition")
        assert not isinstance(info.value, UsageError)
        with pytest.raises(UsageError, match="^cases: broken$"):
            run("partition", {"cases": 1})


@pytest.mark.parametrize("experiment, payload", [
    ("dilation", {"lambdas": [2, 2 ** 1100]}),
    ("dilation", {"levels": 2000}),
    ("embedding-cotype", {"levels": 2000}),
    ("dilation", {"s": 1e10}),
    ("dilation", {"s": -1e10}),
    ("band-limited", {"ps": [1000.0]}),
    ("embedding-cotype", {"qs": [1e300], "ns": [1]}),
    ("step-identities", {"ps": [1e300], "ns": [2]}),
    ("step-identities", {"ps": [700.0], "ns": [2]}),
])
def test_cli_overflow_and_division_by_zero_of_a_config_return_two(tmp_path, capsys, experiment,
                                                                  payload):
    cfg = _write_config(tmp_path, "c.json", payload)
    assert cli.main(["run", experiment, "--config", cfg]) == 2
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("besovgamma:")]
    assert len(lines) == 1
    assert lines[0].startswith(f"besovgamma: {', '.join(sorted(payload))}: ")
    assert captured.out == ""


@pytest.mark.parametrize("experiment, payload, message", [
    ("dilation", {"s": 1e10},
     "s: weights 2^(ks), k <= levels = 10, overflow at s = 10000000000.0"),
    ("step-identities", {"ps": [700.0], "ns": [2]},
     "ns, ps: the l^700.0 norm of a Gaussian sum overflowed float range"),
    ("step-identities", {"ps": [1e300], "ns": [2]},
     "ns, ps: the l^1e+300 norm of a nonzero vector leaves float range"),
    ("band-limited", {"ps": [1000.0]},
     "ps: the l^1000.0 norm of a nonzero vector leaves float range"),
    ("embedding-cotype", {"qs": [1e300], "ns": [1]},
     "ns, qs: the l^1e+300 norm of a nonzero vector leaves float range"),
    ("dilation", {"s": -1e10},
     "s: lambda^(s - 1/p) times the base norm leaves float range at s = -10000000000.0"),
    ("dilation", {"s": 100.0},
     "s: lambda^(s - 1/p) times the base norm leaves float range at s = 100.0"),
])
def test_an_overflow_is_named_without_a_warning(experiment, payload, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError) as info:
            run(experiment, payload)
    assert str(info.value) == message


@pytest.mark.parametrize("experiment, payload, message", [
    ("tent-scaling", {"alpha": 1.0}, "alpha: must be below 1.0"),
    ("tent-scaling", {"r": 1.0}, "r: must exceed 1.0"),
    ("embedding-type", {"ps": [1.5, 1.0]}, "ps: entries must exceed 1.0"),
    ("embedding-type", {"ps": [2.0]}, "ps: entries must be below 2.0"),
    ("partition", {"dim": 1}, "dim: must be at least 2"),
    ("partition", {"cases": True}, "cases: must be an integer"),
    ("dilation", {"s": "0.5"}, "s: must be a number"),
    ("dilation", {"lambdas": 2}, "lambdas: must be a list of integers"),
])
def test_declared_bounds_hold_at_their_edges(experiment, payload, message):
    with pytest.raises(UsageError) as info:
        run(experiment, payload)
    assert str(info.value) == message


def test_an_inclusive_minimum_admits_its_edge_and_values_arrive_cast():
    report = run("dilation", {"p": 1, "q": 1.0, "lambdas": [2]})
    assert ";p=1;" in report.rows[0].inputs and ";q=1;" in report.rows[0].inputs
    params = EXPERIMENTS["dilation"].params
    assert type(_check("p", params["p"], 1)) is float
    assert _check("lambdas", params["lambdas"], (np.int64(2), 4)) == [2, 4]
    assert [type(v) for v in _check("lambdas", params["lambdas"], (np.int64(2), 4))] == [int, int]


_SIZE_BOUNDS = [(experiment_id, key, param)
                for experiment_id, experiment in sorted(EXPERIMENTS.items())
                for key, param in experiment.params.items() if param.maximum is not None]


def test_every_key_that_sizes_an_array_has_a_maximum():
    assert {key for _, key, _ in _SIZE_BOUNDS} == {
        "samples", "dim", "ns", "dims", "n_vectors", "grid_n", "holder_ns", "slope_ns"}


@pytest.mark.parametrize("experiment_id, key, param", _SIZE_BOUNDS,
                         ids=[f"{e}-{k}" for e, k, _ in _SIZE_BOUNDS])
def test_sizes_above_their_maximum_are_refused_before_any_work(monkeypatch, experiment_id,
                                                               key, param):
    def never(report, **params):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(EXPERIMENTS, experiment_id,
                        EXPERIMENTS[experiment_id]._replace(func=never))
    many = get_origin(param.kind) is list
    edge = [param.maximum] * param.min_items if many else param.maximum
    too_big = edge[:-1] + [param.maximum + 1] if many else param.maximum + 1
    with pytest.raises(UsageError) as info:
        run(experiment_id, {key: too_big})
    entries = "entries " if many else ""
    assert str(info.value) == f"{key}: {entries}must be at most {param.maximum}"
    assert _check(key, param, edge) == edge


def test_cli_refuses_a_dimension_too_large_to_hold(tmp_path, capsys, monkeypatch):
    # 100,000 coordinates would need tens of GiB; the table refuses it first
    def never(report, **params):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(EXPERIMENTS, "partition", EXPERIMENTS["partition"]._replace(func=never))
    cfg = _write_config(tmp_path, "c.json", {"cases": 1, "samples": 320, "dim": 100000})
    assert cli.main(["run", "partition", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == "besovgamma: dim: must be at most 256\n"
    assert captured.out == ""


@pytest.mark.parametrize("experiment, payload, message", [
    ("dilation", {"s": 10 ** 400}, "s: must fit in a float"),
    ("step-identities", {"ps": [1.5, 10 ** 400]}, "ps: entries must fit in a float"),
])
def test_cli_refuses_integers_beyond_float_range(tmp_path, capsys, experiment, payload,
                                                 message):
    cfg = _write_config(tmp_path, "c.json", payload)
    assert str(10 ** 400) in Path(cfg).read_text(encoding="utf-8")
    assert cli.main(["run", experiment, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"besovgamma: {message}\n"
    assert captured.out == ""
