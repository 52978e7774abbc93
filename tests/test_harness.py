import json
import math

import numpy as np
import pytest

from besovgamma import cli
from besovgamma.functions import lp_norm
from besovgamma.harness import (CSV_COLUMNS, EXPERIMENTS, UsageError,
                                render_csv, run, write_report_csv)
from besovgamma.montecarlo import gaussian_array
from besovgamma.spaces import LpSpace
from besovgamma.constructions import make_step

SMALL_PARTITION = {"cases": 2, "samples": 640}
SMALL_STEPS = {"ps": [2.0], "ns": [4], "samples": 640}


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
])
def test_cli_rejects_bad_list_parameters(tmp_path, capsys, experiment, payload, field_name):
    # a non-integer size, a string for a list, an item below its minimum,
    # too few sizes for a slope fit
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
        for tail in ("lower_bound", "rademacher_ratio", "restarts_run", "budget_exhausted"))
    sweep = report.rows[2:]
    assert sweep[0].rhs == 0.0 and sweep[1].rhs == sweep[0].lhs


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
