"""Command-line front end for the experiment harness.

Exit status: 0 when every asserted row passed, 1 when an assertion failed,
2 for usage problems: an unknown experiment, a malformed config, a bad flag,
a key or override the experiment does not take (`--seed` on an unseeded
one), or a value the experiment's parameter table or the library rejects.
The CSV report goes to stdout unless --out is given, and nothing else
does; summaries, failed rows and the verdict go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import EXPERIMENTS, UsageError, render_csv, run, write_report_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovgamma",
        description="run reproducible norm-comparison experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment and emit a CSV report")
    runp.add_argument("experiment", help="experiment id (see `besovgamma list`)")
    runp.add_argument("--config", help="JSON file with experiment parameters")
    runp.add_argument("--out", help="write the CSV report to this path")
    runp.add_argument("--seed", type=int, help="override the root seed")
    runp.add_argument("--samples", type=int, help="override the MC sample count")
    runp.add_argument("--grid", type=int, help="override the spatial grid size")

    sub.add_parser("list", help="list experiment ids with one-line descriptions")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read {path!r} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: {path!r} is not valid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise UsageError("config: top-level JSON value must be an object")
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    for key, value in (("seed", args.seed), ("samples", args.samples), ("grid_n", args.grid)):
        if value is not None:
            config[key] = value
    report = run(args.experiment, config)
    if args.out:
        write_report_csv(report, args.out)
    else:
        sys.stdout.write(render_csv(report))
    failures = [r for r in report.rows if not r.passed]
    for key in sorted(report.summary):
        print(f"{report.experiment}: {key} = {report.summary[key]:.6g}", file=sys.stderr)
    for row in failures:
        print(f"{report.experiment}: FAIL {row.case} "
              f"lhs={row.lhs:.6g} rhs={row.rhs:.6g} margin={row.margin:.3g} "
              f"tolerance={row.tolerance:.3g}", file=sys.stderr)
    verdict = "PASS" if report.passed else "FAIL"
    asserted = sum(1 for r in report.rows if r.asserted)
    print(f"{report.experiment}: {verdict} "
          f"({len(report.rows)} rows, {asserted} asserted, {len(failures)} failed)",
          file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key in sorted(EXPERIMENTS):
        print(f"{key.ljust(width)}  {EXPERIMENTS[key].description}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except UsageError as exc:
        print(f"besovgamma: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
