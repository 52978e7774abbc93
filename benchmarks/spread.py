"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 benchmarks/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                 [--seconds S] [--trace 0|1]

Each run is one `run.py` invocation with its own seed (first-seed,
first-seed + 1, ...).  For every workload and metric this prints the
median, the first and third quartiles (statistics.quantiles, n=4), and
their distance as a share of the median, next to the bound that
BENCHMARK.json fixes for the metric, plus the share of failed jobs.  The
bounds are set from these spreads.  All run summaries are kept in
.bench_out/spread-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import WORKLOAD_NAMES  # noqa: E402


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(dict(summary, seed=seed))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in summary["metrics"].items()),
                file=sys.stderr, flush=True)

    table = {}
    for workload, summaries in runs.items():
        failed = sum(s["failed"] for s in summaries)
        attempted = sum(s["attempted"] for s in summaries)
        print(f"\n{workload}: {len(summaries)} runs, {attempted} jobs, {failed} failed, "
              f"all correct: {all(s['correct'] for s in summaries)}")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name in summaries[0]["metrics"]:
            values = [s["metrics"][name]["value"] for s in summaries]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            table.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": share, "values": values}
            print(f"  {name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
                  f"{bound if bound is not None else '':>6}")
    out = ROOT / ".bench_out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": runs, "table": table}, indent=1) + "\n")
    print(f"\nsaved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
