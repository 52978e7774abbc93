"""Benchmark command for besovgamma.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from the root of a source checkout; the package is imported from its
`src/` directory, and the command refuses to run without one.

One run measures one workload.  With --trace 0 it first starts the
workload's process SETUP_PROBES times, each time only up to the point where
the first timed job could begin, then once more for the timed jobs.  Right
before each of those nine starts it times the start-up reference of
speed.py; setup_s is the median of the nine set-up / reference ratios,
scaled to seconds at nominal machine speed.  The timed process runs jobs
one at a time for --seconds (default: run_seconds of BENCHMARK.json),
single-threaded, then checks every job's outputs.  job_p50_s and jobs_per_s count only the jobs
that completed and passed their checks; correct is false when any job
raised or failed a check.  Job times are corrected for the machine's speed
at the moment they were taken, by the reference timed next to each job
(see speed.py); the raw wall times are reported beside them on standard
error and in the run record, with the raw set-up times.
With --trace 1 one process runs the same jobs with spans recorded around
the package's layers (see tracing.py) and reports the per-layer metrics
instead; its end-to-end figures are not reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details of the run (every job
time, the set-up samples, thread settings, versions) go to standard error
and to .bench_out/runs/.  --smoke runs one job of every workload with its
checks and exits non-zero if any fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from speed import NOMINAL_S, STARTUP_CODE  # noqa: E402

WORKLOAD_NAMES = ("difference-route", "sampling-route", "frequency-route", "constant-search")
SETUP_PROBES = 8
# Jobs run single-threaded: one BLAS/OpenMP thread, never a library default.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every run must end within this many seconds of its start.
DEADLINE_S = 170.0


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run `python args` to completion; returns (spawn time, its last
    standard output line as JSON)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"python {' '.join(args)} did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"python {' '.join(args)} exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def start_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    return spawn([str(BENCH / "worker.py"), *args], deadline)


def startup_reference(deadline: float) -> float:
    """Spawn-to-ready time of a fresh interpreter importing NumPy."""
    spawned, out = spawn(["-c", STARTUP_CODE], deadline)
    return out["ready"] - spawned


def tail_percentile(times: list[float]):
    """The highest whole percentile with at least ten jobs beyond it, or
    None below forty jobs, where such a percentile would be no tail."""
    n = len(times)
    if n < 40:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_file = OUT / "traces" / f"{workload}-seed{seed}.npz"
        _, result = start_worker(common + ["--seconds", str(seconds), "--trace", str(trace_file)],
                                 deadline)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        return result
    setups, startups = [], []
    for _ in range(SETUP_PROBES):
        startups.append(startup_reference(deadline))
        spawned, probe = start_worker(common + ["--setup-only"], deadline)
        setups.append(probe["ready"] - spawned)
    startups.append(startup_reference(deadline))
    spawned, result = start_worker(common + ["--seconds", str(seconds)], deadline)
    setups.append(result["ready"] - spawned)
    result["setup_samples_s"], result["startup_ref_s"] = setups, startups
    return result


def load_config() -> dict:
    """BENCHMARK.json at the checkout's root: run length, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(config: dict, kind: str) -> dict:
    """{metric name: unit} of one metric list of BENCHMARK.json, in its order."""
    return {m["name"]: m["unit"] for m in config[kind]}


def passed_jobs(result: dict) -> list[int]:
    """Indices of the jobs that completed and passed their checks."""
    bad = set(result["failed_jobs"])
    return [i for i in range(result["attempted"]) if i not in bad]


def corrected(times: list[float], refs: list[float], reference: str) -> list[float]:
    """Each time divided by the machine-speed factor measured beside it."""
    return [t * NOMINAL_S[reference] / r for t, r in zip(times, refs)]


def end_to_end(result: dict, raw: bool = False) -> dict:
    times = result["job_s"]
    if not raw:
        times = corrected(times, result["ref_s"], result["reference"])
    good = [times[i] for i in passed_jobs(result)]
    if not good:
        raise RunError("no job completed and passed its checks")
    setups = result["setup_samples_s"]
    if not raw:
        setups = [NOMINAL_S["startup"] * s / r for s, r in zip(setups, result["startup_ref_s"])]
    return {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(good),
        "jobs_per_s": len(good) / sum(good),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, seed: int, trace: bool, result: dict, config: dict) -> dict:
    for failure in result["check_failures"]:
        print(f"check failed: {json.dumps(failure)}", file=sys.stderr)
    for error in result["errors"]:
        print(f"job raised:\n{error}", file=sys.stderr)
    times = corrected(result["job_s"], result["ref_s"], result["reference"])
    if trace:
        values, metric_units = result["per_layer"], units(config, "per_layer")
    else:
        values, metric_units = end_to_end(result), units(config, "end_to_end")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in metric_units.items()},
    }
    tail = tail_percentile(times)
    speed = statistics.median(r / NOMINAL_S[result["reference"]] for r in result["ref_s"])
    record = dict(result, workload=workload, seed=seed, trace=trace, summary=summary,
                  raw=None if trace else end_to_end(result, raw=True),
                  corrected_jobs_per_s=len(times) / sum(times),
                  tail_percentile=tail, median_speed_factor=speed)
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    path = OUT / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail (fewer than 40 jobs)"
    raw = ", ".join(f"{k}={v:.4g}" for k, v in (record["raw"] or {}).items())
    print(f"{workload} seed={seed} trace={int(trace)}: {len(times)} jobs, "
          f"median {statistics.median(times):.4f} s, {tail_text}; "
          f"machine-speed factor {speed:.3f}; raw wall times: {raw or '-'}; "
          f"failed {result['failed']}, check failures {result['checks_failed']}; "
          f"env {json.dumps(result['env'])}; record {path.relative_to(ROOT)}",
          file=sys.stderr)
    return summary


def smoke() -> int:
    ok = True
    for workload in WORKLOAD_NAMES:
        start = time.monotonic()
        _, result = start_worker(["--workload", workload, "--seed", "1", "--max-jobs", "1"],
                                 time.monotonic() + DEADLINE_S)
        passed = result["failed"] == 0
        ok = ok and passed
        print(f"{workload}: {'ok' if passed else 'FAILED'} "
              f"(one job {result['job_s'][0]:.3f} s, {time.monotonic() - start:.1f} s in all)")
        for failure in result["check_failures"]:
            print(f"  check failed: {json.dumps(failure)}")
        for error in result["errors"]:
            print(f"  job raised:\n{error}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one job of every workload, with checks")
    args = ap.parse_args(argv)
    if not (SRC / "besovgamma" / "__init__.py").is_file():
        print(f"run.py: no besovgamma sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    config = load_config()
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        result = measure(args.workload, args.seed, seconds, bool(args.trace))
        summary = report(args.workload, args.seed, bool(args.trace), result, config)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
