"""One workload in one fresh process: set-up, warm-up, timed jobs, checks.

Started by run.py, never by hand.  The parent sets the thread counts and
PYTHONPATH in the environment before this process imports NumPy.  The
worker prints one JSON line: the monotonic clock at the moment the first
timed job may begin (the parent subtracts its spawn time to get set-up
time), and, unless --setup-only, the job times, failures and output checks.
The loop is closed and single-threaded: one job at a time, each job's
inputs built before its timer starts, new jobs started until --seconds
have passed since the first one began.  Around every job the worker
times a machine-speed reference (speed.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-jobs", type=int, default=0, help="stop after this many jobs (0: no limit)")
    ap.add_argument("--trace", default="", help="write spans to this .npz file and report per-layer metrics")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from speed import References
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"tracing: not in this version of the package: {', '.join(missing)}",
                  file=sys.stderr)
        tracer.active = True
    workload.setup()
    if tracer:
        tracer.active = False
    workload.warm_up()
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    refs = References()

    job_times, ref_times, kept, errors, failed_jobs = [], [], [], [], []
    ref_before = refs.time(workload.reference)
    loop_start = time.perf_counter()
    job = 0
    while True:
        inp = workload.inputs(args.seed, job)
        if tracer:
            tracer.current_job, tracer.active = job, True
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:  # a failed job is counted, and the loop goes on
            out = None
            errors.append(traceback.format_exc(limit=3))
            failed_jobs.append(job)
        t1 = time.perf_counter()
        if tracer:
            tracer.active = False
        ref_after = refs.time(workload.reference)
        job_times.append(t1 - t0)
        ref_times.append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
        kept.append((job, out))
        job += 1
        if args.max_jobs and job >= args.max_jobs:
            break
        if not args.max_jobs and t1 - loop_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if tracer:
        tracer.uninstall()
        per_layer = tracer.per_layer(len(job_times))
        tracer.save(args.trace)

    check_failures = []
    for job, out in kept:
        if out is None:
            continue
        # Inputs are a function of (seed, job), so they are rebuilt here
        # rather than kept, which would tie peak memory to the job count.
        problems = workload.check(args.seed, job, workload.inputs(args.seed, job), out)
        if problems:
            failed_jobs.append(job)
            check_failures.append({"job": job, "problems": problems})

    print(json.dumps({
        "ready": ready,
        "reference": workload.reference,
        "job_s": job_times,
        "ref_s": ref_times,
        "attempted": len(job_times),
        "failed": len(failed_jobs),
        "failed_jobs": sorted(failed_jobs),
        "errors": errors[:3],
        "check_failures": check_failures[:3],
        "checks_failed": len(check_failures),
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
