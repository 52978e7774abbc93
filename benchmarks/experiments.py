"""Time each of the nine experiments once, in-process, at its default config.

    python3 benchmarks/experiments.py

Runs the experiments in one child process with the benchmark's thread
settings and prints one line per experiment: wall time, whether its report
passed, and whether it meets the 2 s per-experiment target.  The same
figures, with versions, go to .bench_out/experiments.json.  These are
single reference figures for the README, not benchmark metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

TARGET_S = 2.0


def child() -> int:
    import numpy as np

    from besovgamma import harness

    rows = []
    for name in harness.EXPERIMENTS:
        t0 = time.perf_counter()
        report = harness.run(name)
        elapsed = time.perf_counter() - t0
        rows.append({"experiment": name, "seconds": elapsed, "passed": report.passed})
        print(f"{name:18s} {elapsed:8.2f} s  passed={report.passed}  "
              f"{'within' if elapsed <= TARGET_S else 'over'} the {TARGET_S:g} s target",
              flush=True)
    out = Path(__file__).resolve().parent.parent / ".bench_out" / "experiments.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"nproc": os.cpu_count(), "python": sys.version.split()[0],
                               "numpy": np.__version__, "rows": rows}, indent=1) + "\n")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        return child()
    from run import ROOT, child_env
    return subprocess.run([sys.executable, __file__, "--child"], cwd=ROOT,
                          env=child_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
