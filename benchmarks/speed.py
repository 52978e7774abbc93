"""Machine-speed references: fixed computations that never call besovgamma.

On a shared machine the speed of one core drifts by half or more over tens
of seconds, with the load of other tenants, and a job's wall time drifts
with it.  A reference with the same mix of operations as a workload's jobs
drifts by about the same factor, so the worker times one right before and
right after every job, and run.py divides each job time by the
machine-speed factor

    factor = mean of the two reference times / NOMINAL_S[reference].

The reported job times are then in seconds of a machine running at
nominal speed.  A change to the program leaves the references alone (they
use only NumPy and the standard library), so it moves the corrected times
as it moves the raw ones; run.py also reports the raw figures on standard
error.

Set-up time is mostly process start and imports, which none of the
in-process references tracks: dividing it by the `python` factor widened
its run-to-run spread.  Its reference is STARTUP_CODE, a fresh interpreter
that imports NumPy and nothing of besovgamma, timed from spawn to ready
right before each set-up probe.  run.py takes the median over a run of
set-up time / start-up reference time, times NOMINAL_S["startup"].

NOMINAL_S holds the median time of each reference on the shared 2-vCPU
Intel Xeon (2.0 GHz) machine where the benchmark's bounds were set.  They
are scale constants only: changing them rescales every reported job time.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"python": 0.08, "sampling": 0.04, "fft": 0.012, "small-matmul": 0.12,
             "startup": 0.15}

# Run with `python -c`; prints the monotonic clock once NumPy is imported.
STARTUP_CODE = "import json, time, numpy; print(json.dumps({'ready': time.monotonic()}))"


class StepFunction:
    """A step function in l^p, written apart from besovgamma: value
    values[k] on (breakpoints[k-1], breakpoints[k]], zero outside.  Its
    evaluation pattern is that of a piecewise source, many small NumPy
    calls behind Python methods and properties; the difference-route check
    also uses its shift norms as an independent reference."""

    def __init__(self, breakpoints, values, p):
        self.breakpoints, self.values, self.p = breakpoints, values, p

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norms(self, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.shape[-1] != self.dim:
            raise ValueError("dimension mismatch")
        return np.power(np.abs(arr), self.p).sum(axis=-1) ** (1.0 / self.p)

    def evaluate(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        b = self.breakpoints
        idx = np.searchsorted(b, t, side="left")
        out = np.zeros((t.size, self.dim))
        inside = (idx >= 1) & (idx <= b.size - 1)
        out[inside] = self.values[idx[inside]]
        out[t == b[0]] = self.values[0]
        return out

    def shift_norm(self, h):
        """||f(. + h) - f||_p, exact: f is constant between the merged
        breakpoints of f and f(. + h)."""
        b = self.breakpoints
        pts = np.unique(np.concatenate([b, b - h, [min(b[0], b[0] - h), max(b[-1], b[-1] - h)]]))
        mids = 0.5 * (pts[1:] + pts[:-1])
        diff = self.evaluate(mids + h) - self.evaluate(mids)
        return float(np.diff(pts) @ self.norms(diff) ** self.p) ** (1.0 / self.p)


class References:
    """The fixed inputs of every reference, built once per process."""

    def __init__(self):
        rng = np.random.default_rng(20061031)
        values = np.zeros((17, 8))
        values[1::2] = rng.standard_normal((8, 8))
        self.step = StepFunction(np.arange(17) / 16.0, values, 4.0 / 3.0)
        self.coefficients = rng.standard_normal((32, 16))
        self.signal = rng.standard_normal((32768, 1))
        self.multiplier = np.exp(-50.0 * np.abs(np.fft.fftfreq(32768)))[:, None]
        self.tuple = rng.standard_normal((8, 8))
        self.draws = rng.standard_normal((2048, 8))

    def python(self):
        """Shift-difference sweeps: interpreter-bound, small arrays."""
        b = self.step.breakpoints
        diffs = (b[None, :] - b[:, None]).ravel()
        total = 0.0
        for t in np.geomspace(1e-3, 0.9, 24):
            shifts = np.unique(np.concatenate([t * np.arange(1, 41) / 40.0,
                                               diffs[(diffs > 0) & (diffs <= t)]]))
            total += max(self.step.shift_norm(h) for h in shifts)
        return total

    def sampling(self):
        """Philox uniforms, Box-Muller, a tall product and l^p row norms:
        one gamma-norm estimate of a 16-block step into l^{4/3}_16."""
        gen = np.random.Generator(np.random.Philox(key=7))
        u = gen.random(20000 * 32).reshape(2, -1)
        radius = np.sqrt(-2.0 * np.log1p(-u[0]))
        angle = 2.0 * np.pi * u[1]
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)]).reshape(20000, 32)
        return float(((np.abs(z @ self.coefficients) ** (4.0 / 3.0)).sum(axis=1) ** 1.5).mean())

    def fft(self):
        """Forward and inverse transforms of a 32,768-point column."""
        total = 0.0
        for _ in range(4):
            spec = np.fft.fftn(self.signal, axes=(0,)) * self.multiplier
            total += float((np.abs(np.fft.ifftn(spec, axes=(0,)).real) ** (4.0 / 3.0)).sum())
        return total

    def small_matmul(self):
        """Many objective-sized evaluations: 2048 x 8 products and max norms."""
        x = self.tuple.copy()
        total = 0.0
        for i in range(500):
            x[i % 8, (3 * i) % 8] += 1e-3
            moment = float(np.mean(np.abs(self.draws @ x).max(axis=1) ** 2))
            total += moment ** 0.5 / float(np.abs(x).sum(axis=1).max())
        return total

    def time(self, name: str) -> float:
        """Wall time of one run of the named reference."""
        fn = getattr(self, name.replace("-", "_"))
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
