"""Spans around the calls into besovgamma's layers, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper at every
place a caller looks it up: the attribute of every loaded `besovgamma`
module that holds the function (so `besov.translate_diff_norm`, imported
from `functions`, is wrapped too), the `LpSpace.norms` class attribute,
and the transforms of `numpy.fft`.  Each wrapper records one span (name,
start, end, parent span, job index) into flat in-memory arrays; nothing is
written until `save()` at the end of the run.  `uninstall()` puts the
original functions back, so the output checks run untraced.

A traced function that a later version of the package no longer has is
skipped: its metrics then report zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "besovgamma"

# Layers named "<module>.<attribute path>" inside the package.
PACKAGE_LAYERS = (
    "besov.besov_norm_difference",
    "besov.modulus_of_continuity",
    "functions.translate_diff_norm",
    "functions.lp_norm",
    "gamma.gamma_norm_mc",
    "gamma.partition_inequality_check",
    "spaces.gaussian_second_moment",
    "spaces.LpSpace.norms",
    "montecarlo.gaussian_array",
    "montecarlo.batch_means",
    "besov.besov_norm_fourier",
    "besov.apply_multiplier",
    "functions.dilate",
    "besov.build_filter_bank",
    "typecotype.estimate_constant",
)

# Every transform besovgamma could reach through `np.fft.<name>`; all are
# recorded under the one span name "numpy.fft".
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
             "irfftn", "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft")
FFT_SPAN = "numpy.fft"

SETUP_JOB = -1


def _draw_size(args, kwargs, result):
    """gaussian_array(shape, seed): the number of values drawn."""
    return float(np.asarray(result).size)


def _gamma_shape(args, kwargs, result):
    """gamma_norm_mc(f, cfg, ...): (samples, target dimension)."""
    f = args[0] if args else kwargs["f"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return (float(cfg.samples), float(f.space.dim))


def _evaluations(args, kwargs, result):
    """estimate_constant(...) -> ConstantEstimate: objective evaluations."""
    return float(result.budget)


NOTES = {
    "montecarlo.gaussian_array": _draw_size,
    "gamma.gamma_norm_mc": _gamma_shape,
    "typecotype.estimate_constant": _evaluations,
}


class Tracer:
    """Records spans from wrappers it installs; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.notes: dict[int, object] = {}
        self.stack: list[int] = []
        self.active = False
        self.current_job = SETUP_JOB
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        note = NOTES.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.job.append(tracer.current_job)
            tracer.end.append(math.nan)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> list[str]:
        """Wrap every traced layer that exists; returns the names skipped."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        missing = []
        for layer in PACKAGE_LAYERS:
            module_name, *path = layer.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[path[-1]]
            except (ImportError, AttributeError, KeyError):
                missing.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._replace(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for attr in FFT_NAMES:
            original = np.fft.__dict__.get(attr)
            if original is not None:
                self._replace(np.fft, attr, self._wrap(FFT_SPAN, original))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "job": np.asarray(self.job, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write the spans as a compressed NumPy archive."""
        data = self.arrays()
        data["names"] = np.asarray(self.names)
        np.savez_compressed(path, **data)

    def per_layer(self, jobs: int) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json from the recorded spans.

        `*_per_job` figures count only spans opened inside timed jobs;
        `s_per_call` figures average every recorded span of that layer, so
        set-up work such as `build_filter_bank` has one too.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        n = duration.size
        child_time = np.zeros(n)
        has_parent = spans["parent"] >= 0
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        in_job = spans["job"] >= 0
        jobs = max(int(jobs), 1)

        def ids(name):
            i = self.name_ids.get(name)
            return spans["name"] == i if i is not None else np.zeros(n, dtype=bool)

        def per_call(name):
            sel = ids(name)
            return float(duration[sel].mean()) if sel.any() else 0.0

        def per_job(values, name):
            return float(values[ids(name) & in_job].sum()) / jobs

        def calls_per_job(name):
            return float((ids(name) & in_job).sum()) / jobs

        def ancestor_of(targets: np.ndarray, name: str) -> np.ndarray:
            """For each span index in `targets`, its nearest ancestor named
            `name`, or -1."""
            want = self.name_ids.get(name)
            out = np.full(targets.size, -1, dtype=np.int64)
            if want is None:
                return out
            parent, names = spans["parent"], spans["name"]
            for k, idx in enumerate(targets):
                up = parent[idx]
                while up >= 0 and names[up] != want:
                    up = parent[up]
                out[k] = up
            return out

        draws = np.flatnonzero(ids("montecarlo.gaussian_array"))
        draw_values = np.array([self.notes.get(int(i), 0.0) for i in draws])
        job_draw_values = float(draw_values[in_job[draws]].sum()) / jobs

        # Gaussian rows per sample inside each gamma_norm_mc call, over the
        # call's target dimension.
        gamma_calls = np.flatnonzero(ids("gamma.gamma_norm_mc"))
        rows_ratio = 0.0
        if gamma_calls.size:
            owner = ancestor_of(draws, "gamma.gamma_norm_mc")
            values_in = {int(g): 0.0 for g in gamma_calls}
            for o, v in zip(owner, draw_values):
                if o >= 0:
                    values_in[int(o)] += v
            ratios = [values_in[int(g)] / samples / dim for g in gamma_calls
                      for samples, dim in [self.notes.get(int(g), (math.inf, 1.0))]]
            rows_ratio = float(np.mean(ratios))

        fourier = ids("besov.besov_norm_fourier")
        fft_per_norm = 0.0
        if fourier.any():
            ffts = np.flatnonzero(ids(FFT_SPAN))
            inside = ancestor_of(ffts, "besov.besov_norm_fourier") >= 0
            fft_per_norm = float(inside.sum()) / float(fourier.sum())

        searches = np.flatnonzero(ids("typecotype.estimate_constant"))
        evals_per_s = 0.0
        if searches.size:
            evals = sum(self.notes.get(int(i), 0.0) for i in searches)
            evals_per_s = evals / float(duration[searches].sum())

        return {
            "besov.besov_norm_difference.s_per_call": per_call("besov.besov_norm_difference"),
            "besov.modulus_of_continuity.calls_per_job": calls_per_job("besov.modulus_of_continuity"),
            "besov.modulus_of_continuity.self_s_per_job": per_job(self_time, "besov.modulus_of_continuity"),
            "functions.translate_diff_norm.calls_per_job": calls_per_job("functions.translate_diff_norm"),
            "functions.translate_diff_norm.s_per_job": per_job(duration, "functions.translate_diff_norm"),
            "functions.lp_norm.s_per_call": per_call("functions.lp_norm"),
            "gamma.gamma_norm_mc.s_per_call": per_call("gamma.gamma_norm_mc"),
            "gamma.draw_rows_per_target_dim": rows_ratio,
            "gamma.partition_inequality_check.s_per_call": per_call("gamma.partition_inequality_check"),
            "spaces.gaussian_second_moment.s_per_call": per_call("spaces.gaussian_second_moment"),
            "spaces.LpSpace.norms.s_per_job": per_job(duration, "spaces.LpSpace.norms"),
            "spaces.LpSpace.norms.calls_per_job": calls_per_job("spaces.LpSpace.norms"),
            "montecarlo.gaussian_array.s_per_job": per_job(duration, "montecarlo.gaussian_array"),
            "montecarlo.gaussian_values_per_job": job_draw_values,
            "montecarlo.draw_mib_per_job": job_draw_values * 8.0 / 2.0 ** 20,
            "montecarlo.batch_means.s_per_job": per_job(duration, "montecarlo.batch_means"),
            "besov.besov_norm_fourier.s_per_call": per_call("besov.besov_norm_fourier"),
            "besov.fft_calls_per_norm": fft_per_norm,
            "besov.apply_multiplier.s_per_job": per_job(duration, "besov.apply_multiplier"),
            "functions.dilate.s_per_call": per_call("functions.dilate"),
            "besov.build_filter_bank.s_per_call": per_call("besov.build_filter_bank"),
            "typecotype.estimate_constant.s_per_call": per_call("typecotype.estimate_constant"),
            "typecotype.objective_evals_per_s": evals_per_s,
        }
