"""The four benchmark workloads: one job shape each, fresh inputs per job.

A workload has fixed inputs built once at set-up, a small warm-up, a
recipe for the inputs of job i (drawn from the benchmark's own NumPy
generator keyed by the run seed, the workload and i), the job itself, and
a check of the job's outputs against computations made apart from the
program or against properties the method must have.

Jobs reach the program only through public names of the `besovgamma`
package, looked up on the package at call time so that traced runs see
them, and never pass the tuning knobs (`h_grid`, `quad`, `basis`, `size`)
that planned changes remove.

Monte Carlo checks allow six combined standard errors, so a correct program
fails a job with probability far below 1e-6; every draw is seeded, so each
outcome repeats exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import besovgamma as bg
from speed import StepFunction

MC_SIGMAS = 6.0


def input_rng(seed: int, workload_index: int, job: int, stream: int = 0):
    """The benchmark's own generator for one job; stream 1 feeds the checks."""
    return np.random.default_rng([int(seed), workload_index, job + 1, stream])


def lp_rows(vectors: np.ndarray, p: float) -> np.ndarray:
    """l^p norms of the rows, computed apart from `LpSpace.norms`."""
    if math.isinf(p):
        return np.max(np.abs(vectors), axis=-1)
    return np.sum(np.abs(vectors) ** p, axis=-1) ** (1.0 / p)


def unit_rows(rng, count: int, dim: int, p: float) -> np.ndarray:
    vectors = rng.standard_normal((count, dim))
    return vectors / lp_rows(vectors, p)[:, None]


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


class Workload:
    name = ""
    index = 0
    reference = "python"  # the speed.References run that shares the jobs' mix

    def setup(self) -> None:
        """Build the fixed inputs every job shares."""

    def warm_up(self) -> None:
        """Touch each code path once on a small input, outside the timing."""

    def inputs(self, seed: int, job: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, seed: int, job: int, inp, out) -> list[str]:
        """Problems with one job's outputs; empty when they are right."""
        raise NotImplementedError


class DifferenceRoute(Workload):
    """besov_norm_difference of an 8-block alternating step in l^{4/3}_8,
    at s = 1/p - 1/2 and q = 1, plus its L^p norm (step-identities, A03)."""

    name, index = "difference-route", 0
    BLOCKS, DIM, P, Q = 8, 8, 4.0 / 3.0, 1.0
    S = 1.0 / P - 0.5
    # The package integrates the modulus by quadrature in t; the reference
    # below is exact to about 1e-12, and they agreed to 1e-5 at this commit.
    REFERENCE_TOLERANCE = 1e-2

    def warm_up(self):
        # A difference norm costs about as much on one block as on eight, so
        # warming it up would double set-up time; its kernels need no warming.
        f = bg.make_step(1, np.ones((1, 1)), bg.LpSpace(self.P, 1))
        bg.lp_norm(f, self.P)

    def inputs(self, seed, job):
        vectors = unit_rows(input_rng(seed, self.index, job), self.BLOCKS, self.DIM, self.P)
        return vectors, bg.make_step(self.BLOCKS, vectors, bg.LpSpace(self.P, self.DIM))

    def run(self, inp):
        _, f = inp
        return bg.lp_norm(f, self.P), bg.besov_norm_difference(f, self.S, self.P, self.Q)

    def seminorm_reference(self, vectors: np.ndarray) -> float:
        """(int_0^1 (t^{-s} w(t))^q dt/t)^{1/q} with w(t) = sup_{0<h<=t}
        ||f(.+h) - f||_p, computed apart from the package.

        rho(h) = ||f(.+h) - f||_p^p is piecewise linear in h with kinks at
        the breakpoint differences, so w(t)^p is the larger of rho(t) and
        the largest rho at a kink below t.  Below the smallest kink g,
        rho(h) = A^p h exactly; that part integrates in closed form.  Above
        it, each piece between kinks (split where rho overtakes the running
        maximum) is smooth and gets 20-point Gauss-Legendre in log t.
        """
        n, dim = vectors.shape
        p, q, s = self.P, self.Q, self.S
        b = np.arange(2 * n + 1) / (2 * n)
        values = np.zeros((2 * n + 1, dim))
        values[1::2] = vectors
        step = StepFunction(b, values, p)
        diffs = (b[None, :] - b[:, None]).ravel()
        kinks = np.unique(np.concatenate([diffs[(diffs > 0) & (diffs < 1)], [1.0]]))
        rho = [step.shift_norm(h) ** p for h in kinks]
        e = (1.0 / p - s) * q
        g = kinks[0]
        total = (rho[0] / g) ** (q / p) * g ** e / e
        nodes, weights = np.polynomial.legendre.leggauss(20)

        def piece(lo, hi, rho_lo, slope):
            """The integral over [lo, hi] of t^{-sq-1} (rho_lo + slope (t - lo))^{q/p}."""
            a, c = math.log(lo), math.log(hi)
            t = np.exp(0.5 * (c - a) * nodes + 0.5 * (c + a))
            return 0.5 * (c - a) * float(weights @ (t ** (-s * q) * (rho_lo + slope * (t - lo)) ** (q / p)))

        best = rho[0]
        for lo, hi, r0, r1 in zip(kinks[:-1], kinks[1:], rho[:-1], rho[1:]):
            slope = (r1 - r0) / (hi - lo)
            if r1 <= best:
                total += piece(lo, hi, best, 0.0)
            elif r0 >= best:
                total += piece(lo, hi, r0, slope)
            else:
                cross = lo + (best - r0) / slope
                total += piece(lo, cross, best, 0.0) + piece(cross, hi, best, slope)
            best = max(best, r1)
        return float(total) ** (1.0 / q)

    def check(self, seed, job, inp, out):
        vectors, _ = inp
        lp, besov = out
        n, p, q, s = self.BLOCKS, self.P, self.Q, self.S
        norms = lp_rows(vectors, p)
        closed = (2 * n) ** (-1.0 / p) * float((norms ** p).sum()) ** (1.0 / p)
        problems = []
        if not close(lp, closed, 1e-12):
            problems.append(f"lp_norm {lp!r} != closed form {closed!r}")
        reference = closed + self.seminorm_reference(vectors)
        if not close(besov, reference, self.REFERENCE_TOLERANCE):
            problems.append(f"besov_norm_difference {besov!r} != reference {reference!r}")
        # Below the smallest breakpoint gap g the modulus is exactly
        # A t^{1/p}, A^p = sum ||jump||^p = 2 sum ||x_k||^p; above it,
        # ||f(.+h) - f||_p^p <= J h (2 max ||x_k||)^p with J = 2n jumps.
        e = (1.0 / p - s) * q
        amp = (2.0 * float((norms ** p).sum())) ** (1.0 / p)
        gap = 1.0 / (2 * n)
        lower = closed + (amp ** q * gap ** e / e) ** (1.0 / q)
        upper = closed + 2.0 * float(norms.max()) * (2 * n) ** (1.0 / p) * e ** (-1.0 / q)
        if not lower * (1 - 1e-12) <= besov <= upper * (1 + 1e-12):
            problems.append(f"besov_norm_difference {besov!r} outside [{lower!r}, {upper!r}]")
        return problems


class SamplingRoute(Workload):
    """The Monte Carlo rows of the experiments at 20,000 samples: the
    gamma-norm and Gaussian second moment of a 16-block step into
    l^{4/3}_16 (step-identities, embedding-type), and a type-1, constant-1
    partition check of a 4-block step into l^1_4 cut into 4 parts
    (partition)."""

    name, index, reference = "sampling-route", 1, "sampling"
    BLOCKS, P, SAMPLES = 16, 4.0 / 3.0, 20000
    PART_BLOCKS, PART_DIM, PART_P, PARTS = 4, 4, 1.0, 4

    def warm_up(self):
        space = bg.LpSpace(self.P, 2)
        vectors = np.eye(2)
        f = bg.make_step(2, vectors, space)
        cfg = bg.MCConfig(320, 1)
        bg.gamma_norm_mc(f, cfg)
        bg.gaussian_second_moment(space, vectors, cfg)
        g = bg.make_step(2, vectors, bg.LpSpace(self.PART_P, 2))
        bg.partition_inequality_check(g, [(0.0, 0.5), (0.5, 1.0)], "type", 1.0, 1.0, cfg)

    def inputs(self, seed, job):
        rng = input_rng(seed, self.index, job)
        vectors = unit_rows(rng, self.BLOCKS, self.BLOCKS, self.P)
        f = bg.make_step(self.BLOCKS, vectors, bg.LpSpace(self.P, self.BLOCKS))
        g = bg.make_step(self.PART_BLOCKS, rng.standard_normal((self.PART_BLOCKS, self.PART_DIM)),
                         bg.LpSpace(self.PART_P, self.PART_DIM))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=self.PARTS - 1))
        edges = np.concatenate([[0.0], cuts, [1.0]])
        partition = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
        seeds = [int(x) for x in rng.integers(0, 2 ** 63, size=3)]
        return vectors, f, g, partition, seeds

    def run(self, inp):
        vectors, f, g, partition, seeds = inp
        gamma = bg.gamma_norm_mc(f, bg.MCConfig(self.SAMPLES, seeds[0]))
        moment = bg.gaussian_second_moment(f.space, vectors, bg.MCConfig(self.SAMPLES, seeds[1]))
        part = bg.partition_inequality_check(g, partition, "type", 1.0, 1.0,
                                             bg.MCConfig(self.SAMPLES, seeds[2]))
        return gamma, moment, part

    def check(self, seed, job, inp, out):
        vectors = inp[0]
        gamma, moment, part = out
        n = self.BLOCKS
        # E ||sum_k gamma_k x_k||^2 from NumPy's own normal sampler.
        rng = input_rng(seed, self.index, job, stream=1)
        sq = lp_rows(rng.standard_normal((self.SAMPLES, n)) @ vectors, self.P) ** 2
        ref = float(sq.mean())
        ref_se = float(sq.std(ddof=1)) / math.sqrt(sq.size)
        scale = (2 * n) ** -0.5
        gamma_ref = scale * math.sqrt(ref)
        gamma_ref_se = scale * ref_se / (2.0 * math.sqrt(ref))
        problems = []
        if abs(gamma.mean - gamma_ref) > MC_SIGMAS * (gamma.std_error + gamma_ref_se):
            problems.append(f"gamma_norm_mc {gamma.mean!r} +- {gamma.std_error!r} vs "
                            f"reference {gamma_ref!r} +- {gamma_ref_se!r}")
        if abs(moment.mean - ref) > MC_SIGMAS * (moment.std_error + ref_se):
            problems.append(f"gaussian_second_moment {moment.mean!r} +- {moment.std_error!r} "
                            f"vs reference {ref!r} +- {ref_se!r}")
        if not part.margin >= -MC_SIGMAS * part.std_error_budget:
            problems.append(f"partition margin {part.margin!r} below -{MC_SIGMAS:g} x "
                            f"budget {part.std_error_budget!r}")
        return problems


class FrequencyRoute(Workload):
    """besov_norm_fourier of a single-band bump and of its dilates by 2, 4,
    8 and 16 on the `dilation` defaults (period 64, 32,768 points, 10
    levels, k0 = 5, s = 1/2, p = q = 4/3), plus one p = q = 2 norm."""

    name, index, reference = "frequency-route", 2, "fft"
    PERIOD, POINTS, LEVELS, K0 = 64.0, 32768, 10, 5
    S, P = 0.5, 4.0 / 3.0
    LAMBDAS = (2.0, 4.0, 8.0, 16.0)
    DILATION_TOLERANCE = 0.2  # what the `dilation` experiment asserts

    def setup(self):
        self.bank = bg.build_filter_bank(self.PERIOD, self.POINTS, 1, self.LEVELS)

    def warm_up(self):
        f = bg.make_single_band(self.K0, self.bank, width=0.35)
        bg.besov_norm_fourier(bg.dilate(f, 2.0), self.S, self.P, self.P, self.bank)

    def inputs(self, seed, job):
        rng = input_rng(seed, self.index, job)
        width = float(rng.uniform(0.3, 0.4))
        amplitude = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        return bg.make_single_band(self.K0, self.bank, width=width,
                                   vector=np.array([amplitude]))

    def run(self, f):
        bank, s, p = self.bank, self.S, self.P
        hilbert = bg.besov_norm_fourier(f, s, 2.0, 2.0, bank)
        base = bg.besov_norm_fourier(f, s, p, p, bank)
        dilated = [bg.besov_norm_fourier(bg.dilate(f, lam), s, p, p, bank)
                   for lam in self.LAMBDAS]
        return hilbert, base, dilated

    @functools.cached_property
    def multipliers(self):
        """The quintic-smoothstep level multipliers, written out here."""
        xi = np.abs(2.0 * math.pi * np.fft.fftfreq(self.POINTS, d=self.PERIOD / self.POINTS))

        def cutoff(r):
            u = np.clip(r - 1.0, 0.0, 1.0)
            return 1.0 - (10.0 * u ** 3 - 15.0 * u ** 4 + 6.0 * u ** 5)

        levels = [cutoff(xi)]
        levels += [cutoff(xi / 2.0 ** k) - cutoff(xi / 2.0 ** (k - 1))
                   for k in range(1, self.LEVELS + 1)]
        return np.array(levels)

    def check(self, seed, job, f, out):
        hilbert, base, dilated = out
        problems = []
        # p = q = 2: each block's L^2 norm is a Parseval sum over the spectrum.
        dx = self.PERIOD / self.POINTS
        power = np.abs(np.fft.fft(f.values[:, 0])) ** 2
        blocks = np.sqrt(dx / self.POINTS * (self.multipliers ** 2 @ power))
        weights = 2.0 ** (self.S * np.arange(self.LEVELS + 1))
        parseval = float(np.sqrt(((weights * blocks) ** 2).sum()))
        if not close(hilbert, parseval, 1e-9):
            problems.append(f"p=q=2 norm {hilbert!r} != Parseval sum {parseval!r}")
        ratios = [val / (lam ** (self.S - 1.0 / self.P) * base)
                  for lam, val in zip(self.LAMBDAS, dilated)]
        gmean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        spread = max(abs(r / gmean - 1.0) for r in ratios)
        if not spread <= self.DILATION_TOLERANCE:
            problems.append(f"dilation ratios {ratios!r} spread {spread:.4f} around {gmean:.4f}")
        return problems


class ConstantSearch(Workload):
    """One type-2 search in l^inf_8 and one cotype-2 search in l^1_8 at the
    type-constant / cotype-constant defaults (budget 4000, 2048 samples,
    12 restarts, 8 vectors), each with a fresh seed."""

    name, index, reference = "constant-search", 3, "small-matmul"
    DIM, VECTORS, BUDGET, SAMPLES, RESTARTS = 8, 8, 4000, 2048, 12

    def _spaces(self):
        return bg.LpSpace("inf", self.DIM), bg.LpSpace(1, self.DIM)

    def _bounds(self):
        # Gaussian second-moment constants: type 2 of l^inf_d is at most
        # sqrt(4 log d + 2 log 2); cotype 2 of l^1_d at most sqrt(pi/2).
        return (math.sqrt(4.0 * math.log(self.DIM) + 2.0 * math.log(2.0)),
                math.sqrt(math.pi / 2.0))

    def warm_up(self):
        linf, l1 = self._spaces()
        bg.estimate_constant(linf, "type", 2.0, 2, budget=20, samples=320, restarts=1)
        bg.estimate_constant(l1, "cotype", 2.0, 2, budget=20, samples=320, restarts=1)

    def inputs(self, seed, job):
        return int(input_rng(seed, self.index, job).integers(0, 2 ** 63))

    def run(self, seed):
        linf, l1 = self._spaces()
        kw = dict(budget=self.BUDGET, seed=seed, samples=self.SAMPLES, restarts=self.RESTARTS)
        return (bg.estimate_constant(linf, "type", 2.0, self.VECTORS, **kw),
                bg.estimate_constant(l1, "cotype", 2.0, self.VECTORS, **kw))

    def check(self, seed, job, inp, out):
        problems = []
        rng = input_rng(seed, self.index, job, stream=1)
        for est, space, ratio, bound in zip(out, self._spaces(),
                                            (bg.type_ratio, bg.cotype_ratio), self._bounds()):
            again = ratio(space, 2.0, est.witness, est.eval_config())
            if again != est.value:
                problems.append(f"{est.direction} value {est.value!r} not reproduced: {again!r}")
            # Relative standard error of the ratio, from NumPy's own draws:
            # half that of the second moment it takes the square root of.
            p = math.inf if space.p is bg.INF else float(space.p)
            sq = lp_rows(rng.standard_normal((self.SAMPLES, self.VECTORS)) @ est.witness, p) ** 2
            rel_se = 0.5 * float(sq.std(ddof=1)) / (float(sq.mean()) * math.sqrt(sq.size))
            if not est.value <= bound * (1.0 + MC_SIGMAS * rel_se):
                problems.append(f"{est.direction} value {est.value!r} above the bound "
                                f"{bound!r} (relative se {rel_se:.3g})")
        return problems


WORKLOADS = {w.name: w for w in (DifferenceRoute, SamplingRoute, FrequencyRoute, ConstantSearch)}
