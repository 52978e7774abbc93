"""Shared test settings and oracles.

Every hypothesis test runs derandomized, without a deadline and without an
example database, so each run draws the same examples and leaves no files
behind.  `dense_shift_power` is the independent reference for the shift
profile F(h) = ||f(. + h) - f||_p^p that `besov._shift_powers` computes."""

import numpy as np
from hypothesis import settings

from besovgamma.functions import Interpolation

settings.register_profile("besovgamma", deadline=None, derandomize=True, database=None)
settings.load_profile("besovgamma")


def dense_shift_power(f, h, p):
    """F(h) from values of f itself: between the merged breakpoints of f and
    f(. + h) the integrand is constant (steps: evaluated at the cell
    midpoint) or the norm of an affine path (linear sources: evaluated at
    32 Gauss-Legendre nodes per cell).  The package kernel reads the
    difference off tabulated pieces instead."""
    b = f.breakpoints
    pts = np.unique(np.concatenate([b, b - h]))
    lens, mids = np.diff(pts), 0.5 * (pts[1:] + pts[:-1])
    if f.interpolation is Interpolation.STEP:
        diff = f.evaluate(mids + h) - f.evaluate(mids)
        return float(lens @ f.space.norms(diff) ** p)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t = (mids[:, None] + 0.5 * lens[:, None] * nodes).ravel()
    diff = f.evaluate(t + h) - f.evaluate(t)
    powered = f.space.norms(diff).reshape(mids.size, nodes.size) ** p
    return float(0.5 * lens @ (powered @ weights))
