"""Shared test settings and oracles.

Every hypothesis test runs derandomized, without a deadline and without an
example database, so each run draws the same examples and leaves no files
behind.  `dense_shift_power` is the independent reference for the shift
profile F(h) = ||f(. + h) - f||_p^p that `besov._shift_powers` computes."""

import numpy as np
from hypothesis import settings

settings.register_profile("besovgamma", deadline=None, derandomize=True, database=None)
settings.load_profile("besovgamma")


def dense_shift_power(f, h, p):
    """F(h) of a step from values of f itself: between the merged
    breakpoints of f and f(. + h) the integrand is constant, evaluated at
    the cell midpoint.  The package kernel reads the difference off
    tabulated pieces instead."""
    b = f.breakpoints
    pts = np.unique(np.concatenate([b, b - h]))
    lens, mids = np.diff(pts), 0.5 * (pts[1:] + pts[:-1])
    diff = f.evaluate(mids + h) - f.evaluate(mids)
    return float(lens @ f.space.norms(diff) ** p)
