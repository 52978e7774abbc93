"""Shared test settings: every hypothesis test runs derandomized, without a
deadline and without an example database, so each run draws the same
examples and leaves no files behind."""

from hypothesis import settings

settings.register_profile("besovgamma", deadline=None, derandomize=True, database=None)
settings.load_profile("besovgamma")
