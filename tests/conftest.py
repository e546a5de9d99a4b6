"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

# derandomized so that a run's outcome depends on the code alone; no example
# database, so a run leaves no files behind
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
