"""Shared pytest set-up: a deterministic Hypothesis profile.

Property tests draw the same examples on every run (derandomize), keep no
example database, and have no per-example deadline, so the suite stays
reproducible and does not flake on slow or loaded machines.
"""

from hypothesis import settings

settings.register_profile(
    "locpv", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("locpv")
