"""Shared test configuration."""

from hypothesis import settings

#: seeded, database-free property runs, so every run draws the same cases;
#: each property sets its own ``max_examples``
settings.register_profile("chronotax", deadline=None, derandomize=True, database=None)
settings.load_profile("chronotax")
