"""Test configuration: one fixed Hypothesis profile for every property test.

Examples are derived from each test's name, so every run draws the same
inputs, and no example has a deadline, so a slow machine cannot fail a test.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")
