"""Test-wide settings.

Hypothesis runs derandomized and without a deadline: property tests draw the
same examples on every run, and a slow or busy host cannot fail them on
timing.
"""

from hypothesis import settings

settings.register_profile("rphardy", deadline=None, derandomize=True, database=None)
settings.load_profile("rphardy")
