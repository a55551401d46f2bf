"""Tier-1 suite configuration.

Property tests draw the same examples on every run, so a "no worse than
the parent commit" comparison compares like with like and a failure
reproduces from the test name alone.  Per-test
``@settings(max_examples=...)`` still apply on top of the profile.
"""

try:
    from hypothesis import settings
except ImportError:  # bare ``pip install pytest``: those modules skip/err
    pass
else:
    settings.register_profile("repro", derandomize=True, deadline=None)
    settings.load_profile("repro")
