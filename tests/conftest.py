"""Shared pytest setup: a fixed, derandomized hypothesis profile.

Property tests draw the same examples on every run, a bounded number of
them, with no per-example deadline, so they keep the suite reproducible
and inside its time budget.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "entdisc", derandomize=True, max_examples=30, deadline=None, database=None
    )
    settings.load_profile("entdisc")
