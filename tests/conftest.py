"""Hypothesis profiles for the test suite.

The default profile is Hypothesis's own.  `--hypothesis-profile=deep`
runs each property with ten times its usual number of examples:

    python -m pytest --hypothesis-profile=deep tests/test_regression.py
"""

from hypothesis import settings

settings.register_profile("deep",
                          max_examples=10 * settings.default.max_examples)
