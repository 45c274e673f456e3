"""Hypothesis profiles and shared fixtures for the test suite.

The default profile is Hypothesis's own.  `--hypothesis-profile=deep`
runs each property with ten times its usual number of examples:

    python -m pytest --hypothesis-profile=deep tests/test_regression.py
"""

import os
import threading

import pytest
from hypothesis import settings

settings.register_profile("deep",
                          max_examples=10 * settings.default.max_examples)


@pytest.fixture
def force_cpus(monkeypatch):
    """force_cpus(count) makes the trial and batch pools see `count`
    usable CPUs."""

    def force(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)

    return force


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started since the fixture was set up."""
    started = []
    start = threading.Thread.start

    def counting_start(self, *args, **kwargs):
        started.append(self)
        return start(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started
