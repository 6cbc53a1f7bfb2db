"""Shared test settings.

Every hypothesis property test runs under the ``coevnet`` profile: examples
are derived from each test's source rather than drawn at random, with no
per-example deadline and no example database, so the suite is deterministic
and leaves nothing behind.  No test may leave a child process running.
"""

import multiprocessing

import pytest
from hypothesis import settings

settings.register_profile("coevnet", derandomize=True, deadline=None, database=None)
settings.load_profile("coevnet")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    assert multiprocessing.active_children() == []
