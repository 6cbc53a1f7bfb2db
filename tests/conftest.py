"""Shared test settings.

Every hypothesis property test runs under the ``coevnet`` profile: examples
are derived from each test's source rather than drawn at random, with no
per-example deadline and no example database, so the suite is deterministic
and leaves nothing behind.  No test may leave a child process running.  A
test marked ``needs_cc`` is skipped when no C compiler ``cc`` is on PATH.
"""

import multiprocessing
import shutil

import pytest
from hypothesis import settings

settings.register_profile("coevnet", derandomize=True, deadline=None, database=None)
settings.load_profile("coevnet")


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_cc: skipped when no C compiler 'cc' is on PATH")


def pytest_collection_modifyitems(config, items):
    if shutil.which("cc") is None:
        skip = pytest.mark.skip(reason="no C compiler 'cc' on PATH")
        for item in items:
            if "needs_cc" in item.keywords:
                item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    assert multiprocessing.active_children() == []
