"""Shared test settings.

Every hypothesis property test runs under the ``coevnet`` profile: examples
are derived from each test's source rather than drawn at random, with no
per-example deadline and no example database, so the suite is deterministic
and leaves nothing behind.
"""

from hypothesis import settings

settings.register_profile("coevnet", derandomize=True, deadline=None, database=None)
settings.load_profile("coevnet")
