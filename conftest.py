"""Session-wide test setup shared by tests/ and perfbench/.

Collecting the suite imports every test module, and the objects that leaves
behind (pytest, hypothesis, module-level test data) would otherwise be
walked by every full garbage collection for the rest of the session.  Such a
collection costs tens of milliseconds and lands wherever the allocation count
crosses its threshold, so a timed perfbench test would charge it to whatever
layer happened to run.  Freezing those objects once collection ends keeps the
later full collections small and makes the perfbench timings independent of
how many test modules were collected alongside them.
"""

import gc


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()
