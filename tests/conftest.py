import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn(), peak bytes that call allocated above the base it started from).

    A warm call comes first, so first-use imports and caches are not counted.
    """
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
