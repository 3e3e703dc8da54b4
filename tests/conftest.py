import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    """The peak of memory traced while ``fn(*args, **kwargs)`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)``: the peak traced while the call runs."""
    return _traced_peak
