"""Shared fixture of the per-stage benchmarks."""

import gc
import tracemalloc

import pytest


def _peak_mb(fn):
    """tracemalloc peak of one call of `fn`, in MB above the heap before it,
    after a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_mb():
    """The function that measures one call's tracemalloc peak, in MB."""
    return _peak_mb
