import threading
import tracemalloc
from types import SimpleNamespace

import pytest

from stableem import em


@pytest.fixture
def block_spy(monkeypatch):
    """Record each block the ensemble engine runs as (lo, thread), and the thread of each buffer.

    Each shard of the run (worker t's blocks t, t + T, ...) allocates one
    innovation buffer on the pool thread that runs it, so ``buffers`` holds
    one thread per shard.
    """
    spy = SimpleNamespace(blocks=[], buffers=[])
    run_block, make_buffer = em._run_block, em.Innovations

    def spy_block(cfg, lo, *args):
        spy.blocks.append((lo, threading.current_thread()))
        return run_block(cfg, lo, *args)

    def spy_buffer(*args):
        spy.buffers.append(threading.current_thread())
        return make_buffer(*args)

    monkeypatch.setattr(em, "_run_block", spy_block)
    monkeypatch.setattr(em, "Innovations", spy_buffer)
    return spy


@pytest.fixture
def traced_peak():
    """Return peak(fn, *args, **kwargs): the most bytes tracemalloc saw allocated during the call.

    Only allocations made while fn runs count, so inputs built before the
    call are not part of the peak.
    """

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
