import threading
from types import SimpleNamespace

import pytest

from stableem import em


@pytest.fixture
def block_spy(monkeypatch):
    """Record each block the ensemble engine runs as (lo, thread), and the thread of each buffer.

    Every thread that runs blocks allocates one innovation buffer per run,
    so ``buffers`` lists the threads the engine used.
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
