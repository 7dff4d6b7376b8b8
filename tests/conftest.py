import threading
from types import SimpleNamespace

import pytest

from stableem import em


@pytest.fixture
def block_spy(monkeypatch):
    """Record each block the ensemble engine runs as (lo, thread), and the thread of each workspace.

    A workspace is allocated once by every thread that runs blocks, so
    ``workspaces`` lists the threads the engine used.
    """
    spy = SimpleNamespace(blocks=[], workspaces=[])
    run_block, workspace = em._run_block, em._Workspace

    def spy_block(cfg, lo, *args):
        spy.blocks.append((lo, threading.current_thread()))
        return run_block(cfg, lo, *args)

    def spy_workspace(*args):
        spy.workspaces.append(threading.current_thread())
        return workspace(*args)

    monkeypatch.setattr(em, "_run_block", spy_block)
    monkeypatch.setattr(em, "_Workspace", spy_workspace)
    return spy
