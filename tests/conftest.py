"""Suite-wide fixtures."""

import gc
import os

import pytest


@pytest.fixture(autouse=True, scope="module")
def _freeze_earlier_modules():
    """Keep what earlier modules left alive out of later full collections.

    Expression nodes are interned for the life of the process, so once
    built they stay alive, the 100,000-deep chains of test_expr_depth.py
    among them, and every later full collection would walk them again.
    Frozen objects stay alive but are not scanned, so a module's
    collections see only the objects made since it started.
    """
    gc.collect()
    gc.freeze()
    yield


@pytest.fixture
def no_leaks():
    """The test leaves no child process and no open file descriptor."""
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds
