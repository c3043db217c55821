"""Shared fixtures."""

import pytest

from icuxai import autodiff


@pytest.fixture
def pin_threads(monkeypatch):
    """``pin_threads(w)`` sets ``W``, the threads a call may run its
    arithmetic on (integrated gradients' passes and the pieces of a
    map-sized kernel), to ``w`` whatever the CPUs and BLAS of the host."""

    def pin(threads: int) -> None:
        monkeypatch.setattr(autodiff, "_cpu_threads", lambda: threads)

    return pin
