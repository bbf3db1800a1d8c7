"""Fixtures shared by the test modules."""

import os

import pytest

from bell_lab import simulate


@pytest.fixture
def forks(monkeypatch):
    """Counts the runner's calls of ``os.fork``; the children are real."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(simulate.os, "fork", counting_fork)
    return pids
