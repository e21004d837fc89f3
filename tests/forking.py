"""Helpers for tests of the fork pool and the commands that use it."""

import os

import pytest


def use_cores(monkeypatch, cores):
    """Let the pool see ``cores`` available cores; returns the list that
    records each ``os.fork`` it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
