"""Helpers for tests of the fork pool and the commands that use it."""

import errno
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


def fail_fork(monkeypatch, nth):
    """Make call ``nth`` (from 0) of ``os.fork`` fail as a full process table
    does; returns the error it raises."""
    error = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    calls = []
    fork = os.fork

    def failing_fork():
        calls.append(None)
        if len(calls) == nth + 1:
            raise error
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    return error


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
