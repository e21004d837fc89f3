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


def _fail_call(monkeypatch, name, nth, error):
    """Make call ``nth`` (from 0) of ``os.<name>`` raise ``error``; returns it."""
    calls = []
    call = getattr(os, name)

    def failing_call():
        calls.append(None)
        if len(calls) == nth + 1:
            raise error
        return call()

    monkeypatch.setattr(os, name, failing_call)
    return error


def fail_fork(monkeypatch, nth):
    """Make call ``nth`` (from 0) of ``os.fork`` fail as a full process table
    does; returns the error it raises."""
    return _fail_call(monkeypatch, "fork", nth,
                      BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN)))


def fail_pipe(monkeypatch, nth):
    """Make call ``nth`` (from 0) of ``os.pipe`` fail as a full descriptor
    table does; returns the error it raises."""
    return _fail_call(monkeypatch, "pipe", nth, OSError(errno.EMFILE, os.strerror(errno.EMFILE)))


def open_descriptors():
    """How many file descriptors this process holds open."""
    return len(os.listdir("/dev/fd"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
