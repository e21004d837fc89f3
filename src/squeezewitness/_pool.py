"""The package's one fork pool: ``task(item)`` for each item, in item order.

The items are dealt round-robin to this process and to workers made with
``os.fork``: one process per core this process may run on, at most one per
item, and this process alone where ``os.fork`` is missing.  A task returns
``bytes``.  Each worker computes its items in order and sends each result
down its own pipe, length first, in one unbuffered write, so the parent
can read it as soon as it is made.  A full pipe blocks the worker until the
parent reads, so a worker holds at most one result that its pipe has not
taken.  A worker leaves only through ``os._exit``: it never runs the
parent's exception handlers or atexit hooks, nor flushes the parent's stdio.
A worker that raises prints its traceback to stderr first.
"""

from __future__ import annotations

import os
import sys
import traceback
from collections.abc import Callable, Iterator, Sequence
from typing import BinaryIO, TypeVar

__all__ = ["WorkerError", "fork_map"]

T = TypeVar("T")

_LENGTH_BYTES = 8  # size of the length sent before each result


class WorkerError(Exception):
    """A worker ended before sending all its results, or exited nonzero;
    ``code`` is its exit code, or None when its pipe ended early."""

    def __init__(self, code: int | None = None):
        super().__init__("a worker process ended before sending all its results"
                         if code is None else f"a worker process exited with code {code}")
        self.code = code


def _processes(items: int) -> int:
    """How many processes compute ``items`` items: one per core this process
    may run on, at most one per item, and one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        cores = os.cpu_count() or 1
    return max(1, min(cores, items))


def _send(fd: int, result: bytes) -> None:
    """Write ``result`` to ``fd`` after its length, with no buffer between."""
    data = memoryview(len(result).to_bytes(_LENGTH_BYTES, "little") + result)
    while data:
        data = data[os.write(fd, data):]


def _fork_worker(task: Callable[[T], bytes], items: Sequence[T],
                 workers: list) -> tuple[int, BinaryIO]:
    """Fork a worker that sends ``task(item)`` for each of ``items`` down its
    own pipe; returns its pid and the pipe's read end.  ``workers`` holds
    the earlier workers, whose pipes it closes, so that each pipe's only
    reader is the parent."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            for _, pipe in workers:
                pipe.close()
            for item in items:
                _send(write_end, task(item))
            status = 0
        except BrokenPipeError:
            pass  # the parent stopped reading: it no longer waits for a result
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _receive(pipe: BinaryIO) -> bytes:
    """The next result on a worker's pipe."""
    header = pipe.read(_LENGTH_BYTES)
    size = int.from_bytes(header, "little")
    result = pipe.read(size)
    if len(header) < _LENGTH_BYTES or len(result) < size:
        raise WorkerError()
    return result


def _reap(workers: list) -> int:
    """Close every worker's pipe, wait for each to exit and forget them;
    returns the first nonzero exit code, or 0."""
    for _, pipe in workers:
        pipe.close()
    codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    workers.clear()
    return next(filter(None, codes), 0)


def fork_map(task: Callable[[T], bytes], items: Sequence[T]) -> Iterator[bytes]:
    """Yield ``task(item)`` for each of ``items``, in item order.

    Item ``i`` is computed by process ``i % P`` of ``P`` processes: this one,
    then workers forked when the first result is requested.  The results
    come in item order whatever ``P`` is.  A worker whose pipe ends early,
    or that exits nonzero, raises :class:`WorkerError` here.  Every worker
    has exited when the generator finishes, raises or is closed; a caller
    that may stop early closes it, as ``contextlib.closing`` does.
    """
    processes = _processes(len(items))
    workers = []  # (pid, read end of its pipe); worker k computes items[k::processes]
    try:
        for k in range(1, processes):
            workers.append(_fork_worker(task, items[k::processes], workers))
        for i, item in enumerate(items):
            k = i % processes
            yield _receive(workers[k - 1][1]) if k else task(item)
        code = _reap(workers)
        if code:
            raise WorkerError(code)
    finally:
        _reap(workers)
