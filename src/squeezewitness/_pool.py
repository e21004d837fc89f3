"""The package's one fork pool: ``task(item)`` for each item, in item order.

Where ``os.fork`` exists, the items are dealt round-robin to workers made
with it: one per core this process may run on, at most one per item, and
none for no items.  This process runs no task; it only reads the results.
Where ``os.fork`` is missing, this process computes every item itself.
Each worker computes its items in order and pickles each result down its
own pipe, flushed after each, so the parent can read it as soon as it is
made.  A full pipe blocks the worker until the parent reads, so a worker
holds at most one result that its pipe has not taken.  A worker leaves only
through ``os._exit``: it never runs the parent's exception handlers or
atexit hooks, nor flushes the parent's stdio.  A worker that raises prints
its traceback to stderr first.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback
from collections.abc import Callable, Iterator, Sequence
from typing import BinaryIO, TypeVar

__all__ = ["WorkerError", "fork_map"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(Exception):
    """A worker could not be started, ended before sending all its results,
    or exited nonzero, as ``reason`` says; ``code`` is its exit code, or
    None when it has none."""

    def __init__(self, reason: str, code: int | None = None):
        super().__init__(f"a worker process {reason}")
        self.reason, self.code = reason, code


def _workers(items: int) -> int:
    """How many workers compute ``items`` items: one per core this process
    may run on, at most one per item."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        cores = os.cpu_count() or 1
    return min(cores, items)


def _fork_worker(task: Callable[[T], R], items: Sequence[T],
                 workers: list) -> tuple[int, BinaryIO]:
    """Fork a worker that pickles ``task(item)`` for each of ``items`` down
    its own pipe; returns its pid and the pipe's read end.  ``workers``
    holds the earlier workers, whose pipes it closes, so that each pipe's
    only reader is the parent.  A failed fork raises :class:`WorkerError`."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_end)
        os.close(write_end)
        raise WorkerError(f"could not be started: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            for _, pipe in workers:
                pipe.close()
            pipe = open(write_end, "wb")
            for item in items:
                pickle.dump(task(item), pipe)
                pipe.flush()
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


def _receive(pipe: BinaryIO):
    """The next result on a worker's pipe; a pipe that ends, between results
    or inside one, raises :class:`WorkerError`."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise WorkerError("ended before sending all its results") from None


def _reap(workers: list) -> int:
    """Close every worker's pipe, wait for each to exit and forget them;
    returns the first nonzero exit code, or 0."""
    for _, pipe in workers:
        pipe.close()
    codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    workers.clear()
    return next(filter(None, codes), 0)


def fork_map(task: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """Yield ``task(item)`` for each of ``items``, in item order.

    Item ``i`` is computed by worker ``i % P`` of ``P`` workers, forked when
    the first result is requested; where ``os.fork`` is missing, this is
    ``map(task, items)``.  The results come in item order whatever ``P`` is.
    A worker that cannot be forked, whose pipe ends early, or that exits
    nonzero, raises :class:`WorkerError` here.  Every worker has exited when
    the generator finishes, raises or is closed; a caller that may stop
    early closes it, as ``contextlib.closing`` does.
    """
    if not hasattr(os, "fork"):
        yield from map(task, items)
        return
    count = _workers(len(items))
    workers = []  # (pid, read end of its pipe); worker k computes items[k::count]
    try:
        for k in range(count):
            workers.append(_fork_worker(task, items[k::count], workers))
        for i in range(len(items)):
            yield _receive(workers[i % count][1])
        code = _reap(workers)
        if code:
            raise WorkerError(f"exited with code {code}", code)
    finally:
        _reap(workers)
