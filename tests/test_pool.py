import contextlib
import io
import os
import pickle

import pytest
from forking import assert_no_child_left, fail_fork, fail_pipe, open_descriptors, use_cores

from squeezewitness._pool import WorkerError, _receive, fork_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")


def square(item):
    """A result per item, None for every third one: a None result is a
    result, not a pipe that ended."""
    return None if item % 3 == 2 else item * item


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_results_come_in_item_order(monkeypatch, cores, n):
    forks = use_cores(monkeypatch, cores)
    assert list(fork_map(square, range(n))) == [square(item) for item in range(n)]
    assert len(forks) == min(cores, n)
    assert_no_child_left()


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
def test_no_task_runs_in_this_process(monkeypatch, cores):
    use_cores(monkeypatch, cores)
    pids = list(fork_map(lambda item: os.getpid(), range(7)))
    assert os.getpid() not in pids
    assert len(set(pids)) == cores
    assert_no_child_left()


def test_without_fork_this_process_computes_every_item(monkeypatch):
    use_cores(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    assert list(fork_map(lambda item: os.getpid(), range(4))) == [os.getpid()] * 4


def test_items_are_dealt_round_robin(monkeypatch):
    use_cores(monkeypatch, 3)
    pids = list(fork_map(lambda item: os.getpid(), range(7)))
    assert pids == pids[:3] * 2 + pids[:1]
    assert len(set(pids)) == 3
    assert_no_child_left()


def assert_worker_error_at_start(monkeypatch, cores, nth, fail):
    # The workers forked before it have exited, and no pipe is left open.
    forks = use_cores(monkeypatch, cores)
    error = fail(monkeypatch, nth)
    descriptors = open_descriptors()
    with pytest.raises(WorkerError) as caught:
        list(fork_map(square, range(5)))
    assert str(caught.value) == f"a worker process could not be started: {error}"
    assert caught.value.__cause__ is error and caught.value.code is None
    assert len(forks) == nth
    assert_no_child_left()
    assert open_descriptors() == descriptors


@pytest.mark.parametrize("cores, nth", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_a_failed_fork_raises_worker_error(monkeypatch, cores, nth):
    assert_worker_error_at_start(monkeypatch, cores, nth, fail_fork)


@pytest.mark.parametrize("cores, nth", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_a_failed_pipe_raises_worker_error(monkeypatch, cores, nth):
    # Each worker's pipe is made just before its fork.
    assert_worker_error_at_start(monkeypatch, cores, nth, fail_pipe)


@pytest.mark.parametrize("fault", ["raise", "exit"])
def test_worker_that_ends_early(monkeypatch, capfd, fault):
    use_cores(monkeypatch, 2)

    def task(item):
        if item == 3:
            if fault == "raise":
                raise MemoryError("out of room in the worker")
            os._exit(0)
        return square(item)

    with pytest.raises(WorkerError, match="ended before sending all its results") as caught:
        list(fork_map(task, range(6)))
    assert caught.value.code is None
    assert_no_child_left()
    # A worker that raises explains itself on stderr before it exits.
    err = capfd.readouterr().err
    if fault == "raise":
        assert "Traceback" in err and "MemoryError: out of room in the worker" in err
    else:
        assert err == ""


class ExitWhilePickled:
    """Ends the worker when pickled, after what comes before it in the
    result's pickle has gone down the pipe."""

    def __reduce__(self):
        os._exit(0)


def test_worker_that_dies_inside_a_result(monkeypatch):
    use_cores(monkeypatch, 1)
    big = b"x" * (1 << 20)  # so large that the pickler writes it to the pipe at once

    def task(item):
        return (big, ExitWhilePickled()) if item == 1 else big

    results = []
    with pytest.raises(WorkerError, match="ended before sending all its results"):
        results.extend(fork_map(task, range(3)))
    assert results == [big]
    assert_no_child_left()


def test_a_pipe_cut_anywhere_in_a_result_raises_worker_error():
    data = pickle.dumps((b"x" * 100, 2.5, None))
    for cut in range(len(data)):
        with pytest.raises(WorkerError, match="ended before sending all its results"):
            _receive(io.BytesIO(data[:cut]))


def test_worker_that_exits_nonzero_after_its_results(monkeypatch):
    use_cores(monkeypatch, 2)
    exit_now = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))  # only workers exit
    results = []
    with pytest.raises(WorkerError, match="a worker process exited with code 3") as caught:
        results.extend(fork_map(square, range(4)))
    assert results == [square(item) for item in range(4)]
    assert caught.value.code == 3
    assert_no_child_left()


def test_a_parent_that_stops_early_leaves_no_worker(monkeypatch, capfd):
    # Workers still computing, or blocked on a full pipe, leave quietly.
    use_cores(monkeypatch, 3)
    big = b"x" * (1 << 20)
    with contextlib.closing(fork_map(lambda item: big, range(30))) as results:
        assert next(results) == big
    assert_no_child_left()
    assert capfd.readouterr().err == ""


def test_a_failing_parent_task_leaves_no_worker(monkeypatch):
    # Only without os.fork does this process run a task; its error is the task's own.
    use_cores(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")

    def task(item):
        if item == 2:
            raise ValueError("bad item")
        return square(item)

    with pytest.raises(ValueError, match="bad item"):
        list(fork_map(task, range(5)))
