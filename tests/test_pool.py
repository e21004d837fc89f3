import contextlib
import os

import pytest
from forking import assert_no_child_left, use_cores

from squeezewitness._pool import WorkerError, fork_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")


def square(item):
    """A result per item, empty for every third one: an empty result is a
    result, not a pipe that ended."""
    return b"" if item % 3 == 2 else str(item * item).encode()


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_results_come_in_item_order(monkeypatch, cores, n):
    forks = use_cores(monkeypatch, cores)
    assert list(fork_map(square, range(n))) == [square(item) for item in range(n)]
    assert len(forks) == max(0, min(cores, n) - 1)
    assert_no_child_left()


def test_without_fork_this_process_computes_every_item(monkeypatch):
    use_cores(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert list(fork_map(lambda item: str(os.getpid() == parent).encode(), range(4))) == \
        [b"True"] * 4


def test_items_are_dealt_round_robin(monkeypatch):
    use_cores(monkeypatch, 3)
    pids = [int(result) for result in fork_map(lambda item: str(os.getpid()).encode(),
                                               range(7))]
    assert pids[0] == os.getpid()
    assert pids == pids[:3] * 2 + pids[:1]
    assert len(set(pids)) == 3
    assert_no_child_left()


@pytest.mark.parametrize("fault", ["raise", "exit"])
def test_worker_that_ends_early(monkeypatch, capfd, fault):
    use_cores(monkeypatch, 2)
    parent = os.getpid()

    def task(item):
        if os.getpid() != parent and item == 3:
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
    use_cores(monkeypatch, 2)

    def task(item):
        if item == 2:
            raise ValueError("bad item")
        return square(item)

    with pytest.raises(ValueError, match="bad item"):
        list(fork_map(task, range(5)))
    assert_no_child_left()
