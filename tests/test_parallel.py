"""``parallel.forked_map``: the loop's results and errors, from forked
workers, with no child and no thread left behind."""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from gaslift_twin.errors import InsufficientSamples, WorkerDied
from gaslift_twin.parallel import forked_map


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)``: this process may use k CPUs, whatever the host has."""
    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return use


@pytest.fixture
def no_leftovers(no_children):
    """Every test here ends with no child of this process and the threads
    it started with."""
    threads = threading.active_count()
    yield
    no_children()
    assert threading.active_count() == threads


pytestmark = pytest.mark.usefixtures("no_leftovers")


def uneven(k):
    """Item k's result, after a wait that differs from item to item, so that
    workers finish their items out of order."""
    time.sleep(0.002 * ((7 * k) % 5))
    return k, np.arange(k, dtype=float) / 3.0


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_results_come_in_item_order(cpus, workers):
    cpus(workers)
    items = list(range(23))
    got = forked_map(uneven, items)
    want = [uneven(k) for k in items]
    assert [k for k, _ in got] == items
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))


@pytest.mark.parametrize("n", [12, 20_000])
def test_the_first_failing_item_raises_with_its_type(cpus, n):
    cpus(3)

    def fails_at_5_and_9(k):
        if k in (5, 9):
            raise InsufficientSamples(f"item {k}")
        # 19,990 items of a second each: hours, unless the workers that
        # fail empty the queue
        return uneven(k) if n < 100 else time.sleep(1.0)

    with pytest.raises(InsufficientSamples, match="item 5"):
        forked_map(fails_at_5_and_9, range(n))


def test_a_worker_that_exits_raises_worker_died(cpus):
    cpus(2)
    parent = os.getpid()

    def exits_in_a_worker(k):
        if k == 4 and os.getpid() != parent:
            os._exit(3)
        return k

    with pytest.raises(WorkerDied, match="exited with status 3"):
        forked_map(exits_in_a_worker, range(8))


def test_a_killed_worker_raises_worker_died(cpus):
    cpus(2)
    parent = os.getpid()

    def killed_in_a_worker(k):
        if k == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    with pytest.raises(WorkerDied, match="killed by SIGKILL"):
        forked_map(killed_in_a_worker, range(4))


def test_a_result_that_cannot_be_pickled_raises_a_pickling_error(cpus):
    cpus(2)
    with pytest.raises(pickle.PicklingError, match="result of item 2"):
        forked_map(lambda k: threading.Lock() if k == 2 else k, range(4))


def test_more_items_than_the_pipe_buffer_holds(cpus):
    # 20,000 indices are 80,000 bytes, more than a 64 KiB pipe buffer
    cpus(2)
    assert forked_map(lambda k: k, range(20_000)) == list(range(20_000))


def test_one_cpu_forks_nothing(cpus, monkeypatch):
    def no_fork():
        raise AssertionError("a one-CPU fan-out started a child process")

    cpus(1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert forked_map(lambda k: k * k, range(3)) == [0, 1, 4]
    # nor does one item on four CPUs
    cpus(4)
    assert forked_map(lambda k: k * k, [7]) == [49]


def test_an_interrupted_caller_kills_and_reaps_its_workers(cpus):
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    cpus(2)
    # the timer is this process's alone: a forked child does not inherit it
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(Interrupted):
            forked_map(lambda k: time.sleep(60), range(2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
