"""One fan-out of independent calls over forked worker processes.

``forked_map(fn, items)`` is ``[fn(item) for item in items]``, run in worker
processes: one per CPU this process may use and at most one per item. With
one worker it runs in this process and forks nothing. The results come back
in item order, so they are the same, bit for bit, for any number of
workers. It has one caller: tune runs its Hyperband brackets through it.

A worker is a bare ``os.fork`` of this process, so it starts with numpy,
this package, ``fn`` and ``items`` already in memory: nothing is pickled on
the way in. The caller hands out the work through one pipe of item indices,
4 bytes each, written in blocks of at most ``PIPE_BUF`` bytes, which land
whole; a 4-byte read from that pipe therefore takes one whole index, and a
worker that frees up pulls the next one, so uneven items spread over the
workers by themselves. Once the pipe is empty and closed, each worker
pickles its ``(index, result)`` pairs into a pipe of its own and leaves
through ``os._exit``. The caller writes the indices, reads the results and
waits: it runs no item itself and starts no pool, no thread and no
``multiprocessing`` machinery.

A worker whose call raises empties the queue, so the others stop after the
item they are running, and sends that error; the caller raises the error of
the first item that failed, with its type, as the loop would have (the
indices go out in order, so every earlier item has run). A result that
cannot be pickled fails its item with ``pickle.PicklingError``. A worker
that leaves without sending anything (``os._exit`` in ``fn``, a signal, the
kernel's out-of-memory killer) raises ``WorkerDied``, which names its exit
status or signal. Every worker has been reaped when ``forked_map`` returns
or raises; when the caller stops early, on an interrupt say, it kills the
workers still running first. A caller killed outright reaps nothing, but
its workers hold no read end of any result pipe: they run the items still
queued, fail to send their results to a pipe that nobody reads any more and
leave.

Fork copies only the calling thread. The package starts no other, so a
caller that runs threads of its own must not fan out while one of them holds
a lock a worker may need. A worker also inherits the BLAS library as it was
loaded here: with BLAS pinned to one thread (the CLI, the tests and
``perfbench`` pin it before numpy loads), each call makes the float
operations it would make in this process.

mcmc and reduce stay serial. Each channel's chain or free runs take a few
milliseconds on the identify workload, and forked they were slower (16 to
24 ms and 8.5 to 17 ms): the fork, the pages it copies on write and the
chains sent back cost more than the second CPU saves. select-structure and
fit loop over their channels in this process as well. Forked, they saved a
few tens of milliseconds of a pipeline run of about a second, and not in
every session: on a shared 2-vCPU host, four sessions of 15 alternating
pairs read select-structure at 75 to 103 ms in-process against 49 to 113 ms
forked and fit at 71 to 90 against 46 to 84 ms, while 12 alternating runs of
the whole pipeline read 963.6 ms in-process against 958.6 ms with the two
forked (medians), each side the faster in 6. Forked, they also took a fifth
more CPU time, and a tracer in this process did not see their work. The
twin's retrain stays in this process too: its closed-form refit takes a few
milliseconds a channel, and on a 2-vCPU host even 3-epoch fine-tunes of six
channels were slower forked (45.6 ms) than in this process (19.8 ms).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
from collections.abc import Sequence
from contextlib import ExitStack
from typing import NoReturn

from .errors import WorkerDied


def forked_map(fn, items: Sequence) -> list:
    """``fn`` on every item, its results in item order."""
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(item) for item in items]
    children = {}           # pid -> its result pipe's read end, until reaped
    statuses = {}
    try:
        with ExitStack() as pipes:
            queue_r, queue_w = os.pipe()
            queue = pipes.enter_context(open(queue_w, "wb", buffering=0))
            with open(queue_r, "rb", buffering=0):
                for _ in range(workers):
                    out_r, out_w = os.pipe()
                    out = pipes.enter_context(open(out_r, "rb"))
                    with open(out_w, "wb", buffering=0):
                        pid = os.fork()
                        if pid == 0:
                            _work(fn, items, queue_r, out_w, (
                                queue_w, out_r,
                                *(o.fileno() for o in children.values())))
                    children[pid] = out
            _feed(queue, len(items))
            queue.close()
            sent = {pid: out.read() for pid, out in children.items()}
        for pid in list(children):
            statuses[pid] = os.waitpid(pid, 0)[1]
            del children[pid]
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _collect(len(items), sent, statuses)


def _feed(queue, n: int) -> None:
    """Indices 0 to n - 1 into the work queue, in blocks that land whole."""
    indices = struct.pack(f"<{n}I", *range(n))
    try:
        for start in range(0, len(indices), select.PIPE_BUF):
            queue.write(indices[start : start + select.PIPE_BUF])
    except BrokenPipeError:
        pass                # every worker has left; _collect says why


def _work(fn, items: Sequence, queue_r: int, out: int,
          callers: tuple[int, ...]) -> NoReturn:
    """A worker's life: call ``fn`` on each item it pulls from the queue
    until the queue runs dry or a call fails, send its results and the
    failure to the caller, and leave without returning into it.

    It first closes ``callers``, the caller's ends that it inherited: the
    queue's write end and the read end of every result pipe, its own and
    the earlier workers'. The caller then holds the only reader of each
    result pipe, so a caller that dies turns the worker's write into
    ``BrokenPipeError`` and the worker leaves, where it would otherwise
    wait forever on a pipe that nobody reads."""
    status = 1
    try:
        for fd in callers:
            os.close(fd)
        done, failed = [], None
        while index := os.read(queue_r, 4):
            i = int.from_bytes(index, "little")
            try:
                result = fn(items[i])
            except BaseException as exc:    # the caller raises it
                failed = (i, exc)
                break
            try:
                done.append((i, pickle.dumps(result)))
            except Exception as exc:
                failed = (i, pickle.PicklingError(
                    f"the result of item {i} cannot be pickled: {exc}"))
                break
        if failed is not None:
            # the rest of the queue comes after the failed item: empty it,
            # so the other workers stop after the item they are running
            while os.read(queue_r, select.PIPE_BUF):
                pass
        with open(out, "wb") as pipe:
            pipe.write(pickle.dumps((done, failed)))
        status = 0
    finally:
        os._exit(status)


def _collect(n: int, sent: dict, statuses: dict) -> list:
    """The workers' results in item order, or the error of the first item
    that failed, or ``WorkerDied`` for a worker that sent nothing."""
    results = [None] * n
    failures = []
    for pid, payload in sent.items():
        if statuses[pid] != 0 or not payload:
            code = os.waitstatus_to_exitcode(statuses[pid])
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with status {code}")
            raise WorkerDied(f"worker {pid} {how} without sending its results")
        done, failed = pickle.loads(payload)
        for i, result in done:
            results[i] = pickle.loads(result)
        if failed is not None:
            failures.append(failed)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
