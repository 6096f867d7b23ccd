"""One fan-out of independent calls over forked worker processes.

``forked_map(fn, items)`` is ``[fn(item) for item in items]``, run in worker
processes: one per CPU this process may use and at most one per item. With
one worker it runs in this process and starts none. Hyperband runs its
brackets through it and the online twin its channels' fine-tunes.

The workers are forked, so they start with numpy, this package, ``fn`` and
``items`` already in memory: nothing is pickled on the way in, and only each
call's result (and an error) comes back. A spawned worker would import the
package again for every call. Fork copies only the calling thread; the
package starts no other, so a caller that runs threads of its own must not
search or retrain while one of them holds a lock. A worker also inherits
the BLAS library as it was loaded here: with BLAS pinned to one thread (the
CLI, the tests and ``perfbench`` pin it before numpy loads), each call makes
the float operations it would make in this process, so the results are the
same, bit for bit, for any number of workers.

A call's error reaches the caller with its type, and every worker has
exited when ``forked_map`` returns or raises.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

# (fn, items) of the fan-out a worker serves, set by its initializer; the
# calling process never sets it
_job = None


def _serve(fn, items) -> None:
    global _job
    _job = (fn, items)


def _call(i: int):
    fn, items = _job
    return fn(items[i])


def forked_map(fn, items: Sequence) -> list:
    """``fn`` on every item, its results in item order."""
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here, so that a process that never fans out (a twin that only
    # monitors) does not load the pool's modules, about 1.9 MB resident
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_serve, initargs=(fn, items)) as pool:
        return list(pool.map(_call, range(len(items))))
