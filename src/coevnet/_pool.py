"""One process pool for independent tasks: a sweep's legs and a comparison's replicas.

``ordered(task, n, workers, what)`` yields ``task(0), ..., task(n - 1)`` in order,
computed on ``min(n, workers)`` forked workers, ``workers`` being ``usable_cpus()`` in
the CLI.  The workers inherit ``task`` through the fork as the initializer's argument,
so it is never pickled; only an index goes to a worker and only a result comes back.
A task's error is raised in its turn, tasks not started by then are cancelled, and
running ones finish.  One task, one worker or a call inside a worker (no worker forks
a pool) runs here, and so do the tasks not yet yielded, after one warning, when the
fork start method is missing or the pool fails.  A worker stopped by SIGTERM (the pool
stops the others when one dies) unwinds its task, so the task's cleanup runs.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator

log = logging.getLogger(__name__)

_task, _busy = None, False   # in a worker: its task, and whether the task is running


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start(task: Callable) -> None:
    global _task
    _task = task
    signal.signal(signal.SIGTERM, _stop)


def _stop(signum, frame):
    if _busy:
        raise SystemExit(128 + signum)
    os._exit(128 + signum)   # an idle worker has nothing to clean up


def _call(k: int):
    global _busy
    try:
        _busy = True
        return _task(k)
    except SystemExit as exc:   # the pool's worker loop would catch it and wait on
        os._exit(exc.code if isinstance(exc.code, int) else 1)
    finally:
        _busy = False


def ordered(task: Callable, n: int, workers: int, what: str) -> Iterator:
    done, procs = 0, min(n, workers) if _task is None else 1
    if procs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        log.warning("no fork start method; running the %d %s serially", n, what)
    elif procs > 1:
        pool = None
        try:
            pool = ProcessPoolExecutor(procs, multiprocessing.get_context("fork"), _start, (task,))
            for fut in [pool.submit(_call, k) for k in range(n)]:
                yield fut.result()
                done += 1
        except (BrokenProcessPool, OSError) as exc:
            # an OSError a task raises itself is raised again by its serial run
            log.warning("worker pool failed (%s); running the remaining %s serially", exc, what)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    for k in range(done, n):
        yield task(k)
