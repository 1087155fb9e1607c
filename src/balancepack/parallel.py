"""Independent tasks on a ``fork`` process pool behind ``--threads``.

Packing is pure Python and holds the interpreter lock, so threads give it
no speedup; worker processes do. ``workers`` caps ``threads`` at the
tasks and the cores, and ``starmap`` starts a pool only for a count above
one, so ``threads=1`` or a single task stays in the calling process and
starts nothing. Results come back in task order, so what the caller
builds from them does not depend on the worker count. Every worker is
reaped before ``starmap`` returns.

``fork`` rather than ``spawn``: a spawned worker re-imports numpy, about
0.13 s each. A forked child holds only the calling thread, so a task must
not need a lock another thread could hold at the fork; packing's tasks run
pure Python and numpy sorts and counts, no BLAS. Python 3.12 and later
warn when a process with other threads forks. ``multiprocessing`` is
imported only when a pool starts.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")


def check_threads(threads: int) -> int:
    """``threads``, if at least 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def workers(threads: int, tasks: int) -> int:
    """Processes for ``tasks`` independent tasks: ``threads``, but never more
    than the tasks or the cores."""
    return max(1, min(check_threads(threads), tasks, os.cpu_count() or 1))


def _call(task: tuple) -> object:
    fn, args = task
    return fn(*args)


def starmap(fn: Callable[..., T], tasks: Iterable[tuple], count: int) -> list[T]:
    """``[fn(*args) for args in tasks]``, on ``count`` forked processes when
    that is more than one (``workers`` gives the count).

    ``tasks`` is read lazily, in order: a pool builds a task when it can
    send it, not all of them up front. ``fn`` must be a module-level
    function; each task's arguments and result are pickled. One task goes
    to a worker at a time. The pool is closed and joined, or on an error
    terminated and joined, before this returns, so no worker outlives the
    call.
    """
    if count <= 1:
        return [fn(*args) for args in tasks]
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(count)
    try:
        results = list(pool.imap(_call, ((fn, args) for args in tasks), chunksize=1))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results
