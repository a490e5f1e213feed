"""Independent pieces of work run in forked worker processes.

``fork_map(fn, chunks)`` is ``[fn(chunk) for chunk in chunks]``: this
process runs the first chunk and a worker forked for each other chunk runs
it, then sends its result, or the exception it raised, back pickled
through a pipe.  Results come back in chunk order, so work split into
chunks that do not depend on each other gives the same result for any
number of workers.  Where ``os.fork`` is missing the chunks run one after
another in this process.  Every job splits its work by one rule, ``share``:
block b of k owns the items (replicates, lines, generation cells) that
start in its share of the job's total (replicates, bytes, tweets), and
finds them itself.  ``split_map`` decides the blocks of a list of like
items from the time the first one took.

Only the program's own process forks workers for its work (see
``allow_forking``); a program that imports geoscale and calls it gets all
of the work done in its own process.
"""

from __future__ import annotations

import ctypes
import gc
import os
import pickle
import signal
import sys
import time
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# prctl and its PR_SET_PDEATHSIG (<linux/prctl.h>) where Linux has them,
# looked up here so that a worker makes no dynamic-loader call
_PR_SET_PDEATHSIG = 1
_prctl = ctypes.CDLL(None).prctl if sys.platform.startswith("linux") else None


# the least work, in seconds of one CPU, worth a worker of its own.  A
# worker costs about 5 ms (fork, pickled result and exit of a 36 MB
# process pinned to one CPU of a 2-vCPU x86-64 VM), which a 20 ms share
# pays back wherever a second CPU is free a quarter of the time or more
MIN_WORK_S = 0.02


# set by allow_forking: whether usable_cpus counts more than one CPU
_forking = False


def allow_forking() -> None:
    """Let this process split its work over every CPU it may run on.  The
    program's entry calls it (cli.main with no argv).  A program that
    imports geoscale does not, so its calls fork nothing: what it wraps or
    traces in its own process sees all of the work, and a program that
    runs threads of its own is never forked under them."""
    global _forking
    _forking = True


def usable_cpus() -> int:
    """The CPUs this process may run its work on: those it is allowed to
    run on once allow_forking was called, else one."""
    if not _forking:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(work: float, floor: float) -> int:
    """How many workers to split ``work`` over: one per usable CPU, but
    none with less than ``floor`` of it, and at least one; one where
    os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), int(work // floor)))


def share(total: int, k: int, b: int) -> tuple[int, int]:
    """Block b of k's share [start, end) of a job of total units: the k
    shares tile [0, total) in order, and their sizes differ by at most one."""
    return b * total // k, (b + 1) * total // k


def blocks(items: Sequence[T], k: int) -> list[Sequence[T]]:
    """items cut into k contiguous blocks by share: fewer when there are
    fewer items, one empty block for none."""
    k = max(1, min(k, len(items)))
    return [items[slice(*share(len(items), k, b))] for b in range(k)]


def split_map(fn: Callable[[Sequence[T]], list], items: Sequence[T]) -> list:
    """fn(chunk) over chunks of items, its lists joined in chunk order:
    fn(items[:1]) here, timed, then the other items in k contiguous blocks
    for fork_map, with k from worker_count taking each of them to cost at
    least what the first did."""
    start = time.perf_counter()
    done = fn(items[:1])
    rest = items[1:]
    k = worker_count((time.perf_counter() - start) * len(rest), MIN_WORK_S)
    for part in fork_map(fn, blocks(rest, k)):
        done += part
    return done


def fork_map(fn: Callable[[T], R], chunks: Iterable[T]) -> list[R]:
    """[fn(chunk) for chunk in chunks], each chunk after the first in a
    forked worker.  An exception a worker raised is raised here, and a
    worker that ends without a result is a ChildProcessError; either is
    raised once every worker has been waited for.  If this process fails
    while workers run, they are killed and waited for before the exception
    goes on."""
    chunks = list(chunks)
    if len(chunks) < 2 or not hasattr(os, "fork"):
        return [fn(chunk) for chunk in chunks]
    workers = []
    try:
        for chunk in chunks[1:]:
            workers.append(_fork(fn, chunk))
        first = fn(chunks[0])
        sent = [_drain(read_fd) for _, read_fd in workers]
    except BaseException:
        for pid, _ in workers:   # not yet waited for, so still ours
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [_reap(*worker) for worker in workers]
    return [first, *(_unpickled(*result) for result in zip(sent, statuses))]


def _fork(fn: Callable, chunk) -> tuple[int, int]:
    """Fork a worker that writes (True, fn(chunk)), or (False, the
    exception it raised), pickled to a pipe.  Returns the worker's pid and
    the pipe's read end.  The worker writes nothing else and leaves by
    os._exit, so it runs no exit handler of this process."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            _die_with(parent)
            # the collector of a worker leaves the objects it inherited
            # alone, so their pages stay shared with this process
            gc.freeze()
            os.close(read_fd)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            try:
                result = True, fn(chunk)
            except BaseException as exc:
                result = False, exc
            with open(write_fd, "wb") as out:
                out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _die_with(parent: int) -> None:
    """Have the kernel SIGKILL this worker when its parent ends, where
    Linux's prctl offers that, so that a parent killed by a signal (a
    timeout, say) leaves no worker running; leave at once if it has ended
    already."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _drain(read_fd: int) -> bytes:
    """What a worker wrote to its pipe, read until it closed it."""
    with open(read_fd, "rb", closefd=False) as pipe:
        return pipe.read()


def _reap(pid: int, read_fd: int) -> int:
    """Close a worker's pipe and wait for it to exit; its wait status."""
    os.close(read_fd)
    return os.waitpid(pid, 0)[1]


def _unpickled(data: bytes, status: int):
    """The result a worker sent; the exception it raised is raised here."""
    if not data:
        code = os.waitstatus_to_exitcode(status)
        how = (f"was killed by signal {-code}" if code < 0
               else f"exited with code {code}")
        raise ChildProcessError(f"a worker process {how} without a result")
    ok, value = pickle.loads(data)   # written by our own worker
    if not ok:
        raise value
    return value
