"""One stage's work dealt to forked shares: the package's only fork.

Each enumeration step, each order of the corpus pass and the lemma sweep
deal their units of work to `job_count` shares: an enumeration step
splits the children it tries by edge count, the corpus pass and the
sweep split their graphs. `run_shares` runs share 0 in this process and
each other share in a forked child, which pickles its result back
through a pipe. With one CPU there is one share and nothing forks. A
stage that forks must be called from a process that runs no other
thread.
"""

from __future__ import annotations

import os
import signal
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

# At most this many processes per stage: each forked child holds its own
# working memory on top of the pages it shares with its parent (a lemma
# sweep child about 2.5 MB at n <= 8), and the 26 graphs of the default
# corpora, dealt to more than 8 shares, wait mostly on their largest graph.
_MAX_JOBS = 8

# In a forked share: the pid of the process that forked it.
_parent: int | None = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, or 1 where the OS
    does not say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def job_count(items: int) -> int:
    """The shares for `items` units of work: one per usable CPU, up to one
    per unit and `_MAX_JOBS` in all, and at least one."""
    return max(1, min(_usable_cpus(), _MAX_JOBS, items))


def units(items: Iterable[T]) -> Iterator[T]:
    """Each of `items`. In a forked share, before each one, the process
    checks that its parent is still the pid that forked it, and ends at
    once with status 1 if not: a parent killed by a signal runs no
    `finally` and reaps nothing."""
    for item in items:
        if _parent is not None and os.getppid() != _parent:
            os._exit(1)
        yield item


def run_shares(jobs: int, task: Callable[[int], Any]) -> list:
    """[task(0), ..., task(jobs - 1)], in share order: task(0) runs in this
    process and task(j) in forked child j, so one job forks nothing.
    Share 0's result comes back as it is, and every other share's as an
    equal copy: a child pickles its result to a pipe and ends with
    `os._exit`, so it never flushes this process's buffered output or
    runs its exit handlers. A child whose task raises makes this raise
    `RuntimeError` with the child's traceback, sent as text, since an
    exception whose constructor takes extra arguments cannot be
    unpickled; so does a child that ends without a result this process
    can unpickle. When this process leaves by an exception, its own or a
    child's, it kills and reaps every child; when a signal kills it, each
    child ends before its next unit (`units`)."""
    global _parent
    import pickle  # here, so a run that deals no shares never loads it

    children: list[tuple[int, BinaryIO]] = []  # (pid, read end) of unreaped children
    parent = os.getpid()
    try:
        for j in range(1, jobs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    _parent = parent
                    try:
                        message = {"result": task(j)}
                    except Exception:
                        import traceback  # only a failing share pays for the import

                        message = {"error": traceback.format_exc()}
                    with open(w, "wb") as out:
                        out.write(pickle.dumps(message))
                    code = 0 if "result" in message else 1
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [task(0)]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            try:
                message = pickle.loads(data)
            except Exception:  # ended mid-write, or a result that fails to load
                message = {}
            j = len(results)
            if "error" in message:
                raise RuntimeError(f"forked share {j} failed:\n{message['error']}")
            if status or "result" not in message:
                raise RuntimeError(f"forked share {j} ended with wait status {status}")
            results.append(message["result"])
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return results
