"""The fork routine behind every parallel stage: `kempe.shares`."""

from __future__ import annotations

import os
import pickle
import time

import pytest

import kempe.shares as shares
from kempe.classify import BudgetExceededError
from kempe.report import VerificationReport, passing
from kempe.shares import run_shares, units


def use_cpus(monkeypatch, jobs: int) -> None:
    """Make every parallel stage see `jobs` usable CPUs."""
    monkeypatch.setattr(shares, "_usable_cpus", lambda: jobs)


def record_forks(monkeypatch) -> list[int]:
    """Make `os.fork` record the pid of each child it starts."""
    forks = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forks


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_usable_cpus(monkeypatch):
    """The CPUs in this process's affinity set, or 1 where the OS keeps
    none."""
    if hasattr(os, "sched_getaffinity"):
        assert shares._usable_cpus() == len(os.sched_getaffinity(0)) >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert shares._usable_cpus() == 1


def test_results_come_back_in_share_order(monkeypatch):
    """Share 0's result is returned as it is, every other share's as an
    equal copy: tuples stay tuples, and a report comes back a report."""
    forks = record_forks(monkeypatch)

    def task(j):
        report = passing("check", met=j, pair=[j, j])
        return {"share": j, "pid": os.getpid(), "pair": (j, j), "report": report}

    results = run_shares(3, task)
    assert len(forks) == 2
    assert [r["share"] for r in results] == [0, 1, 2]
    assert [r["pid"] for r in results] == [os.getpid(), *forks]
    assert [r["pair"] for r in results] == [(0, 0), (1, 1), (2, 2)]
    for j, r in enumerate(results):
        assert type(r["report"]) is VerificationReport
        assert r["report"] == passing("check", met=j, pair=[j, j])
    assert_no_child_left()


def test_a_budget_error_comes_back_as_itself():
    """A child whose task runs out of solver budget makes this process
    raise the same `BudgetExceededError`, with its node count and partial
    coloring, not a `RuntimeError` around its traceback."""

    def task(j):
        if j:
            raise BudgetExceededError(7, {(0, 1): j})
        return []

    with pytest.raises(BudgetExceededError) as info:
        run_shares(3, task)
    assert str(info.value) == "solver budget exceeded after 7 nodes"
    assert (info.value.nodes, info.value.partial) == (7, {(0, 1): 1})
    assert_no_child_left()


def test_a_result_written_in_part_is_an_error(monkeypatch):
    """A child that writes only part of its pickled result and then ends
    with status 0 fails the stage with a `RuntimeError` naming its share,
    not with the unpickling error."""
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: dumps(obj)[:-4])
    with pytest.raises(RuntimeError, match="forked share 1 ended with wait status 0$"):
        run_shares(2, lambda j: list(range(100)))
    assert_no_child_left()


def test_an_exception_here_kills_every_child():
    """Share 0 raising leaves at once: the children, still at work, are
    killed and reaped rather than waited for."""

    def task(j):
        if j == 0:
            raise ValueError("planted failure in share 0")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="planted failure in share 0"):
        run_shares(3, task)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_failed_fork_closes_its_pipe(monkeypatch):
    """When `os.fork` fails for the second child, the error leaves the
    stage, both ends of that child's pipe are closed and the first child
    is reaped."""
    fork, calls = os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("planted fork failure")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    open_fds = len(os.listdir("/dev/fd"))
    with pytest.raises(OSError, match="planted fork failure"):
        run_shares(3, lambda j: j)
    assert len(calls) == 2
    assert len(os.listdir("/dev/fd")) == open_fds
    assert_no_child_left()


def test_an_orphaned_share_stops_before_its_next_unit():
    """A share whose parent is no longer the pid that forked it, as after
    a parent killed by a signal, ends with status 1 and does no unit."""
    pid = os.fork()
    if pid == 0:
        try:
            shares._parent = -1
            for _ in units([0]):
                os._exit(2)
        finally:
            os._exit(3)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1
