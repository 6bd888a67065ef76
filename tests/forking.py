"""Helpers for tests of code that forks worker processes (tmcf.parallel)."""

import os
import signal
import threading

import pytest

from tmcf import parallel


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def fork_any_work(monkeypatch):
    """Let every layer split work of any size over the usable CPUs."""
    monkeypatch.setattr(parallel, "_MIN_SHARE_SECONDS", 1e-12)


class Forks(list):
    """The pids of forked children; `threads` holds, per fork, the Python
    threads (threading.active_count) and the OS threads of this process
    just before it forked."""

    def __init__(self):
        super().__init__()
        self.threads = []


def count_forks(monkeypatch) -> Forks:
    """The children forked from now on, as seen by this process."""
    pids, real_fork = Forks(), os.fork

    def fork():
        pids.threads.append((threading.active_count(), len(os.listdir("/proc/self/task"))))
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """A parent that waits on a lost child fails here instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("no return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
