"""tmcf.parallel: fork_map runs the first item in the calling process (or
none) and each other in a forked child, raises what a share raised, and
leaves no child behind; share_count decides how many shares a layer's work
pays for."""

import os
import time

import numpy as np
import pytest

from tmcf import parallel

from forking import (  # noqa: F401 - deadline is a fixture
    assert_no_children, count_forks, deadline, usable_cpus)

pytestmark = pytest.mark.usefixtures("deadline")


def test_the_first_item_runs_here_and_each_other_in_a_child(monkeypatch):
    forks = count_forks(monkeypatch)
    got = parallel.fork_map(lambda item: (item, os.getpid()), [3, 1, 2])
    assert [item for item, _ in got] == [3, 1, 2]
    assert got[0][1] == os.getpid()
    assert [pid for _, pid in got[1:]] == forks
    assert_no_children()


def test_not_first_here_runs_every_item_in_a_child(monkeypatch):
    forks = count_forks(monkeypatch)
    got = parallel.fork_map(lambda item: os.getpid(), [0, 1], first_here=False)
    assert got == forks and len(forks) == 2
    assert_no_children()


def test_results_larger_than_a_pipe_buffer_come_back_whole():
    got = parallel.fork_map(lambda item: np.full(1 << 20, float(item)), [0, 1, 2])
    assert [float(a.sum()) for a in got] == [0.0, float(1 << 20), float(2 << 20)]
    assert_no_children()


def test_an_exception_in_a_child_is_raised_with_its_type():
    def fn(item):
        if item == 2:
            raise KeyError("two")
        return item

    with pytest.raises(KeyError, match="two"):
        parallel.fork_map(fn, [0, 1, 2])
    assert_no_children()


def test_of_several_exceptions_the_first_by_item_order_is_raised():
    def fn(item):
        if item:
            raise ValueError(str(item))
        return item

    with pytest.raises(ValueError, match="1"):
        parallel.fork_map(fn, [0, 1, 2])
    assert_no_children()


def test_an_exception_here_kills_and_reaps_the_children():
    def fn(item):
        if item == 0:
            raise ValueError("here")
        time.sleep(120)  # past the deadline, were the child awaited

    with pytest.raises(ValueError, match="here"):
        parallel.fork_map(fn, [0, 1])
    assert_no_children()


def test_a_child_that_ends_without_a_result_raises():
    def fn(item):
        if item:
            os._exit(5)
        return item

    with pytest.raises(RuntimeError, match="exit code 5"):
        parallel.fork_map(fn, [0, 1])
    assert_no_children()


@pytest.mark.parametrize("cpus,work,items,expected", [
    (1, 100.0, 100, 1),  # one CPU: the serial code
    (4, 100.0, 100, 4),  # one share per CPU
    (4, 100.0, 3, 3),  # at most one per item
    (4, 2.5, 100, 2),  # at most one per _MIN_SHARE_SECONDS of work
    (4, 0.9, 100, 1),
    (4, 0.0, 0, 1),
])
def test_share_count(monkeypatch, cpus, work, items, expected):
    usable_cpus(monkeypatch, cpus)
    assert parallel.share_count(work * parallel._MIN_SHARE_SECONDS, items) == expected
