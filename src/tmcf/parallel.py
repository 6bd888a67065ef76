"""Forked worker processes, one per usable CPU, for work that splits into
independent shares, and the row blocks of passes over large arrays; this
module alone decides how work is cut and where each share runs.

A layer says only what to split and what it costs. split(fn, n, seconds)
cuts range(n) into contiguous, near-equal ranges, one per share: one share
per usable CPU, but at most one per unit and at most one per
_MIN_SHARE_SECONDS of the layer's estimated serial work (share_count). The
calling process computes the first range and a forked child each other
one. The trace parse splits its bytes, the ACF features their rows and the
dissimilarities their row pairs this way. deal(fn, costs) deals costed
items to one share per usable CPU, at most one per item, and training deals
its clusters so. Several shares all run in children, so that the calling
process holds none of their workspace; one share runs in the calling
process. Each share computes its part exactly as the serial code does, so
the results are bit-identical however the work is split, and with one
usable CPU every layer runs in the calling process.

Fork, not spawn: a child reads its inputs from the parent's pages with no
pickle and no import. It runs only numpy and its pipe, and OpenBLAS restarts
its thread pool in a forked child. Threads gain nothing here: the work is
many numpy calls of microseconds each, and hand-offs of the GIL between them
made three desk-profile training groups on 2 vCPUs run at half the speed of
one thread.
"""

from __future__ import annotations

import os
import pickle
import signal

# Estimated seconds of serial work that each share must carry. On the
# 2-vCPU host the benchmark runs on, forking a child from a run's process,
# letting it exit and reaping it took 2-4 ms (2.3 ms from a bare
# interpreter), and a call over two children 7-13 ms before any work. At
# 30 ms per share a layer splits in two from about 60 ms of work: the parse,
# JSD distances and PSD distances of a 576-flow trace do (about 0.2, 0.065
# and, estimated, 0.12 s), and so do the ACF features of a 144-flow trace of
# the paper's length (0.25 s), while the 576-flow trace's 0.02-s ACF
# features, its 0.03-s Euclidean distances of ACF vectors, every layer of a
# 144-flow trace of 806 steps and every test-sized input stay serial, and
# the PSD features (at most about 50 ms, see tmcf.represent) never split.
_MIN_SHARE_SECONDS = 0.03

# Values per row block of the passes over large arrays: histogram bin
# indices, PSD slabs, the checks of a dissimilarity matrix or of flows, hac's
# row-minimum refreshes and scoring's conversion to bytes. Each temporary of a
# block stays under glibc's 128-KiB mmap threshold, so the heap reuses it in
# cache. On the 2-vCPU benchmark host (CPU time, medians of 5-9), against
# whole-array temporaries: histograms of 2304 x 806 blocks 72 -> 41 ms (57 ->
# 1.9 MiB peak), of 144 x 38,707 232 -> 200 ms; the checks of an M=2304 matrix
# 133 -> 45 ms (hac in place with them 0.82 s, on a copy 1.07 s); PSD slabs of
# 64 rows of 256 steps on 2304 x 806 blocks 24 -> 17 ms (15.9 -> 4.8 MiB).
BLOCK_VALUES = 1 << 14


def block_rows(row_values: int) -> int:
    """Rows of row_values values per block of about BLOCK_VALUES, at least 1."""
    return max(1, BLOCK_VALUES // max(row_values, 1))


def usable_cpus() -> int:
    """The CPUs this process may run on (os.sched_getaffinity), else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def share_count(seconds: float, items: int) -> int:
    """Into how many shares (see fork_map) a layer splits work that would
    take about `seconds` in the calling process and has `items` separable
    parts: one per usable CPU, but at most one per item and at most one per
    _MIN_SHARE_SECONDS of work. 1 means: all of it in the calling process."""
    return max(1, min(usable_cpus(), items, int(seconds / _MIN_SHARE_SECONDS)))


def fork_map(fn, items: list, first_here: bool = True) -> list:
    """[fn(item) for item in items]: the first call in this process, each
    other in its own forked child process (every call, when not
    first_here), which inherits fn's data, pickles back only fn's result
    and exits. Every child's result is read to EOF and the child reaped
    before this returns or raises. An exception in fn is raised here, the
    first by item order, and so is a RuntimeError for a child that ends
    without a result; a child left running by an error here is killed and
    reaped. A child takes no further work, so none waits on a parent that
    is gone."""
    here = items[:1] if first_here else []
    pids, readers, ended = [], [], []
    try:
        for item in items[len(here):]:
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            try:
                pid = os.fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:  # the child: never returns to the caller
                code = 1
                try:
                    try:
                        outcome = (True, fn(item))
                    except Exception as exc:  # noqa: BLE001 - raised again in the parent
                        outcome = (False, exc)
                    with open(w, "wb") as fh:
                        pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pids.append(pid)
        values = [fn(item) for item in here]
        for pid, reader in zip(pids, readers):
            # unpickled from the pipe as it arrives, so no copy of the
            # pickled bytes is held next to the result
            try:
                outcome = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            reader.read()
            ended.append((outcome, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    finally:
        for reader in readers:
            reader.close()
        for pid in pids[len(ended):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for item, (outcome, code) in zip(items[len(here):], ended):
        if code != 0 or outcome is None:
            raise RuntimeError(f"the process for {item} ended with exit code {code} "
                               "and sent no result")
        ok, value = outcome
        if not ok:
            raise value
        values.append(value)
    return values


def split(fn, n: int, seconds: float) -> list:
    """[fn(lo, hi)] over share_count(seconds, n) contiguous, near-equal
    ranges [lo, hi) that cover range(n) in order: the first in this
    process, each other in a forked child (fork_map)."""
    shares = share_count(seconds, n)
    cuts = [n * i // shares for i in range(shares + 1)]
    return fork_map(lambda r: fn(*r), list(zip(cuts, cuts[1:])))


def deal(fn, costs: list) -> list:
    """[fn(share)] for the indices of costs dealt to min(usable CPUs,
    len(costs)) shares of near-equal total: largest cost first (ties by
    index), each to the share with the least total so far (Graham's LPT
    rule). Each share lists its indices in ascending order. Several shares
    all run in forked children; one runs in this process."""
    n = min(usable_cpus(), len(costs))
    shares, totals = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        least = totals.index(min(totals))
        shares[least].append(i)
        totals[least] += costs[i]
    # several shares all run in children: when the calling process trained
    # the first share itself, its training workspace raised the run's peak
    # RSS by 2.5 MiB (6%) on a 144-flow trace
    return fork_map(fn, [sorted(share) for share in shares], first_here=n == 1)
