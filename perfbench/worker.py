"""Work done inside the benchmark's child processes.

    python3 perfbench/worker.py setup   --workload W --seed S --data DIR [--tiny]
    python3 perfbench/worker.py measure --workload W --seed S --data DIR
                                        --seconds N --trace 0|1 [--tiny]

`setup` imports tmcf, generates the seeded trace and writes the input CSV;
it times all three from a fresh interpreter. `measure` repeats one
iteration (a fresh `run_pipeline` into a new run directory, then a
`resume=True` call on it) for N seconds, checks every output, and with
--trace 1 adds one traced replica of the same stage sequence. Each phase
prints one JSON object as its last line. run.py starts these processes with
PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

from workloads import INTERVAL_SECONDS, PLANTED_GROUPS, WORKLOADS, Workload

# Files of a run directory whose bytes carry wall times.
TIMED_FILES = ("manifest.json", "train_report.json")
RESUME_MIN_S = 1.5
# The first iteration warms caches and lazy imports: it is checked but not
# timed into the medians, which rest on at least MIN_SAMPLES later ones.
MIN_SAMPLES = 3


def _workload(args) -> Workload:
    w = WORKLOADS[args.workload]
    return w.tiny() if args.tiny else w


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def write_trace_csv(values, path: str) -> None:
    """Canonical trace CSV written with plain Python floats.

    `tmcf.write_canonical_csv` writes `repr(np.float64)`, which numpy 2
    prints as `np.float64(...)` and the loader rejects, so the benchmark
    writes its input itself.
    """
    n_steps, m = values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"f{i}" for i in range(m)) + "\n")
        for step, row in enumerate(values.tolist()):
            fh.write(repr(float(step * INTERVAL_SECONDS)) + "," + ",".join(map(repr, row)) + "\n")


def setup(args) -> dict:
    """Time `import tmcf` + `synth.generate` + the CSV write in this process."""
    w = _workload(args)
    start = time.perf_counter()
    from tmcf import synth

    groups = [
        synth.GroupSpec(n, period, amplitude, noise, shape)
        for n, (shape, period, amplitude, noise) in zip(w.group_sizes(), PLANTED_GROUPS)
    ]
    spec = synth.SynthSpec(
        n_nodes=w.n_nodes, n_steps=w.n_steps, groups=groups, seed=args.seed,
        interval_seconds=INTERVAL_SECONDS,
    )
    tm, planted = synth.generate(spec)
    trace_path = os.path.join(args.data, "trace.csv")
    write_trace_csv(tm.values.reshape(tm.n_steps, tm.n_flows), trace_path)
    setup_s = time.perf_counter() - start
    with open(os.path.join(args.data, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump({"labels": planted.labels.tolist(), "k": int(planted.k)}, fh)
    return {"setup_s": setup_s, "trace_sha256": sha256_file(trace_path)}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: one span per call, written out at the end."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.records),
            "trace_id": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def duration(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = {}
        for r in self.records:
            out[r["name"]] = out.get(r["name"], 0.0) + (r["end"] - r["start"]) - child[r["id"]]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def run_config(w: Workload, data: str, out_dir: str):
    from tmcf import RunConfig

    return RunConfig(
        trace=os.path.join(data, "trace.csv"),
        representation=w.representation,
        metric=w.metric,
        linkage=w.linkage,
        k=w.k,
        epochs=w.epochs,
        profile="desk",
        out_dir=out_dir,
    )


def read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def artifact_bytes(run_dir: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(run_dir):
        for f in files:
            if f not in TIMED_FILES:
                total += os.path.getsize(os.path.join(root, f))
    return total


def read_dendrogram(path: str, n_leaves: int):
    from tmcf import Dendrogram

    merges = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _i, a, b, height, size = line.strip().split(",")
            merges.append((int(a), int(b), float(height), int(size)))
    return Dendrogram(n_leaves=n_leaves, merges=merges)


class Checks:
    """Counts operations and the ones whose output checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def operation(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {p}" for p in problems)


def check_fresh(run_dir: str, k: int) -> list[str]:
    from tmcf import Partition, ValidationError

    problems = []
    report = read_bytes(os.path.join(run_dir, "eval_report.json"))
    if report is None:
        problems.append("eval_report.json missing")
    elif not math.isfinite(json.loads(report)["rmse_normalized"]):
        problems.append("rmse_normalized is not finite")
    part = read_bytes(os.path.join(run_dir, "partition.json"))
    if part is None:
        problems.append("partition.json missing")
    else:
        try:
            ok = Partition.from_dict(json.loads(part)).k == k
        except ValidationError:
            ok = False
        if not ok:
            problems.append(f"partition does not have {k} non-empty clusters")
    return problems


def iteration(cfg, checks: Checks, first: dict, resume_min_s: float) -> tuple[float, list[float]]:
    """One fresh run into an empty run directory, then resumes on it.

    A resume takes under a second on the abilene workloads, so it is repeated
    until resume_min_s seconds are measured; each call is one sample.
    """
    from tmcf import run_pipeline

    run_dir = cfg.out_dir
    report_path = os.path.join(run_dir, "eval_report.json")
    shutil.rmtree(run_dir, ignore_errors=True)
    t0 = time.perf_counter()
    run_pipeline(cfg)
    run_s = time.perf_counter() - t0
    problems = check_fresh(run_dir, cfg.k)
    fresh_report = read_bytes(report_path)
    outputs = {
        "eval_report": fresh_report,
        "partition": read_bytes(os.path.join(run_dir, "partition.json")),
        "artifact_bytes": artifact_bytes(run_dir),
    }
    if not first:
        first.update(outputs)
    elif outputs != first:
        problems.append("outputs differ from the first iteration's")
    checks.operation("fresh run", problems)

    resume_s: list[float] = []
    while not resume_s or sum(resume_s) < resume_min_s:
        t0 = time.perf_counter()
        run_pipeline(cfg, resume=True)
        resume_s.append(time.perf_counter() - t0)
        problems = []
        if read_bytes(report_path) != fresh_report:
            problems.append("eval_report.json differs from the fresh run's")
        checks.operation("resume", problems)
    return run_s, resume_s


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def measure(args) -> dict:
    import numpy as np

    from tmcf import Partition, ari, cut

    w = _workload(args)
    with open(os.path.join(args.data, "planted.json"), encoding="utf-8") as fh:
        planted_doc = json.load(fh)
    planted = Partition(labels=np.asarray(planted_doc["labels"]), k=planted_doc["k"])
    cfg = run_config(w, args.data, os.path.join(args.data, "run"))

    checks = Checks()
    first: dict = {}
    run_s: list[float] = []
    resume_s: list[float] = []
    peak_rss_mb = None
    iterations = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        try:
            r, s = iteration(cfg, checks, first, min(RESUME_MIN_S, args.seconds / 10))
        except Exception:  # noqa: BLE001 - a crashed iteration is a failed operation
            checks.operation("iteration", [traceback.format_exc(limit=3)])
            break
        iterations += 1
        if peak_rss_mb is None:
            # Later iterations only add allocator fragmentation to the peak.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if iterations > 1:
            run_s.append(r)
            resume_s.extend(s)
        gc.collect()
        now = time.perf_counter()
        # Stop before an iteration that would end past the window.
        if len(run_s) >= MIN_SAMPLES and now - start + (now - began) > args.seconds:
            break

    result = {
        "iterations": iterations,
        "run_s": run_s,
        "resume_s": resume_s,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if first.get("eval_report") is not None:
        result["rmse_normalized"] = json.loads(first["eval_report"])["rmse_normalized"]
        dendro = read_dendrogram(os.path.join(cfg.out_dir, "dendrogram.csv"), w.n_flows)
        result["ari_planted"] = ari(cut(dendro, planted.k), planted)
    if args.trace and run_s:
        from replica import traced_iteration

        spans = Spans(trace_id=f"{args.workload}-s{args.seed}")
        try:
            layers, problems = traced_iteration(cfg, planted, spans, os.path.join(args.data, "replica"))
        except Exception:  # noqa: BLE001 - a crashed replica is a failed operation
            layers, problems = None, [traceback.format_exc(limit=3)]
        checks.operation("traced replica", problems)
        if layers is not None:
            layers["pipeline.artifact_bytes"] = first["artifact_bytes"]
            layers["trace.overhead_s"] = spans.duration("run.fresh") - statistics.median(run_s)
            result["per_layer"] = layers
            result["self_time_by_span"] = spans.self_times()
        spans_path = os.path.join(args.data, "spans.jsonl")
        spans.write(spans_path)
        result["spans_file"] = spans_path
    result.update(attempted=checks.attempted, failed=checks.failed, problems=checks.messages)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    out = setup(args) if args.phase == "setup" else measure(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
