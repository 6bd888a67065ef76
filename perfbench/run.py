"""Benchmark of the tmcf pipeline on seeded synthetic traces.

Run from the repository root:

    python3 perfbench/run.py --workload abilene-hist-k16 --seed 0 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced replica run. Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Work files go to .perfbench_work/ in
the current directory. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "run_s": "s",
    "resume_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rmse_normalized": "1",
    "ari_planted": "1",
}
PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.cells": "count",
    "dataset.load_cells_per_s": "1/s",
    "dataset.prepare_s": "s",
    "represent.features_s": "s",
    "represent.dissimilarity_s": "s",
    "represent.pairs": "count",
    "cluster.hac_s": "s",
    "cluster.cut_s": "s",
    "cluster.merges": "count",
    "predict.train_s": "s",
    "predict.models": "count",
    "predict.epochs": "count",
    "predict.adam_steps": "count",
    "predict.train_us_per_step": "us",
    "predict.useful_epoch_ratio": "1",
    "predict.predict_s": "s",
    "predict.save_s": "s",
    "predict.load_s": "s",
    "evaluate.score_s": "s",
    "pipeline.artifacts_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly between runs of the same source and seed.
EXACT_COUNTS = (
    "dataset.cells", "represent.pairs", "cluster.merges", "predict.models",
    "predict.epochs", "predict.adam_steps", "pipeline.artifact_bytes",
)


class BenchError(Exception):
    pass


def source_info(root: str) -> dict:
    """Source hash and line count of src/tmcf/*.py, plus the git commit if any."""
    src = os.path.join(root, "src", "tmcf")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest(), "source_lines": lines}


def run_worker(phase: str, args, data: str, deadline: float) -> dict:
    """Run one worker phase in a fresh interpreter; returns its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), phase,
        "--workload", args.workload, "--seed", str(args.seed), "--data", data,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Single-threaded BLAS: the pipeline's matrices are small, and default
    # threading only widens the run-to-run spread on a shared machine.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    # The replica trains on one thread, so the real runs must too.
    env.pop("TMCF_WORKERS", None)
    # glibc's initial mmap threshold, held fixed. Left dynamic, it grows as
    # large arrays are freed, and the peak RSS of the same work then varied
    # by 7% (IQR/median) over five seeds with heap fragmentation.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {phase} phase")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(counts: dict, path: str) -> list[str]:
    """Compare exact counts with an earlier run of the same source and seed."""
    previous = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    problems = [
        f"{name} is {value}, an earlier run of the same source and seed had {previous[name]}"
        for name, value in counts.items()
        if name in previous and previous[name] != value
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**counts, **previous}, fh, indent=1, sort_keys=True)
    return problems


def benchmark(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-s{args.seed}" + ("-tiny" if args.tiny else "")
    data = os.path.join(WORK_DIR, "tmp", tag)
    for sub in ("tmp", "results", "spans", "counts"):
        os.makedirs(os.path.join(WORK_DIR, sub), exist_ok=True)
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    info = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "seconds": args.seconds, "trace": args.trace, **source_info(os.getcwd())}
    try:
        setups = [run_worker("setup", args, data, deadline)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        measured = run_worker("measure", args, data, deadline)
        if measured.get("spans_file"):
            shutil.move(measured["spans_file"], os.path.join(WORK_DIR, "spans", f"{tag}.jsonl"))
            measured["spans_file"] = os.path.join(WORK_DIR, "spans", f"{tag}.jsonl")
    finally:
        shutil.rmtree(data, ignore_errors=True)

    problems = list(measured["problems"])
    attempted = len(setups) + measured["attempted"]
    failed = measured["failed"]
    if len({s["trace_sha256"] for s in setups}) != 1:
        problems.append("setup: repeated set-ups wrote different input files")
        failed += 1
    if args.trace:
        layers = measured.get("per_layer", {})
        counts = {k: layers[k] for k in EXACT_COUNTS if k in layers}
        count_problems = check_counts(
            counts, os.path.join(WORK_DIR, "counts", f"{tag}-{info['source_sha256'][:16]}.json"))
        problems += count_problems
        failed += 1 if count_problems else 0
        values, units = layers, PER_LAYER
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
        if measured["run_s"]:
            values["run_s"] = statistics.median(measured["run_s"])
            values["resume_s"] = statistics.median(measured["resume_s"])
            values["peak_rss_mb"] = measured["peak_rss_mb"]
        for key in ("rmse_normalized", "ari_planted"):
            if key in measured:
                values[key] = measured[key]
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    if len(metrics) != len(units):
        problems.append(f"metrics missing: {sorted(set(units) - set(metrics))}")
        failed = max(failed, 1)
    record = {
        "info": {**info, "environment": measured["environment"],
                 "iterations": measured["iterations"], "setup_repeats": len(setups)},
        "samples": {"setup_s": [s["setup_s"] for s in setups], "run_s": measured["run_s"],
                    "resume_s": measured["resume_s"]},
        "self_time_by_span": measured.get("self_time_by_span"),
        "spans_file": measured.get("spans_file"),
        "problems": problems,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    with open(os.path.join(WORK_DIR, "results", f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tmcf pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run every code path at a toy size (harness smoke test)")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "tmcf", "__init__.py")):
        print("error: run from the root of a tmcf checkout (src/tmcf not found)", file=sys.stderr)
        return 2
    try:
        record = benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, value in record["info"].items():
        print(f"info {key}: {json.dumps(value)}")
    for name, m in record["result"]["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
