"""Smoke test of the benchmark harness: every workload's code path, the traced
replica included, at a toy size (`--tiny`), in a scratch copy of the sources.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(ROOT, "src", "tmcf"), root / "src" / "tmcf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer(checkout, workload):
    result = result_of(bench(checkout, workload, trace=1))
    assert units(result) == declared("per_layer")
    spans = checkout / ".perfbench_work" / "spans" / f"{workload}-s3-tiny.jsonl"
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"run.fresh", "run.resume", "cluster.hac", "predict.load_model"} <= names


def test_end_to_end_metrics(checkout):
    result = result_of(bench(checkout, "abilene-hist-k16", trace=0))
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_sources(tmp_path):
    proc = bench(tmp_path, "abilene-hist-k16", trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
