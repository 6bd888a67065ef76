"""Module boundaries of the tmcf package: no module reaches into another's
private names, so each underscore name can change with its module alone; no
module names scipy, a test-only dependency; tmcf.parallel alone forks and
decides how work splits; tmcf.evaluate scores without the forecaster; and
RunConfig alone declares the run settings, which every config-backed CLI
subcommand takes as flags."""

import argparse
import ast
import pathlib

import pytest

from tmcf.cli import build_parser
from tmcf.pipeline import RunConfig

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "tmcf").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    private = [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tmcf")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_names_scipy(path):
    # scipy is a test oracle only; pyproject.toml lists it in the test extra
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]  # an importlib or __import__ argument
        else:
            names = []
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    assert found == []


# the names through which a module would fork or size its own split
SPLIT_NAMES = {"fork_map", "share_count", "usable_cpus"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "parallel.py"],
                         ids=lambda p: p.name)
def test_only_parallel_forks_or_sizes_a_split(path):
    def is_split_name(name, module=None):
        return name in SPLIT_NAMES or (name == "fork" and module == "os")

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            module = node.value.id if isinstance(node.value, ast.Name) else None
            names = [node.attr] if is_split_name(node.attr, module) else []
        elif isinstance(node, ast.Name):
            names = [node.id] if is_split_name(node.id) else []
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if is_split_name(a.name, node.module)]
        else:
            names = []
        found += [f"line {node.lineno}: {name}" for name in names]
    assert found == []


def test_evaluate_imports_nothing_from_the_forecaster():
    # scoring converts predictions to bytes through tmcf.dataset
    path = next(p for p in SOURCES if p.name == "evaluate.py")
    imported = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [name for name in imported if "predict" in name.split(".")] == []


# the run settings each config-backed subcommand takes no flag for
RUN_FLAG_SKIPS = {
    "represent": {"k", "k_grid", "repetitions"},
    "train": {"k", "k_grid", "repetitions"},
    "evaluate": {"k", "k_grid", "repetitions"},
    "sweep": {"k"},
    "run": {"k_grid", "repetitions"},
    "compare": {"k_grid", "repetitions"},
    "validate": set(),
}
# the flags of these subcommands that set no RunConfig field
OWN_DESTS = {"help", "config", "partition", "models", "resume"}


@pytest.mark.parametrize("command", sorted(RUN_FLAG_SKIPS))
def test_every_run_setting_has_a_flag(command):
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    dests = {action.dest for action in subparsers.choices[command]._actions}
    fields = set(RunConfig.__dataclass_fields__)
    assert dests & fields == fields - RUN_FLAG_SKIPS[command]
    assert dests - fields <= OWN_DESTS
