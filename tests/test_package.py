"""Module boundaries of the tmcf package: no module reaches into another's
private names, so each underscore name can change with its module alone."""

import ast
import pathlib

import pytest

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
