"""The module layers of ``selfsim``: every module imports only modules of
lower layers, and only at its top, never inside a function or class body."""

import ast
from pathlib import Path

import pytest

LAYERS = ["perm_word", "tree_core", "gdata_engine", "wreath_models", "mealy", "cli"]
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "selfsim").glob("*.py"))


def test_every_module_has_a_layer():
    assert {path.stem for path in MODULES} == set(LAYERS) | {"__init__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_imports_are_at_the_top_and_go_down(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{path.name}:{node.lineno}: import inside {scope.name}"
                )
    # the package's __init__ stands above every layer
    below = LAYERS[: LAYERS.index(path.stem)] if path.stem in LAYERS else LAYERS
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for target in [node.module] if node.module else [alias.name for alias in node.names]:
                assert target in below, f"{path.name}:{node.lineno}: imports {target}"
