"""The module layers of ``selfsim``: every module imports only modules of
lower layers, and only at its top, never inside a function or class body, so
importing a module loads no module of a higher layer."""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("layer", LAYERS)
def test_importing_a_layer_loads_no_higher_layer(layer):
    # a fresh interpreter, since this one has imported every module already
    src = str(MODULES[0].parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, selfsim.{layer}; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    loaded = {m.removeprefix("selfsim.") for m in result.stdout.split() if m.startswith("selfsim.")}
    assert layer in loaded
    assert not loaded & set(LAYERS[LAYERS.index(layer) + 1 :]), sorted(loaded)


def _scopes_naming(tree: ast.AST, attr: str) -> set[str]:
    """The dotted names of the functions and classes whose own bodies name
    ``attr`` as an attribute; the module's own body is ``""``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.add(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_trivial_reads_the_triviality_memo():
    # a machine makes the memo, and ``_trivial`` alone reads and writes its
    # records and depth-(leaf + 1) verdicts, and its one helper the section
    # tables of that depth; a caller learns the proven depth from
    # ``_trivial``'s answer
    readers = {
        attr: {
            f"{path.stem}.{scope}"
            for path in MODULES
            for scope in _scopes_naming(ast.parse(path.read_text(encoding="utf-8")), attr)
        }
        for attr in ("_triv", "_verdicts", "_section_tables")
    }
    assert readers == {
        "_triv": {"tree_core.SelfSimilarMachine.__init__", "tree_core._trivial"},
        "_verdicts": {"tree_core.SelfSimilarMachine.__init__", "tree_core._trivial"},
        "_section_tables": {"tree_core.SelfSimilarMachine.__init__", "tree_core._section_verdict"},
    }


def test_only_states_reads_a_model_in_tree_core():
    # the base class reads no subclass-only field: ``_trivial`` compares a
    # class key with the empty word's, and ``states`` alone asks for a model
    tree_core = next(path for path in MODULES if path.stem == "tree_core")
    assert _scopes_naming(ast.parse(tree_core.read_text(encoding="utf-8")), "model") == {"states"}
