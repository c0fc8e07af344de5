"""The package modules use one another's public names only, and
``pyproject.toml`` declares what they import and the console script."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

from kahlerlab import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "kahlerlab"


def _private_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("kahlerlab")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in _private_imports(path)] == []


PERFBENCH = SRC.parents[1] / "perfbench"

# public names that only tests reach; test-only references live in tests/
TEST_ONLY = {"bundled_scenario_path"}


def _references(path: Path, strings: bool = False) -> set:
    """The names a module reads or imports, and with ``strings`` its string
    constants (perfbench patches functions by name)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller_in_src_or_perfbench():
    # the package's re-exports are not callers
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    refs = set().union(*map(_references, modules),
                       *(_references(p, strings=True) for p in PERFBENCH.glob("*.py")))
    unreached = [f"{path.name}: {node.name}" for path in modules
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.decorator_list and not node.name.startswith("_")
                 and node.name not in refs | TEST_ONLY]
    assert unreached == []


def _imported_packages(path: Path) -> set:
    """The top-level packages a module imports absolutely, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_pyproject_names_what_src_imports_and_the_console_script():
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later
    with open(SRC.parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    imported = set().union(*map(_imported_packages, SRC.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"kahlerlab"}
    assert {re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]} == third_party
    module, _, name = project["scripts"]["kahlerlab"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
