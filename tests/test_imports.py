"""The package modules use one another's public names only."""

import ast
from pathlib import Path

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
