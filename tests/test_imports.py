"""Every module in src/cdcover uses each name it imports.

No linter ships with the project, so this is a stdlib stand-in for the
unused-import check. `__init__.py` is exempt: its imports are re-exports.
"""
import ast
from pathlib import Path

import pytest

import cdcover

SRC = Path(cdcover.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_unused_imports_detects_and_allows():
    assert unused_imports("import os\nfrom a import b as c\n") == [
        "line 2: c", "line 1: os"]
    assert unused_imports("import os.path\nos.path.join\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from x import y, z\ndef f(a: y): pass\n") == ["line 1: z"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
