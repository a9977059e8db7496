"""Every name a module imports is read somewhere in that module.

The repository runs no linter, so this is the unused-import check: each module
under src/ and tests/ is parsed with `ast`, and an imported name that no
expression of the module loads fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no `Name` node loads; an
    `import a.b` binds `a`.  `__future__` imports bind nothing."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\nimport numpy.linalg\n"
           "from json import dumps, loads as load_json\n"
           "def f(x: dumps) -> None:\n    numpy.linalg.norm(x)\n")
    assert unused_imports(src) == ["os (line 2)", "osp (line 2)", "load_json (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
