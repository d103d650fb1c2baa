"""Every module of the library, and every script and test file, uses each
name it imports at module level (``__init__.py`` imports to re-export)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "holodyn").glob("*.py") if p.name != "__init__.py")
SCRIPTS_AND_TESTS = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str):
    """Names bound by the module-level imports of ``source`` that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d\nsys.exit(d)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS_AND_TESTS,
                         ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
