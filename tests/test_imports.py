"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modinvar"

# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names that source imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_name():
    assert "groebner.py" in MODULES
    assert unused_imports("from operator import add, mul\n"
                          "import numpy as np\n"
                          "def f(a):\n"
                          "    from . import linalg\n"
                          "    return mul(a, linalg.x)\n") == ["add", "np"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\n"
                          "os.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
