"""skelgram depends on the standard library alone (pyproject lists no
dependencies): every import in the package is relative or names a
standard-library module.  And every module uses each name it imports."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skelgram"
SOURCES = sorted(PACKAGE.glob("*.py"))


def outside_imports(source: str) -> list:
    """The top-level names of the absolute imports of `source` that are not
    standard-library modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def unused_imports(source: str) -> list:
    """The names `source` imports, at any depth, that no expression of it
    reads; `from __future__` features are not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_package_has_sources():
    assert PACKAGE / "__init__.py" in SOURCES and len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_standard_library(path):
    assert outside_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_catches_outside_imports():
    source = ("import numpy as np\nimport os.path, scipy.sparse\n"
              "from fractions import Fraction\nfrom .trees import Leaf\n"
              "from pandas import DataFrame\ndef f():\n    import sympy\n")
    assert outside_imports(source) == ["numpy", "scipy.sparse", "pandas", "sympy"]


# __init__ imports to re-export: its names are the package's interface
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_catches_unused_imports():
    source = ("from __future__ import annotations\nimport os.path, sys\n"
              "import itertools as it\nfrom fractions import Fraction\n"
              "from .trees import Leaf, compose\n"
              "def f(x: Leaf) -> int:\n    import random\n    return os.path.sep\n")
    assert unused_imports(source) == ["sys", "it", "Fraction", "compose", "random"]
