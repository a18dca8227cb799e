"""The package runs on the standard library alone (``dependencies = []``)."""

import ast
import pathlib
import sys

import discsp

PACKAGE_DIR = pathlib.Path(discsp.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that are not stdlib modules."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_the_guard_sees_absolute_imports_only():
    source = ("import numpy as np\nfrom hypothesis import given\n"
              "import os.path\nfrom . import crypto\nfrom .model import Problem\n"
              "def f():\n    import scipy.sparse\n")
    assert foreign_imports(source) == ["numpy", "hypothesis", "scipy.sparse"]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 10
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8"))
             for path in sources}
    assert {name: bad for name, bad in found.items() if bad} == {}
