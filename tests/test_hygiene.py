"""Source hygiene: no module of the package or of its tests imports a name
it never uses.

The scan reads each file's syntax tree, so it needs no import of the module.
A package `__init__.py` is exempt: its imports are the public re-exports.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in (ROOT / "src" / "sparsetok", ROOT / "tests")
                 for path in folder.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` and read nowhere in it.

    A name counts as read wherever it appears as an expression, including
    the root of an attribute chain (`np` in `np.zeros`) and annotations.
    """
    tree = ast.parse(source)
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_imports():
    source = ("import os\nimport xml.etree.ElementTree as ET\n"
              "from typing import Callable, Sequence\nfrom . import autodiff as ad\n"
              "def f(x: Sequence[int]) -> int:\n    return ad.g(x)\n")
    assert unused_imports(source) == ["Callable", "ET", "os"]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"selection.py", "model.py", "test_hygiene.py"} <= names
