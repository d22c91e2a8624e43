"""Tooling check: every name a module imports at module level is used."""

import ast
from pathlib import Path

import pytest

import monodromy_lab

MODULES = sorted(p for p in Path(monodromy_lab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_name():
    src = "import os\nfrom math import pi, tau\nimport numpy as np\nx = np.pi * tau\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
