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


# ---------------------------------------------------------------------------
# dead-code guard: every module-level definition is reachable from the CLI
# ---------------------------------------------------------------------------

# reached from outside the CLI on purpose; scanned as further roots
KEEP = {
    ("symplectic", "random_symplectic"):
        "perfbench/workloads.py draws the normal-forms matrices with it",
    ("serialize", "write_matrix"):
        "perfbench/workloads.py writes the normal-forms matrices with it",
    ("geodesic", "geodesic_rhs"):
        "array form of _accel; the flow and metric tests go through it",
}

# reached only by their own tests; each group goes in a later change
# together with its tests (ROADMAP item 6)
STAGED = {
    "symplectic": ("polar_decompose", "symplectic_log", "NonresonanceVerdict",
                   "nonresonance_check", "_bump", "_bump_prime", "SmoothRamp",
                   "DeformationSchedule", "reparametrize_flow",
                   "composite_deformation"),
    "escape": ("EscapeDimensionError", "EscapeFunction", "hamiltonian_action",
               "EscapeNormalForm", "UnsupportedShapeError",
               "diagonal_normal_form"),
    "quasimode": ("TruncationCertificate", "ResummedSeries",
                  "_default_cutoff_schedule", "borel_resum"),
    "monodromy": ("AliasingError", "rescale_state"),
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreachable(sources: dict, roots=(("cli", "main"),)) -> set:
    """(module, name) of every module-level def or class that no chain of
    references starting at `roots` (or at a module's top-level statements)
    reaches.  Names resolve within their module, through relative
    `from .mod import name` and through `from . import mod as alias`;
    a reached class brings in all of its methods."""
    refs, pending = {}, list(roots)
    for mod, source in sources.items():
        tree = ast.parse(source)
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)

        def referenced(node, mod=mod, names=names, modules=modules):
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    yield names.get(n.id, (mod, n.id))
                elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id in modules):
                    yield modules[n.value.id], n.attr

        for node in tree.body:
            if isinstance(node, DEFS):
                refs[mod, node.name] = list(referenced(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                pending.extend(referenced(node))
    reached = set()
    while pending:
        key = pending.pop()
        if key in refs and key not in reached:
            reached.add(key)
            pending.extend(refs[key])
    return set(refs) - reached


def test_reachability_scanner():
    sources = {
        "cli": "from .a import f\nfrom . import b as bb\n"
               "def main():\n    f()\n    bb.g()\n",
        "a": "def f():\n    return _h()\n\ndef _h():\n    pass\n\n"
             "def dead():\n    return f()\n",
        "b": "X = 1\n\ndef g():\n    from .a import f\n    return f\n\n"
             "class C:\n    def m(self):\n        return g()\n",
    }
    assert unreachable(sources) == {("a", "dead"), ("b", "C")}


def test_every_definition_is_reachable_from_cli():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert sorted(set(KEEP) - unreachable(sources)) == [], \
        "KEEP lists a name the CLI already reaches"
    dead = unreachable(sources, roots=[("cli", "main"), *KEEP])
    staged = {(mod, name) for mod, names in STAGED.items() for name in names}
    assert sorted(dead - staged) == [], "definitions no CLI path reaches"
    assert sorted(staged - dead) == [], "STAGED lists a name that is reached or gone"
