"""Tooling checks: every name a module imports at module level is used,
no function imports from a sibling module, every definition is reachable
from the CLI, every method of a reached class and every dataclass field is
read somewhere in the package, every default is passed by some call in the
package or the benchmark, every parameter is read by its function, only
cli.main makes the output directory and writes the manifest, and no module
imports scipy.linalg, which no command then loads, nor scipy.sparse.linalg
outside a function."""

import ast
import json
import math
import os
import subprocess
import sys
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
# no package import inside a function: a deferred `from .mod import name`
# hides an import cycle between modules
# ---------------------------------------------------------------------------

def deferred_package_imports(source: str) -> list:
    """Line of every `from .<module> import ...` inside a function body;
    `from . import name` and absolute imports may be deferred."""
    return sorted({node.lineno for f in ast.walk(ast.parse(source))
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(f)
                   if isinstance(node, ast.ImportFrom) and node.level and node.module})


def test_deferred_import_scanner():
    src = ("from .a import f\nfrom . import b\n"
           "def g():\n    from .a import h\n    from . import __version__\n"
           "    import scipy.sparse.linalg\n    from scipy import sparse\n"
           "    def inner():\n        from ..c import k\n\n"
           "class C:\n    async def m(self):\n        from .d import e\n")
    assert deferred_package_imports(src) == [4, 9, 13]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_the_package_at_module_level(path):
    assert deferred_package_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# dead-code guard: every module-level definition is reachable from the CLI
# ---------------------------------------------------------------------------

# reached from outside the CLI on purpose; scanned as further roots
KEEP = {
    ("symplectic", "random_symplectic"):
        "perfbench/workloads.py draws the normal-forms matrices with it",
    ("serialize", "write_matrix"):
        "perfbench/workloads.py writes the normal-forms matrices with it",
    ("weyl", "microlocal_cutoff"):
        "perfbench/worker.py's probe times it; the dense oracle of microlocal_basis",
}

# module -> names reached only by their own tests, listed until a later
# change deletes them together with those tests (ROADMAP item 6)
STAGED = {}

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


def attribute_reads(tree) -> set:
    """Every attribute name the module loads, except through a module bound
    by `import` (np.linalg.norm reads no attribute of the package)."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in imported):
                read.add(node.attr)
    return read


def unread_methods(sources: dict, roots) -> set:
    """(module, class, name) of every method or property of a class that
    `unreachable` does not flag (so not of a STAGED class), whose name no
    module reads as an attribute.  Dunder methods are exempt, since the
    language calls them."""
    dead = unreachable(sources, roots)
    methods, read = {}, set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and (mod, node.name) not in dead:
                methods[mod, node.name] = [
                    f.name for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
        read |= attribute_reads(tree)
    return {(mod, cls, name) for (mod, cls), names in methods.items()
            for name in names if name not in read}


def test_method_scanner():
    sources = {
        "cli": "import numpy as np\nfrom .a import P\n"
               "def main():\n    p = P()\n    return p.used + np.linalg.norm(p.x)\n",
        "a": "class P:\n    def __init__(self):\n        self.x = 1\n\n"
             "    @property\n    def used(self):\n        return self.helper()\n\n"
             "    def helper(self):\n        return 1\n\n"
             "    def norm(self):\n        return 0\n\n"
             "    @property\n    def spare(self):\n        return 2\n\n"
             "class Dead:\n    def m(self):\n        return P()\n",
    }
    found = unread_methods(sources, roots=[("cli", "main")])
    assert found == {("a", "P", "norm"), ("a", "P", "spare")}


def test_every_method_is_read_in_src():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert sorted(unread_methods(sources, roots=[("cli", "main"), *KEEP])) == [], \
        "methods no module reads; move them into the tests that use them"


# (module, class, field) -> why a field no module reads is kept
UNREAD_FIELDS = {}


def unread_fields(sources: dict) -> set:
    """(module, class, field) of every annotated field of a @dataclass
    whose name no module reads as an attribute.  Names are matched alone,
    so a field shares the reads of any attribute of the same name."""
    fields, read = [], set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", [])]
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                fields += [(mod, node.name, f.target.id) for f in node.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        read |= attribute_reads(tree)
    return {field for field in fields if field[2] not in read}


def test_field_scanner():
    sources = {
        "a": "import numpy as np\nfrom dataclasses import dataclass\n\n"
             "@dataclass(frozen=True)\nclass R:\n    used: int\n    spare: int\n"
             "    shape: tuple = ()\n\n"
             "@dataclass\nclass S:\n    tag: str\n\n"
             "class Plain:\n    note: str\n\n"
             "def f(r):\n    return np.shape(r.used)\n",
    }
    assert unread_fields(sources) == {("a", "R", "spare"), ("a", "R", "shape"),
                                      ("a", "S", "tag")}


def test_every_field_is_read_in_src():
    unread = unread_fields({p.stem: p.read_text() for p in MODULES})
    assert sorted(unread - set(UNREAD_FIELDS)) == [], \
        "dataclass fields no module reads; delete them"
    assert sorted(set(UNREAD_FIELDS) - unread) == [], \
        "UNREAD_FIELDS lists a field that is read or gone"


# ---------------------------------------------------------------------------
# parameter guards: every default is turned by a caller, every parameter read
# ---------------------------------------------------------------------------

# calls from these files turn a default; tests do not count
CALLERS = MODULES + sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# (module, function, parameter) -> why a default no caller turns is kept
KEPT_DEFAULTS = {
    ("symplectic", "random_symplectic", "scale"):
        "tests draw well-conditioned conjugations with a small scale",
    ("weyl", "microlocal_cutoff", "width_x"):
        "the dense reference of microlocal_basis; tests compare at other widths",
    ("weyl", "microlocal_cutoff", "width_xi"):
        "the dense reference of microlocal_basis; tests compare at other widths",
}


def _functions(tree):
    """(def node, number of leading parameters a call does not pass) for
    every def in the tree: 1 for a method's self or cls, else 0."""
    bound = {id(f) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in f.decorator_list)}
    return [(node, int(id(node) in bound)) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def unturned_defaults(sources: dict, callers: dict) -> set:
    """(module, function, parameter) of every defaulted parameter of a def
    in `sources` that no call in `callers` passes, by keyword or by
    position.  A call matches every def of its bare name (f(...) and
    obj.f(...) alike); one that splats *args or **kwargs passes all."""
    passed = {}  # callee name -> (most positional arguments, keywords)
    for source in callers.values():
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            splat = (any(isinstance(a, ast.Starred) for a in call.args)
                     or any(k.arg is None for k in call.keywords))
            n_pos, keys = passed.get(name, (0, set()))
            passed[name] = (math.inf if splat else max(n_pos, len(call.args)),
                            keys | {k.arg for k in call.keywords})
    flagged = set()
    for mod, source in sources.items():
        for fn, skip in _functions(ast.parse(source)):
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            defaulted = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
            defaulted += [(a.arg, math.inf) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            n_pos, keys = passed.get(fn.name, (0, set()))
            flagged |= {(mod, fn.name, arg) for arg, pos in defaulted
                        if arg not in keys and pos >= n_pos}
    return flagged


def test_unturned_default_scanner():
    sources = {
        "a": "def f(x, y=1, z=2, *, w=3):\n    return x + y + z + w\n\n"
             "def g(u=0, v=1):\n    return u + v\n\n"
             "class C:\n    def m(self, p=1, q=2):\n        return p + q\n\n"
             "    @staticmethod\n    def s(p=1):\n        return p\n\n"
             "def unused(k=5):\n    return k\n",
    }
    callers = {
        "a": sources["a"],
        "b": "from a import f, g, C\n"
             "f(0, 1)\nf(0, w=4)\ng(*[1])\nC().m(7)\nC.s()\n",
    }
    assert unturned_defaults(sources, callers) == {
        ("a", "f", "z"), ("a", "m", "q"), ("a", "s", "p"), ("a", "unused", "k")}


def test_every_default_is_turned_by_a_caller():
    unturned = unturned_defaults({p.stem: p.read_text() for p in MODULES},
                                 {str(p): p.read_text() for p in CALLERS})
    assert sorted(unturned - set(KEPT_DEFAULTS)) == [], \
        "defaults that no call in src/ or perfbench/ passes; make them constants"
    assert sorted(set(KEPT_DEFAULTS) - unturned) == [], \
        "KEPT_DEFAULTS lists a default that a caller turns or that is gone"


def unread_parameters(sources: dict) -> set:
    """(module, function, parameter) of every parameter of a def whose body,
    nested defs and lambdas included, never loads its name."""
    flagged = set()
    for mod, source in sources.items():
        for fn, _ in _functions(ast.parse(source)):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            flagged |= {(mod, fn.name, p.arg) for p in params if p.arg not in loaded}
    return flagged


def test_unread_parameter_scanner():
    sources = {
        "a": "def f(x, y, *rest, flag=False, **extra):\n"
             "    g = lambda: y\n    return x, g, extra\n\n"
             "class C:\n    def m(self, p):\n        p = 1\n        return self\n",
    }
    assert unread_parameters(sources) == {("a", "f", "rest"), ("a", "f", "flag"),
                                          ("a", "m", "p")}


def test_every_parameter_is_read():
    assert sorted(unread_parameters({p.stem: p.read_text() for p in MODULES})) == [], \
        "parameters their function never reads; delete them"


# ---------------------------------------------------------------------------
# one run lifecycle: commands return their outputs, and only cli.main makes
# the output directory and writes the manifest
# ---------------------------------------------------------------------------

LIFECYCLE_CALLS = ("mkdir", "write_manifest")


def call_sites(sources: dict, names) -> dict:
    """name -> {(module, innermost enclosing def, or "<module>")} of every
    call of that name, bare (f(...)) or as an attribute (obj.f(...))."""
    sites = {name: set() for name in names}
    for mod, source in sources.items():
        def visit(node, owner, mod=mod):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in sites:
                    sites[name].add((mod, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(source), "<module>")
    return sites


def test_call_site_scanner():
    sources = {
        "cli": "def main(out):\n    out.mkdir()\n    serialize.write_manifest(out)\n",
        "a": "import os\nos.mkdir('x')\n"
             "def f(p):\n    def g():\n        write_manifest(p)\n    return g\n"
             "class C:\n    def m(self, p):\n        return p.mkdir(parents=True)\n",
    }
    assert call_sites(sources, LIFECYCLE_CALLS) == {
        "mkdir": {("cli", "main"), ("a", "<module>"), ("a", "m")},
        "write_manifest": {("cli", "main"), ("a", "g")},
    }


def test_only_cli_main_makes_the_output_directory_and_writes_the_manifest():
    sites = call_sites({p.stem: p.read_text() for p in MODULES}, LIFECYCLE_CALLS)
    assert sites == {name: {("cli", "main")} for name in LIFECYCLE_CALLS}


# ---------------------------------------------------------------------------
# no scipy.linalg: importing it costs a process more start-up time and
# memory than the package's few small exponentials, which run in numpy
# ---------------------------------------------------------------------------

def scipy_linalg_imports(source: str) -> list:
    """Line of every import of scipy.linalg or a name in it, at any depth:
    `import scipy.linalg`, `from scipy.linalg import ...` and
    `from scipy import linalg`; and of scipy.sparse.linalg in the same
    forms outside a function body, so that its import stays lazy."""
    tree = ast.parse(source)
    in_function = {id(n) for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        banned = ["scipy.linalg"] + ["scipy.sparse.linalg"] * (id(node) not in in_function)
        if any(n == b or n.startswith(b + ".") for n in names for b in banned):
            lines.append(node.lineno)
    return sorted(lines)


def test_scipy_linalg_scanner():
    src = ("import scipy\nimport scipy.linalg\nfrom scipy import optimize\n"
           "from scipy.linalg import expm\nfrom .linalg import x\n"
           "def f():\n    from scipy import linalg as la\n    return la\n"
           "import scipy.linalgebra\nfrom scipy import linalgebra\n"
           "import scipy.sparse.linalg\nfrom scipy.sparse.linalg import splu\n"
           "def g():\n    import scipy.sparse.linalg\n"
           "    from scipy.sparse.linalg import eigsh\n    return eigsh\n"
           "from scipy.sparse import csr_matrix\nfrom scipy.sparse import linalg\n"
           "import scipy.sparse.linalgebra\n")
    assert scipy_linalg_imports(src) == [2, 4, 7, 11, 12, 18]


def test_no_module_imports_scipy_linalg():
    package = Path(monodromy_lab.__file__).parent
    found = {p.name: scipy_linalg_imports(p.read_text()) for p in package.rglob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


# ---------------------------------------------------------------------------
# cold start: no command loads scipy.linalg
# ---------------------------------------------------------------------------

COLD_RUNS = """
import json, sys
from pathlib import Path

from monodromy_lab import cli, serialize

tmp = Path(sys.argv[1])


def config(name, doc):
    path = tmp / (name + ".json")
    path.write_text(json.dumps(doc))
    return str(path)


cold = [
    ["contract", "--config", config("contract", {
        "h_values": [0.01], "grid": {"L": 16.0, "N": 128},
        "gap_grid": {"L": 24.0, "N": 128}})],
    ["ladder", "--config", config("ladder", {
        "mode": "exact", "h": 0.01, "c0": 0.1, "residuals": True,
        "grid": {"L": 1.5, "N": 64}})],
    ["geodesic", "--config", config("geodesic", {
        "t_final": 0.01, "step": 1e-3, "classify_orbits": True})],
    ["positivity", "--config", config("positivity", {
        "rates": [1.0, 0.5], "samples": 1000}), "--seed", "1"],
]
codes = [cli.main([*argv, "--out", str(tmp / argv[0])]) for argv in cold]
cold_loaded = "scipy.linalg" in sys.modules
serialize.write_matrix(tmp / "m.json", [[2.0, 0.0], [0.0, 0.5]])
codes.append(cli.main(["classify", str(tmp / "m.json"), "--out", str(tmp / "c")]))
codes.append(cli.main(["positivity", "--config", config("from_matrix", {
    "matrix_file": str(tmp / "m.json"), "samples": 1000}), "--seed", "1",
    "--out", str(tmp / "p")]))
print(json.dumps({"codes": codes, "cold": cold_loaded,
                  "classify": "scipy.linalg" in sys.modules}))
"""


def test_cold_commands_leave_scipy_linalg_unloaded(tmp_path):
    src = str(Path(monodromy_lab.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_RUNS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0, 0, 0], "cold": False, "classify": False}
    # the ladder certified a residual on the grid, so the weyl path ran
    assert len((tmp_path / "ladder" / "ladder_exact.csv").read_text().splitlines()) > 1
