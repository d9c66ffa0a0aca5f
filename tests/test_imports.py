"""Static checks of the package source and the tests: every import and every
definition is used, and imports between the core and the harness run one way.

No linter is a dependency, so `unused_imports` is a small stand-in for
pyflakes' F401 over `src/` and `tests/`, built on `ast`. Package
`__init__.py` files are skipped (their imports are re-exports), and an
import statement carrying `# noqa: F401` on any of its lines is exempt.
`unused_definitions` is the same kind of stand-in for dead-code finders: each
function, method and class of `src/` must be named somewhere in `src/` or
`bench/*.py`, or listed in an `__all__`; one that only tests call is dead.
The core (every module outside `robustrec.harness`) must import nothing from
the harness, so `import robustrec` loads the library alone, and no package
module is imported inside a function, where an import cycle would hide.
`robustrec.harness.config` and `sweep`, which the benchmark's child process
imports, load no argparse.
No function in `harness/sweep.py` takes more than four parameters: what a
stage needs about a cell is on its `Run`. No `build` there reads the config:
a cached stage builds from the dict its key hashes, so no setting reaches an
artifact without entering its key.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "robustrec"


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations, which `ast` leaves as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg, args.kwarg)
                            if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    """`name (line N)` for each name `path` imports and never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    for node in ast.walk(tree):  # names listed in __all__ are exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py") + \
    sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(
    p.relative_to(SRC) if SRC in p.parents else p.relative_to(TESTS.parent)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _definitions(node: ast.AST, prefix: str = "") -> list[tuple[str, str, int]]:
    """(qualified name, name, line) of each function, method and class under `node`."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((f"{prefix}{child.name}", child.name, child.lineno))
            found += _definitions(child, f"{prefix}{child.name}.")
        else:
            found += _definitions(child, prefix)
    return found


def unused_definitions(paths: list[Path], readers: list[Path]) -> list[str]:
    """`module: name (line N)` for each function, method and class of `paths`
    that no `Name`, `Attribute` or `from ... import` in `readers` names and no
    `__all__` lists; dunders are exempt, as the language calls them."""
    named = set()
    for reader in readers:
        for node in ast.walk(ast.parse(reader.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                named |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.name}: {qualified} (line {line})" for path in paths
            for qualified, name, line in _definitions(ast.parse(path.read_text()))
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_no_unused_definitions():
    # a definition only tests call is dead code: the package must use it
    src = sorted(SRC.rglob("*.py"))
    assert unused_definitions(src, src + sorted((TESTS.parent / "bench").glob("*.py"))) == []


def test_the_check_finds_an_unused_definition(tmp_path):
    module, reader = tmp_path / "m.py", tmp_path / "r.py"
    module.write_text("__all__ = ['exported']\n"
                      "def exported():\n    pass\n"
                      "def dead():\n    def inner():\n        pass\n"
                      "def called():\n    def passed():\n        pass\n    return passed\n"
                      "class K:\n    def __init__(self):\n        pass\n"
                      "    def method(self):\n        pass\n"
                      "    def unused(self):\n        pass\n"
                      "class Imported:\n    pass\n")
    reader.write_text("from m import Imported\ncalled().method\nK()\n")
    assert unused_definitions([module], [module, reader]) == [
        "m.py: dead (line 4)", "m.py: dead.inner (line 5)", "m.py: K.unused (line 16)"]

def package_imports(path: Path, src: Path = SRC) -> list[tuple[int, str, bool]]:
    """(line, module, inside a function) for each import in `path` of a
    module of the package rooted at `src`, relative ones resolved to absolute
    names. `from M import n` names both M and M.n, since n may be a module."""
    package = [src.name, *path.relative_to(src).parent.parts]  # holds `path`
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = package[:len(package) - child.level + 1] if child.level else []
                module = ".".join(base + ([child.module] if child.module else []))
                names = [module] + [f"{module}.{alias.name}" for alias in child.names]
            else:
                visit(child, in_function or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
                continue
            found.extend((child.lineno, name, in_function) for name in names
                         if name == src.name or name.startswith(src.name + "."))

    visit(ast.parse(path.read_text()), False)
    return found


def harness_imports(path: Path, src: Path = SRC) -> list[str]:
    """`module (line N)` for each harness module `path` imports."""
    harness = f"{src.name}.harness"
    return [f"{name} (line {line})" for line, name, _ in package_imports(path, src)
            if name == harness or name.startswith(harness + ".")]


CORE = [p for p in sorted(SRC.rglob("*.py")) if "harness" not in p.relative_to(SRC).parts]


@pytest.mark.parametrize("path", CORE, ids=lambda p: str(p.relative_to(SRC)))
def test_the_core_imports_nothing_from_the_harness(path):
    assert harness_imports(path) == []


def test_the_harness_check_finds_a_planted_import(tmp_path):
    src = tmp_path / "robustrec"
    (src / "models").mkdir(parents=True)
    core = src / "models" / "m.py"
    core.write_text("import numpy as np\n"
                    "from ..dataset import Reviews\n"
                    "from ..harness.config import ConfigError\n"
                    "from .. import harness\n"
                    "import robustrec.harness.sweep as sweep\n"
                    "def f():\n    from robustrec.harness import cli\n")
    (src / "__init__.py").write_text("from .harness import report\nfrom .models import m\n")
    assert harness_imports(core, src) == [
        "robustrec.harness.config (line 3)", "robustrec.harness.config.ConfigError (line 3)",
        "robustrec.harness (line 4)", "robustrec.harness.sweep (line 5)",
        "robustrec.harness (line 7)", "robustrec.harness.cli (line 7)"]
    assert harness_imports(src / "__init__.py", src) == [
        "robustrec.harness (line 1)", "robustrec.harness.report (line 1)"]
    assert [(line, deferred) for line, _, deferred in package_imports(core, src)] == [
        (2, False), (2, False), (3, False), (3, False), (4, False), (4, False),
        (5, False), (7, True), (7, True)]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_package_modules_are_imported_at_module_level(path):
    assert [line for line, _, deferred in package_imports(path) if deferred] == []


def _fresh_output(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports the package from `src/`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_importing_the_package_loads_no_harness_module():
    assert _fresh_output("import sys, robustrec; print(sorted(m for m in sys.modules "
                         "if m.startswith('robustrec.harness')))") == "[]\n"


def test_config_and_sweep_load_no_argparse():
    # the bench child loads configs through them; argparse is the CLI's alone
    assert _fresh_output("import sys, robustrec.harness.config, robustrec.harness.sweep; "
                         "print('argparse' in sys.modules)") == "False\n"


def wide_functions(path: Path, limit: int = 4) -> list[str]:
    """`name (N parameters)` for each function or method in `path`, nested
    ones included, that takes more than `limit` parameters."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            n = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs) + \
                (args.vararg is not None) + (args.kwarg is not None)
            if n > limit:
                found.append(f"{node.name} ({n} parameters)")
    return found


def test_sweep_functions_take_at_most_four_parameters():
    # ensure_eval keeps its run id and eps_a, positions 4 and 5, because
    # bench/tracing.py reads them by position to key each results row
    assert wide_functions(SRC / "harness" / "sweep.py") == ["ensure_eval (6 parameters)"]


CONFIG_NAMES = {"cfg", "dcfg"}


def _is_config_chain(node: ast.expr) -> bool:
    """Whether `node` is `cfg` or `dcfg`, a `.cfg` attribute, or a subscript
    or attribute chain of one."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and node.attr == "cfg":
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in CONFIG_NAMES


def _bound_names(target: ast.expr, value: ast.expr) -> set[str]:
    """The names `target = value` binds to a config chain; a tuple target
    takes each part of a tuple value, or every name from a chain."""
    if isinstance(target, (ast.Tuple, ast.List)):
        if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts):
            return set().union(*map(_bound_names, target.elts, value.elts))
        return {sub.id for sub in ast.walk(target)
                if isinstance(sub, ast.Name)} if _is_config_chain(value) else set()
    return {target.id} if isinstance(target, ast.Name) and _is_config_chain(value) else set()


def config_reads_in_builds(path: Path) -> list[str]:
    """`build (line N) reads ...` for each function named `build` in `path`
    whose body, nested functions included, names `cfg` or `dcfg`, reads a
    `.cfg` attribute, or names what its enclosing function bound to a
    subscript or attribute chain of one of these."""
    found = []

    def visit(node: ast.AST, aliases: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, aliases)
                continue
            if child.name == "build":
                reads = {sub.id for sub in ast.walk(child)
                         if isinstance(sub, ast.Name) and sub.id in CONFIG_NAMES | aliases}
                reads |= {".cfg" for sub in ast.walk(child)
                          if isinstance(sub, ast.Attribute) and sub.attr == "cfg"}
                if reads:
                    found.append((child.lineno, f"build (line {child.lineno}) reads "
                                                f"{', '.join(sorted(reads))}"))
            visit(child, set().union(*(_bound_names(target, sub.value)
                                       for sub in ast.walk(child) if isinstance(sub, ast.Assign)
                                       for target in sub.targets)))

    visit(ast.parse(path.read_text()), set())
    return [text for _, text in sorted(found)]


def test_no_sweep_build_reads_the_config():
    # a build that read a setting its key does not hash would let a cached
    # artifact stand for other inputs; reads belong in the key dict. The one
    # exception is load_dataset's build, which reads the review file at
    # `review`, dataset.path: the key hashes the file's sha256 in its place
    path = SRC / "harness" / "sweep.py"
    [load_dataset] = [node for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.FunctionDef) and node.name == "load_dataset"]
    [build] = [node for node in load_dataset.body
               if isinstance(node, ast.FunctionDef) and node.name == "build"]
    assert config_reads_in_builds(path) == [f"build (line {build.lineno}) reads review"]


def test_the_config_check_finds_a_planted_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def stage(cfg, sweep):\n    key = cfg['eval']\n"
                      "    dcfg = cfg['dataset']\n"
                      "    def build():\n        return dcfg['seed'] + key\n"
                      "    def load():\n        return cfg\n"
                      "class Run:\n    def build(self):\n        return self.sweep.cfg\n"
                      "def other(sweep):\n    config = sweep.config\n"
                      "    def build():\n        def inner():\n            return cfg\n"
                      "        return config['eval'], inner\n"
                      "    def build_bed():\n        return sweep.cfg\n"
                      "class Cell:\n    def gradient(self):\n"
                      "        model, attack = self.model, self.sweep.cfg['attack']\n"
                      "        (seed, size), n = self.sweep.cfg['pair'], len(model)\n"
                      "        def build():\n            return model, attack, seed, size, n\n")
    assert config_reads_in_builds(module) == [
        "build (line 4) reads dcfg, key", "build (line 9) reads .cfg",
        "build (line 13) reads cfg", "build (line 23) reads attack, seed, size"]


def test_the_parameter_check_counts_every_kind(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def a(p, q, r, s):\n    pass\n"
                      "def b(p, /, q, *r, s, **t):\n    def c(u, v, w, x, y):\n        pass\n"
                      "class K:\n    def d(self, p, q, r, s=0):\n        pass\n")
    assert wide_functions(module) == ["b (5 parameters)", "c (5 parameters)",
                                      "d (5 parameters)"]


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport json  # noqa: F401\n"
                      "from typing import (Any,  # noqa: F401\n    Callable)\n"
                      "from pathlib import Path, PurePath\n"
                      "import numpy as np\n\n"
                      "def f(p: 'PurePath') -> np.ndarray:\n    return Path(p)\n")
    assert unused_imports(module) == ["os (line 2)"]
