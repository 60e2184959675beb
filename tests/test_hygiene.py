"""Source hygiene: no module of the package or of its tests imports a name
it never uses, the package reads the process environment in one place,
every function, class and method the package defines is named somewhere,
and only the strategy laws compare a strategy kind.

The scan reads each file's syntax tree, so it needs no import of the module
(the strategy-kind scan imports only the list of kinds).
A package `__init__.py` is exempt: its imports are the public re-exports.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sparsetok.selection import STRATEGY_KINDS

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in (ROOT / "src" / "sparsetok", ROOT / "tests")
                 for path in folder.glob("*.py") if path.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "sparsetok").glob("*.py"))
# the one environment knob, STKN_TIMING, and the function that reads it
ENVIRONMENT_READERS = {"metrics.py": ["timing_enabled"]}
# the code whose names count as uses of a package definition
CORPUS = sorted(path for folder in ("src", "tests", "perfbench")
                for path in (ROOT / folder).rglob("*.py"))
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


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


def environment_readers(source: str) -> list[str]:
    """Functions of `source` that read the process environment through
    `os.environ` or `os.getenv`, or that import either from os; code outside
    any function counts as "<module>"."""
    readers: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                readers.add(scope)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(readers)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_timing_enabled_reads_the_environment(path):
    assert environment_readers(path.read_text(encoding="utf-8")) == (
        ENVIRONMENT_READERS.get(path.name, []))


def test_scan_finds_environment_reads():
    source = ("import os\nfrom os import getenv\nWORKERS = os.environ.get('N')\n"
              "def knob():\n    return os.getenv('K')\n"
              "def path():\n    return os.path.join('a', 'b')\n")
    assert environment_readers(source) == ["<module>", "knob"]


def definitions(source: str) -> list[str]:
    """Names of the functions, classes and methods `source` defines, at any
    depth; dunder methods are left out."""
    return sorted({node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))})


def named(source: str) -> set[str]:
    """Names `source` uses: names and attributes in expressions, imported
    names, and string constants that are one identifier (a name handed to
    getattr or to a patcher). A def or class line, a docstring and a comment
    name nothing."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.match(node.value):
                names.add(node.value)
    return names


def unnamed_definitions(defining: str, corpus: list[str]) -> list[str]:
    """Definitions of `defining` that no source of `corpus` names."""
    used = set().union(*map(named, corpus))
    return [name for name in definitions(defining) if name not in used]


def test_every_package_definition_is_named_somewhere():
    """Dead code cannot stay: each definition of the package is called,
    patched or imported by the package, its tests or the benchmark."""
    corpus = [path.read_text(encoding="utf-8") for path in CORPUS]
    unnamed = [f"{path.name}: {name}" for path in PACKAGE
               for name in unnamed_definitions(path.read_text(encoding="utf-8"), corpus)]
    assert unnamed == []


def test_scan_finds_unnamed_definitions():
    source = ("class Used:\n    def __init__(self):\n        self.x = 1\n"
              "    def dead(self):\n        \"\"\"dead helper\"\"\"\n        return 1\n"
              "def helper():  # helper\n    return Used()\n"
              "def patched():\n    def inner():\n        pass\n    return inner\n"
              "setattr(Used, 'patched', None)\n")
    assert definitions(source) == ["Used", "dead", "helper", "inner", "patched"]
    assert unnamed_definitions(source, [source]) == ["dead", "helper"]
    assert unnamed_definitions(source, [source, "Used().dead()\n"]) == ["helper"]


def called(node: ast.AST) -> set[str]:
    """Names of the functions and methods called anywhere inside node."""
    return {getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_train_step_holds_no_strategy_branch():
    """One training objective: `train_step` reads no `.kind` and reaches the
    cross-entropy, the selection loss and their sum only through
    `Pipeline.loss`, the one function of the package that calls the latter
    two. A new selector or estimator extends the objective, not the step."""
    functions = [(path.name, node) for path in PACKAGE
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)]
    losses = {"cross_entropy_loss", "selection_loss", "total_loss"}
    step, = (f for _, f in functions if f.name == "train_step")
    assert "kind" not in {node.attr for node in ast.walk(step) if isinstance(node, ast.Attribute)}
    assert called(step) & (losses | {"loss"}) == {"loss"}
    objective = [(name, f) for name, f in functions if called(f) & losses - {"cross_entropy_loss"}]
    assert [(name, f.name) for name, f in objective] == [("train.py", "loss")]
    assert losses <= called(objective[0][1])


def strategy_branches(source: str, kinds: tuple[str, ...]) -> list[str]:
    """"name:line" of each comparison in `source` that asks which strategy
    kind it has: one with a `.kind` operand, or a string of `kinds` as an
    operand or an element of one, name being the enclosing function or
    class ("<module>" outside any). The class `StrategyConfig` and the
    `LAWS` table, where a kind is defined, are left out."""
    found: list[str] = []

    def asks_kind(operand: ast.AST) -> bool:
        if isinstance(operand, ast.Attribute):
            return operand.attr == "kind"
        if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
            return any(map(asks_kind, operand.elts))
        return isinstance(operand, ast.Constant) and operand.value in kinds

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.ClassDef) and node.name == "StrategyConfig":
            return
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAWS"
                                                for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if isinstance(node, ast.Compare) and any(map(asks_kind, [node.left, *node.comparators])):
            found.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_no_strategy_branch_outside_the_laws():
    """One law per selection strategy: what a strategy kind is lives in
    `selection.LAWS` and `StrategyConfig`, and no other code of the package
    compares a kind. autodiff.py is left out: its `kind` is a tape op's."""
    branches = [f"{path.name}: {site}" for path in PACKAGE if path.name != "autodiff.py"
                for site in strategy_branches(path.read_text(encoding="utf-8"), STRATEGY_KINDS)]
    assert branches == []


def test_scan_finds_strategy_branches():
    source = ("LAWS = {'a': 1 if x == 'a' else 2}\n"
              "class StrategyConfig:\n    def f(self):\n        return self.kind == 'a'\n"
              "def pack(cfg, kind):\n    if cfg.strategy.kind != 'b':\n        pass\n"
              "    return kind in ('c', 'a') or kind == 'z' or cfg.n > 1\n"
              "ok = [k for k in ('a', 'b')]\n"
              "flag = 'b' == mode\n")
    assert strategy_branches(source, ("a", "b")) == ["pack:6", "pack:8", "<module>:10"]


def test_one_test_file_runs_without_pythonpath():
    """`python -m pytest tests/test_metrics.py` imports the package by
    itself: the pytest configuration puts src on the path, not the caller's
    PYTHONPATH or a test module collected earlier."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "tests/test_metrics.py"],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


# a backticked file name (`metrics.csv`) is not a `module.attr` reference
_FILE_NAME = re.compile(r"[\w/.-]+\.(?:csv|svg|jsonl?|md|py|stkn|toml)\Z")


def readme_references(text: str) -> list[tuple[str, str]]:
    """(head, attr) of every backticked span outside fenced code that
    starts with `head.attr`, file names left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = [span for span in re.findall(r"`([^`]+)`", text) if not _FILE_NAME.match(span)]
    return [match.groups() for match in map(re.compile(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)").match,
                                            spans) if match]


def module_attributes(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: definitions, assignments and
    imports."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def class_attributes(tree: ast.Module) -> dict[str, set[str]]:
    """Each top-level class's attributes: what its body binds (methods,
    properties, fields) and every `self.` assignment in its methods."""
    out = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            out[cls.name] = module_attributes(ast.Module(body=cls.body, type_ignores=[])) | {
                node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"}
    return out


def test_readme_names_resolve():
    """Every backticked `module.attr` of a sparsetok module and `Class.attr`
    of a package class in README names something that exists."""
    attributes: dict[str, set[str]] = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes[path.stem] = module_attributes(tree)
        attributes.update(class_attributes(tree))
    attributes["sparsetok"] = {path.stem for path in PACKAGE}
    references = readme_references((ROOT / "README.md").read_text(encoding="utf-8"))
    assert ("Pipeline", "stages") in references
    assert [f"{head}.{attr}" for head, attr in references
            if head in attributes and attr not in attributes[head]] == []


def test_readme_scan_skips_file_names_and_code_blocks():
    text = ("`metrics.csv` and `checks.stack` and `Pipeline.loss(tape)` and `np.add`\n"
            "```\nsparsetok.nothing\n```\n")
    assert readme_references(text) == [("checks", "stack"), ("Pipeline", "loss"), ("np", "add")]
