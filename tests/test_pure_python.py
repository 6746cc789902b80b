"""The package is pure Python on the standard library, parses as its oldest Python, holds
no `assert` statement, exports the names the README lists, and uses each public definition.

The syntax check is best-effort: it catches syntax newer than `requires-python`,
not calls to library functions added later.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import a2tp

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "a2tp").glob("*.py"))
REQUIRES = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
OLDEST = tuple(map(int, REQUIRES.groups()))


def test_every_module_is_checked():
    assert OLDEST == (3, 10)
    assert {"cli.py", "zlinalg.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not a relative import
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top == "__future__" or top in sys.stdlib_module_names, (path.name, name)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_holds_no_assert_statement(path):
    # `python -O` strips asserts, so a runtime guard raises a typed error instead.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_readme_lists_the_exports():
    # The library-API paragraph names every export, so a removed one cannot leave it stale.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The names\s+exported\s+by\s+`a2tp`:(.*?)\.\s", readme, re.S).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(a2tp.__all__)


def _loaded_names(node, definitions=()):
    """The names that `node` loads, as a variable or an attribute, outside the bodies of
    the functions and classes named in `definitions` and of those it defines itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _loaded_names(child, (*definitions, child.name))
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            name = child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            name = child.attr
        else:
            name = None
        if name is not None and name not in definitions:
            yield name
        yield from _loaded_names(child, definitions)


def test_every_export_is_used_by_the_program_or_the_benchmark():
    # No public helper is kept for the tests alone: each export is loaded somewhere in
    # src outside `__init__.py` and its own definition, or the benchmark's workloads name it.
    loaded = set()
    for path in MODULES:
        if path.name != "__init__.py":
            loaded.update(_loaded_names(ast.parse(path.read_text(encoding="utf-8"))))
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    unused = [n for n in a2tp.__all__ if n not in loaded and not re.search(rf"\b{n}\b", workloads)]
    assert unused == []


def test_every_public_definition_is_used_by_the_program_or_the_benchmark():
    # The same rule past the exports: each public module-level function or class is loaded
    # somewhere in src outside its own definition, or the benchmark's workloads name it.
    # `main` looks up `cmd_<name>` by name, so a subcommand of `make_parser` uses it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    loaded = set().union(*map(_loaded_names, trees.values()))
    parser = next(n for n in trees["cli.py"].body if getattr(n, "name", "") == "make_parser")
    loaded.update(
        f"cmd_{node.args[0].value}"
        for node in ast.walk(parser)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_parser"
    )
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    unused = [
        f"{path}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in loaded
        and not re.search(rf"\b{node.name}\b", workloads)
    ]
    assert unused == []
