"""The package is pure Python on the standard library, parses as its oldest Python, holds
no `assert` statement, and exports the names the README lists.

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
