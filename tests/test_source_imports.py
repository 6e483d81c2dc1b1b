"""The package never reaches into the test suite.

Test oracles such as ``oracles.walsh_lehman`` are second routes for the
tests only; a module of ``fatmod`` that imported one would make the two
routes of a check share code.
"""

import ast
from pathlib import Path

import pytest

import fatmod

PACKAGE = Path(fatmod.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.stem for p in TESTS.glob("*.py"))
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(path):
    """Every module name an import statement of the file names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_test_modules_are_listed():
    assert "oracles" in TEST_MODULES and "conftest" in TEST_MODULES


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_module_imports_nothing_from_tests(path):
    for name in imported_names(path):
        top = name.split(".")[0]
        assert top not in TEST_MODULES and top != "tests", \
            "%s imports %s" % (path.name, name)
