"""The distributions ``pyproject.toml`` declares are the ones the code imports.

The package's own imports, function-local ones included, name exactly its
``[project] dependencies``; the tests may also import the ``test`` extra.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# the repository's own packages, imported by the tests
LOCAL = {"scenealign", "tests"}


def _project_table() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]


def _distribution_names(requirements: list[str]) -> set[str]:
    """Each requirement's distribution name, spelled as its module is imported."""
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_") for req in requirements}


def _third_party_imports(paths: list[Path]) -> set[str]:
    """The top-level names that ``paths`` import, outside the standard library and this repository."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - LOCAL


def test_the_package_imports_exactly_its_declared_dependencies():
    declared = _distribution_names(_project_table()["dependencies"])
    assert _third_party_imports(sorted((REPO_ROOT / "src" / "scenealign").glob("*.py"))) == declared


def test_every_third_party_import_of_the_tests_is_declared():
    project = _project_table()
    declared = _distribution_names(project["dependencies"] + project["optional-dependencies"]["test"])
    assert _third_party_imports(sorted((REPO_ROOT / "tests").glob("*.py"))) - declared == set()
