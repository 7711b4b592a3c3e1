"""Every private top-level name in ``src/scenealign/`` is named on some other line of ``src/``, and imported by none."""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scenealign"


def _private_definitions(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each top-level function, class and constant whose name starts with one ``_``."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def test_every_private_top_level_name_is_used_in_src():
    lines_naming = defaultdict(set)  # word -> the (file, line) pairs it occurs on
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        for line_no, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for word in re.findall(r"\w+", text):
                lines_naming[word].add((path.name, line_no))
        definitions += [(path.name, line_no, name) for line_no, name in _private_definitions(path)]
    assert definitions
    unused = [f"{file}:{line_no} {name}" for file, line_no, name in definitions if not lines_naming[name] - {(file, line_no)}]
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    imported = []  # "file:line name" of each private name imported from the package
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "scenealign"):
                imported += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert imported == []
