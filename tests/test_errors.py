"""Every exception class in ``errors.py`` names an outcome that library code raises."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scenealign"


def _raised_names() -> set[str]:
    """The names after ``raise`` in ``src/scenealign/*.py``, called or not."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_in_src():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes
    # a base class is caught, not raised
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = _raised_names()
    assert [node.name for node in classes if node.name not in bases | raised] == []
