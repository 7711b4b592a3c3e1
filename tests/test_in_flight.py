"""Every in-flight limit goes through one map: ``pipeline._map_in_flight`` alone builds a thread pool."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scenealign"


def _enclosing_functions(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node's innermost enclosing function name, or ``"<module>"``."""
    owner: dict[ast.AST, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            owner[child] = name
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            visit(child, inner)

    visit(tree, "<module>")
    return owner


def test_only_map_in_flight_builds_a_thread_pool():
    builders = []  # "module.function" of each call that builds a ThreadPoolExecutor
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "ThreadPoolExecutor":
                    builders.append(f"{path.stem}.{owner[node]}")
    assert builders == ["pipeline._map_in_flight"]
