"""Source layout checks that need no graph: every private helper in
src/surfembed is used somewhere in src/surfembed."""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "surfembed"


def _references(tree: ast.AST) -> Counter:
    """Names read as a Name, an Attribute or an import inside tree;
    docstrings and other strings are not code, so they do not count."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used: Counter = Counter()
    for tree in trees.values():
        used += _references(tree)
    orphans = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            helper = node.name
            if not helper.startswith("_") or helper.startswith("__"):
                continue
            # a reference from inside its own body, a recursive call, is
            # not a caller
            if used[helper] - _references(node)[helper] <= 0:
                orphans.append(f"{name}:{node.lineno} {helper}")
    assert not orphans, orphans
