"""No exported name that nothing uses: every public top-level function or
class of the package, and every public method of its top-level classes, is
named somewhere in the package or in kgbench besides its own definition."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgrelay"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "kgbench").glob("*.py"))


def _named(node: ast.AST) -> list[str]:
    """The names a node refers to: a variable, an attribute, an imported
    name, or a string that is an identifier, as ``getattr`` takes."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        return [node.value]
    return []


def _uses(tree: ast.AST) -> Counter:
    return Counter(name for node in ast.walk(tree) for name in _named(node))


def _is_click_command(node: ast.AST) -> bool:
    # @main.command(...), @click.group(): the decorator registers it.
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def _public_definitions(tree: ast.Module):
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _is_click_command(node):
            continue
        if not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for node in _public_definitions(tree)
        if uses[node.name] - _uses(node)[node.name] <= 0
    ]
    assert unused == []
