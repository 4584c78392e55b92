"""Every grouped op and every large-large join runs on one shuffle, the
hash exchange (``stages/groupby.exchange_group_apply``). This walks the
package's syntax trees and fails on a call into Ray Data's own shuffles:
``.map_groups(...)`` (sort-based groupby) or ``.join(..., join_type=...)``
(``Dataset.join``)."""

import ast
from pathlib import Path

import ertransfer_ray

PACKAGE = Path(ertransfer_ray.__file__).parent


def _second_shuffles(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "map_groups":
            found.append((node.lineno, "map_groups"))
        elif node.func.attr == "join" and any(k.arg == "join_type" for k in node.keywords):
            found.append((node.lineno, "Dataset.join"))
    return found


def test_guard_sees_both_calls():
    src = "ds.groupby('k').map_groups(f)\nleft.join(right, join_type='inner', on=('k',))\n"
    assert _second_shuffles(ast.parse(src)) == [(1, "map_groups"), (2, "Dataset.join")]
    assert _second_shuffles(ast.parse("', '.join(parts)")) == []


def test_package_uses_one_shuffle():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    hits = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {what}"
        for path in modules
        for line, what in _second_shuffles(ast.parse(path.read_text(), str(path)))
    ]
    assert not hits, hits
