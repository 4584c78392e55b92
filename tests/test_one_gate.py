"""Every broadcast-or-exchange choice is made by one gate,
``stages/joins.choose_arm``, against the limits kept next to it. This walks
the package's syntax trees and fails on a per-stage copy of that choice: a
function parameter that switches or caps it (``strategy``,
``max_broadcast_*``, ``prefilter_*``), or a module-level broadcast limit
outside ``stages/joins.py``. Decontamination keeps one ``strategy``, the
exact-or-Bloom choice, which is not a broadcast-or-exchange switch."""

import ast
import re
from pathlib import Path

import ertransfer_ray

PACKAGE = Path(ertransfer_ray.__file__).parent

#: the gate's own module, the one place broadcast limits may live
GATE_MODULE = "stages/joins.py"

#: (module, function) pairs whose ``strategy`` is decontamination's
#: exact-or-Bloom choice
EXACT_OR_BLOOM = {
    ("stages/decontam.py", "contamination_stats"),
    ("stages/decontam.py", "decontaminate"),
    ("stages/decontam.py", "_check_strategy"),
}

_KNOB = re.compile(r"^(strategy|max_broadcast_\w*|prefilter_\w*)$")
_LIMIT = re.compile(r"BROADCAST|_LIMIT$")


def _per_stage_gates(tree: ast.AST, module: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                name = getattr(node, "name", "<lambda>")
                if _KNOB.match(arg.arg) and (
                    arg.arg != "strategy" or (module, name) not in EXACT_OR_BLOOM
                ):
                    found.append((node.lineno, f"{name}({arg.arg}=)"))
    if module != GATE_MODULE:
        for node in tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for t in targets:
                if isinstance(t, ast.Name) and _LIMIT.search(t.id):
                    found.append((node.lineno, t.id))
    return found


def test_guard_sees_knobs_and_limits():
    src = (
        "LOSER_BROADCAST_LIMIT = 64 << 20\n"
        "def f(ds, strategy='auto', max_broadcast_ids=5, prefilter_min_rows=2):\n"
        "    pass\n"
    )
    assert _per_stage_gates(ast.parse(src), "stages/crawl.py") == [
        (2, "f(strategy=)"),
        (2, "f(max_broadcast_ids=)"),
        (2, "f(prefilter_min_rows=)"),
        (1, "LOSER_BROADCAST_LIMIT"),
    ]
    assert _per_stage_gates(ast.parse("KEY_SET_LIMIT = 1\n"), GATE_MODULE) == []
    ok = "def decontaminate(corpus, strategy='exact'):\n    pass\n"
    assert _per_stage_gates(ast.parse(ok), "stages/decontam.py") == []
    assert _per_stage_gates(ast.parse(ok), "stages/dedup.py") == [
        (1, "decontaminate(strategy=)")
    ]


def test_package_has_one_broadcast_gate():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    hits = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in modules
        for line, what in _per_stage_gates(
            ast.parse(path.read_text(), str(path)),
            path.relative_to(PACKAGE).as_posix(),
        )
    ]
    assert not hits, hits
