"""Every package module is reached from an entry point, and every import of
the package resolves.

This walks syntax trees; no module is imported and no Ray session starts.
Reachability follows every ``import`` and ``from ... import`` (function-local
ones included) from the entry points: the query entry contract
(``__ray_entry__.py``), the CLI (``ertransfer_ray/__main__.py``), the query
registry (``pipelines/queries.py``), ``bench.py`` and the ``perfbench``
scripts. A module that none of them reaches is code that no query, pipeline
stage, CLI command or benchmark runs."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = "ertransfer_ray"

ENTRY_POINTS = [
    "__ray_entry__",
    f"{PACKAGE}.__main__",
    f"{PACKAGE}.pipelines.queries",
    "bench",
    *sorted(p.stem for p in (REPO / "perfbench").glob("*.py")),
]

#: package modules that no entry point reaches on purpose, with the reason
UNREACHED_ON_PURPOSE = {
    # incremental dedup stores are a stated goal; whether to register an
    # incremental query that its crash tests exercise, or to delete the
    # module, is still open
    f"{PACKAGE}.stages.incremental",
    # SURVEY row M15 maps it to the reference's pair tokenizer
    f"{PACKAGE}.functions.lm_tokenize",
    # dead code whose deletion waits for a later change, so that no single
    # change removes the tests of every dead module at once (ROADMAP item 9)
    f"{PACKAGE}.functions.codecs",
    f"{PACKAGE}.functions.gif",
    f"{PACKAGE}.stages.bpe",
    f"{PACKAGE}.pipelines.epoch_metrics",
}


def _module_name(path: Path, root: Path = REPO) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _modules(root: Path = REPO) -> dict[str, Path]:
    """Every importable module under ``root``: the package, the top-level
    scripts and the perfbench scripts (perfbench puts its folder on
    ``sys.path``, so its modules import by bare name)."""
    found = {_module_name(p, root): p for p in (root / PACKAGE).rglob("*.py")}
    found.update({p.stem: p for p in root.glob("*.py")})
    found.update({p.stem: p for p in (root / "perfbench").glob("*.py")})
    return found


def _imports(path: Path, root: Path = REPO) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` for each imported name; ``name`` is None for
    a plain ``import module``. Relative imports resolve against ``path``'s
    package."""
    tree = ast.parse(path.read_text(), str(path))
    here = _module_name(path, root).split(".")
    if path.name != "__init__.py":
        here.pop()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            out += [(node.lineno, module, a.name) for a in node.names]
    return out


def _targets(module: str, name: str | None, modules: dict) -> list[str]:
    """The known modules an import runs: each parent package, the module
    itself and, for ``from m import n``, the submodule ``m.n`` if there is
    one."""
    parts = module.split(".")
    chain = [".".join(parts[: i + 1]) for i in range(len(parts))]
    if name is not None:
        chain.append(f"{module}.{name}")
    return [m for m in chain if m in modules]


def _reached(entries: list[str], modules: dict, root: Path = REPO) -> set[str]:
    todo = list(entries)
    seen = set(todo)
    while todo:
        for _, module, name in _imports(modules[todo.pop()], root):
            for target in _targets(module, name, modules):
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
    return seen


def _bound_names(path: Path) -> set[str]:
    """Names a module binds at top level (under ``if`` / ``try`` too)."""
    names = set()
    stack = list(ast.parse(path.read_text(), str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                stack += handler.body
    return names


def _unresolved(path: Path, modules: dict, root: Path = REPO) -> list[str]:
    bad = []
    for line, module, name in _imports(path, root):
        if module != PACKAGE and not module.startswith(PACKAGE + "."):
            continue
        where = f"{path.relative_to(root)}:{line}"
        if module not in modules:
            bad.append(f"{where}: no module {module}")
        elif (name is not None and name != "*" and f"{module}.{name}" not in modules
              and name not in _bound_names(modules[module])):
            bad.append(f"{where}: {module} has no {name}")
    return bad


def test_guard_sees_unreached_and_unresolved(tmp_path):
    pkg = tmp_path / PACKAGE
    (pkg / "stages").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "stages" / "__init__.py").write_text("")
    (pkg / "stages" / "used.py").write_text("def f():\n    from . import dead\n")
    (pkg / "stages" / "dead.py").write_text("X = 1\n")
    (pkg / "stages" / "orphan.py").write_text("")
    tool = tmp_path / "tool.py"
    tool.write_text(f"from {PACKAGE}.stages.used import f, g\nimport {PACKAGE}.gone\n")
    modules = _modules(tmp_path)
    assert sorted(modules) == [
        PACKAGE, f"{PACKAGE}.stages", f"{PACKAGE}.stages.dead",
        f"{PACKAGE}.stages.orphan", f"{PACKAGE}.stages.used", "tool",
    ]
    # the function-local relative import reaches dead; nothing reaches orphan
    assert sorted(_reached(["tool"], modules, tmp_path)) == [
        PACKAGE, f"{PACKAGE}.stages", f"{PACKAGE}.stages.dead",
        f"{PACKAGE}.stages.used", "tool",
    ]
    assert [b.split(": ", 1)[1] for b in _unresolved(tool, modules, tmp_path)] == [
        f"{PACKAGE}.stages.used has no g", f"no module {PACKAGE}.gone",
    ]


def test_every_package_module_is_reached():
    modules = _modules()
    assert all(m in modules for m in ENTRY_POINTS)
    package = {m for m in modules if m == PACKAGE or m.startswith(PACKAGE + ".")}
    assert len(package) > 20
    unreached = package - _reached(ENTRY_POINTS, modules)
    assert not unreached - UNREACHED_ON_PURPOSE, sorted(unreached - UNREACHED_ON_PURPOSE)
    # an exception that is reached after all, or is gone, no longer needs one
    assert UNREACHED_ON_PURPOSE <= unreached


def test_every_package_import_resolves():
    modules = _modules()
    files = [*(REPO / "tests").glob("*.py"), *(REPO / "tools").glob("*.py"),
             REPO / "bench.py", *(REPO / PACKAGE).rglob("*.py")]
    bad = [b for path in sorted(files) for b in _unresolved(path, modules)]
    assert not bad, bad
