"""Every package module is reached from an entry point, every public
top-level name of the package is referenced, and every import of the
package resolves.

This walks syntax trees; no module is imported and no Ray session starts.
Reachability follows every ``import`` and ``from ... import`` (function-local
ones included) from the entry points: the query entry contract
(``__ray_entry__.py``), the CLI (``ertransfer_ray/__main__.py``), the query
registry (``pipelines/queries.py``), ``bench.py`` and the ``perfbench``
scripts. A module that none of them reaches is code that no query, pipeline
stage, CLI command or benchmark runs.

A public top-level function or class counts as referenced when the package,
``bench.py``, ``__ray_entry__.py`` or a ``perfbench`` script imports it,
reads it as an attribute of an imported module, uses it in its own module,
or registers it with a decorator such as ``@register_stage``. Tests and
tools do not count: a name only they use is code that nothing runs."""

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
    # SURVEY row M15 maps it to the reference's pair tokenizer
    f"{PACKAGE}.functions.lm_tokenize",
    # kept with its 42 tests so that one change deletes at most 55 tests;
    # due for deletion (ROADMAP item 9)
    f"{PACKAGE}.functions.codecs",
}

#: decorators that register what they decorate, so that it is reached by name
REGISTRATIONS = {"register_stage"}

_TEST_REFERENCE = "a reference a test compares against"
_FIXTURE_WRITER = "a fixture writer for the reader beside it"
_DEFERRED = "its module is unreached and due for deletion (ROADMAP item 9)"

#: public package names that nothing but tests and tools references, with the
#: reason each one stays: the COVERAGE row (or section) that maps it to the
#: reference, one of the two reasons above, or the north star
UNREFERENCED_ON_PURPOSE = {
    "functions.codecs.audio_features": _DEFERRED,
    "functions.codecs.decode_bmp": _DEFERRED,
    "functions.codecs.decode_png": _DEFERRED,
    "functions.codecs.decode_wav": _DEFERRED,
    "functions.codecs.encode_bmp": _DEFERRED,
    "functions.codecs.encode_png": _DEFERRED,
    "functions.codecs.encode_wav": _DEFERRED,
    "functions.codecs.image_embedding": _DEFERRED,
    "functions.codecs.resize_nearest": _DEFERRED,
    "functions.codecs.sniff_mime": _DEFERRED,
    "functions.lm_tokenize.tokenize_pairs": "COVERAGE M15",
    "functions.lm_tokenize.truncated_lengths": _TEST_REFERENCE,
    "functions.pii.redact_pii": _TEST_REFERENCE,
    "functions.simfuncs.jaro_winkler": _TEST_REFERENCE,
    "functions.simfuncs.set_metric": _TEST_REFERENCE,
    "functions.simfuncs.softmax": "COVERAGE M13",
    "functions.textnorm.add_prefix": "COVERAGE M9",
    "functions.textnorm.ditto_serialize": "COVERAGE M5",
    "functions.textnorm.pair_serialize": "COVERAGE M6",
    "functions.textnorm.strip_namespace": "COVERAGE M7",
    "pipelines.metrics.pairwise_f1": _TEST_REFERENCE,
    "pipelines.splitter.merge_splits_to_matches": "COVERAGE D2",
    "pipelines.splitter.random_split": "COVERAGE M11",
    "pipelines.splitter.threshold_grid_search": "COVERAGE M14",
    "pipelines.steps.PipelineStage": "COVERAGE §2.10",
    "pipelines.steps.available_stages": "COVERAGE §2.10",
    "pipelines.transfer.pairwise_kl_matrix": "COVERAGE A5",
    "pipelines.transfer.select_transfer_source": "COVERAGE A5",
    "pipelines.transfer.write_kl_report": "COVERAGE A5",
    "sources.jsonl.write_jsonl_file": _FIXTURE_WRITER,
    "sources.pages.write_pages_corpus": _FIXTURE_WRITER,
    "sources.warc.read_wet": "COVERAGE S1+",
    "sources.warc.write_warc": "COVERAGE S1+",
    "sources.warc.write_warc_file": _FIXTURE_WRITER,
    "stages.blocking.blocking_stats": "COVERAGE A1",
    "stages.clustering.mutual_best_rounds": "COVERAGE D4",
    # the north star's incremental dedup store, with its Bloom sidecars and
    # the crash and idempotency tests in tests/test_dedup.py
    "stages.dedup.exact_dedup_incremental": "north star",
    "stages.em_matcher.em_score_pairs": "COVERAGE T7",
    "stages.em_matcher.neighbor_lists": "COVERAGE J7",
    "stages.kmeans.cluster_label_report": "COVERAGE A9",
    "stages.knn.ivf_topk": "COVERAGE J2",
    "stages.quant.dequantize_embeddings": _TEST_REFERENCE,
    "stages.windows.kl_divergence": "COVERAGE A5",
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


def _package_of(path: Path, root: Path = REPO) -> list[str]:
    here = _module_name(path, root).split(".")
    if path.name != "__init__.py":
        here.pop()
    return here


def _from_module(node: ast.ImportFrom, here: list[str]) -> str:
    """The module a ``from ... import`` names; relative ones resolve against
    the package ``here``."""
    base = here[: len(here) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def _imports(path: Path, root: Path = REPO) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` for each imported name; ``name`` is None for
    a plain ``import module``. Relative imports resolve against ``path``'s
    package."""
    tree = ast.parse(path.read_text(), str(path))
    here = _package_of(path, root)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _from_module(node, here)
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


def _public_defs(path: Path) -> list[str]:
    """Public functions and classes a module defines at top level."""
    return [n.name for n in ast.parse(path.read_text(), str(path)).body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def _references(path: Path, modules: dict, root: Path = REPO) -> set[tuple[str, str]]:
    """``(module, name)`` for each name ``path`` refers to: one it imports
    with ``from module import name``, an attribute of a module it imports
    (``alias.name``, or a dotted chain through subpackages), a name it uses
    that its own module binds, and a definition it registers."""
    tree = ast.parse(path.read_text(), str(path))
    own, here = _module_name(path, root), _package_of(path, root)
    bound, found = {}, set()  # bound: local name -> the module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                bound[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            module = _from_module(node, here)
            for a in node.names:
                if f"{module}.{a.name}" in modules:
                    bound[a.asname or a.name] = f"{module}.{a.name}"
                else:
                    found.add((module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add((own, node.id))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if any(isinstance(d, ast.Name) and d.id in REGISTRATIONS
                   for d in node.decorator_list):
                found.add((own, node.name))
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if not (isinstance(node, ast.Name) and node.id in bound):
                continue
            module = bound[node.id]
            for attr in reversed(chain):
                if f"{module}.{attr}" not in modules:
                    found.add((module, attr))
                    break
                module = f"{module}.{attr}"
    return found


def _unreferenced(modules: dict, root: Path = REPO) -> list[str]:
    """``module.name`` for each public top-level function or class of the
    package that no module in ``modules`` refers to."""
    used = set().union(*(_references(p, modules, root) for p in modules.values()))
    return sorted(
        f"{m}.{n}" for m, path in modules.items()
        if m == PACKAGE or m.startswith(PACKAGE + ".")
        for n in _public_defs(path) if (m, n) not in used
    )


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


def test_guard_sees_unreferenced_names(tmp_path):
    pkg = tmp_path / PACKAGE
    (pkg / "stages").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "stages" / "__init__.py").write_text("")
    (pkg / "stages" / "lib.py").write_text(
        "def imported(): pass\n"
        "def by_attribute(): pass\n"
        "def by_chain(): pass\n"
        "def helper(): pass\n"
        "def caller(): return helper()\n"
        "def _private(): pass\n"
        "def dead(): pass\n"
        "@register_stage\n"
        "class Registered: pass\n"
        "@other\n"
        "class Decorated: pass\n"
    )
    (tmp_path / "tool.py").write_text(
        f"from {PACKAGE}.stages.lib import imported\n"
        f"from {PACKAGE}.stages import lib as L\n"
        f"import {PACKAGE}.stages.lib\n"
        "L.by_attribute()\n"
        f"{PACKAGE}.stages.lib.by_chain()\n"
    )
    assert _unreferenced(_modules(tmp_path), tmp_path) == [
        f"{PACKAGE}.stages.lib.Decorated", f"{PACKAGE}.stages.lib.caller",
        f"{PACKAGE}.stages.lib.dead",
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


def test_every_public_name_is_referenced():
    unreferenced = set(_unreferenced(_modules()))
    allowed = {f"{PACKAGE}.{name}" for name in UNREFERENCED_ON_PURPOSE}
    assert not unreferenced - allowed, sorted(unreferenced - allowed)
    # a name on the list that is referenced after all, or is gone, leaves it
    assert allowed <= unreferenced, sorted(allowed - unreferenced)
    # each cited COVERAGE row (or section) is there
    coverage = (REPO / "COVERAGE.md").read_text()
    cited = {r.split(" ", 1)[1] for r in UNREFERENCED_ON_PURPOSE.values()
             if r.startswith("COVERAGE ")}
    missing = [c for c in cited if f"| {c} |" not in coverage and f"## {c} " not in coverage]
    assert not missing, missing


def test_every_package_import_resolves():
    modules = _modules()
    files = [*(REPO / "tests").glob("*.py"), *(REPO / "tools").glob("*.py"),
             REPO / "bench.py", *(REPO / PACKAGE).rglob("*.py")]
    bad = [b for path in sorted(files) for b in _unresolved(path, modules)]
    assert not bad, bad
