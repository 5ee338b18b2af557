"""Every module-level import in the package is used by its module, every
module-private top-level name is referenced somewhere in the package, only
``transition`` imports the single-entry U readers, the only private names one
module imports from another are ``poly``'s integer-numerator helpers, the
bracket kernel and the engine's scope check, the caches, layers and hooked callables the benchmark reads by
name exist, the package's ``lru_cache``s are exactly the known ones, importing
the package raises no warning, every public name has a caller in the package
or a place in the README, and the README lists every module and its quick tour
runs."""
from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import rcbrackets
from rcbrackets import cli

MODULES = sorted(
    path for path in Path(rcbrackets.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_import(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(bound) - used) == []


PACKAGE_TREES = {
    path: ast.parse(path.read_text(encoding="utf-8"))
    for path in Path(rcbrackets.__file__).parent.glob("*.py")
}


def _referenced_names() -> set[str]:
    """Names the package reads: loaded names, attribute names and imported names."""
    out: set[str] = set()
    for tree in PACKAGE_TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def _top_level_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) for each name a module binds at top level
    with ``def``, ``class`` or an assignment to a plain name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(target.id, node) for target in targets if isinstance(target, ast.Name)]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_private_names_are_used(path: Path) -> None:
    defined = [name for name, _ in _top_level_names(PACKAGE_TREES[path])]
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - _referenced_names()) == []


def test_public_names_have_a_caller_or_a_readme_place() -> None:
    """Every public top-level name of a module is read outside its own
    definition by a package module other than ``__init__``, or is named in a
    code span of the README; ``cli.cmd_<name>`` is called through the
    subcommand <name> of ``build_parser()``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", readme))))
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {"cmd_" + command.replace("-", "_") for command in sub.choices}
    trees = [PACKAGE_TREES[path] for path in MODULES]

    def read_elsewhere(name: str, definition: ast.stmt) -> bool:
        own = {id(node) for node in ast.walk(definition)}
        return any(
            id(node) not in own
            and (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name
            )
            for tree in trees
            for node in ast.walk(tree)
        )

    unplaced = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name, definition in _top_level_names(PACKAGE_TREES[path])
        if not name.startswith("_")
        and name not in named
        and not (path.stem == "cli" and name in commands)
        and not read_elsewhere(name, definition)
    ]
    assert unplaced == []


def test_u_is_read_by_rows_outside_transition() -> None:
    """Only ``transition`` evaluates single U entries; the rest reads the cached matrix."""
    single_entry = {"u_coefficient", "u_reverse", "RacahQuery"}
    for path in MODULES:
        if path.stem == "transition":
            continue
        imported = {
            alias.name
            for node in ast.walk(PACKAGE_TREES[path])
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert sorted(single_entry & imported) == [], path.stem


def test_private_imports_are_the_one_integer_format() -> None:
    """``poly.Numerators`` is the package's one integer-numerator format, so a
    second polynomial format or converter shared across modules fails here.
    ``engine._check_scope`` is the one scope check, which ``identities.run_suite``
    shares with the engine."""
    allowed = {
        "poly._numerators",
        "poly._reduced",
        "poly._sum",
        "poly._times",
        "brackets._bracket_kernel",
        "engine._check_scope",
    }
    for path, tree in PACKAGE_TREES.items():
        imported = {
            f"{node.module.removeprefix('rcbrackets.')}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module and node.module != "__future__"
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert sorted(imported - allowed) == [], path.stem


def test_benchmark_cache_names_exist() -> None:
    """``perfbench/spans.py`` reads ``cache_info()`` of these caches by name."""
    for name in (
        "rationals.factorial",
        "rationals._pochhammer_cached",
        "rationals._binom_cached",
        "brackets._monomial_bracket",
        "transition._u_cached",
    ):
        module, attr = name.split(".")
        cache = getattr(import_module(f"rcbrackets.{module}"), attr, None)
        assert hasattr(cache, "cache_info"), name


ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_layers_and_hooks_resolve() -> None:
    """``perfbench/spans.py`` wraps the public callables of each module in
    ``LAYERS`` and hooks some by name, so a callable moved to another module
    would silently zero its per-layer metrics.  The file is compiled from its
    text, so no bytecode is written next to it."""
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans.__dict__)
    for layer in spans.LAYERS:
        import_module(f"rcbrackets.{layer}")
    hooks = spans.Tracer()._after_hooks()
    assert hooks
    for key in hooks:
        layer, *names = key.split(".")
        target = import_module(f"rcbrackets.{layer}")
        for name in names:
            target = getattr(target, name, None)
        assert callable(target), key
        assert target.__module__ == f"rcbrackets.{layer}", key


def test_readme_lists_every_module() -> None:
    """The README's "What is inside" table has a row for every module."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    rows = {
        line.split("`")[1].removeprefix("rcbrackets.")
        for line in section.splitlines()
        if line.startswith("| `rcbrackets.")
    }
    modules = {path.stem for path in MODULES} - {"__main__"}
    assert sorted(modules - rows) == []
    assert sorted(rows - modules) == []


def test_readme_quick_tour_runs() -> None:
    """The ```python blocks of the README's "Python quick tour" run in order in
    one namespace, so the tour names no function the package does not have."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python quick tour", 1)[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_package_caches_are_known() -> None:
    """Every cache is unbounded, so a new one has to be added here on purpose."""
    cached = {
        f"{path.stem}.{node.name}"
        for path, tree in PACKAGE_TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any("cache" in ast.unparse(deco) for deco in node.decorator_list)
    }
    assert cached == {
        "rationals.factorial",
        "rationals._pochhammer_cached",
        "rationals._binom_cached",
        "brackets._monomial_bracket",
        "transition._u_cached",
    }


def test_import_raises_no_warning(tmp_path: Path) -> None:
    """``python -W error -c "import rcbrackets"`` exits 0.  No bytecode is
    written, and an empty cache prefix makes every module compile from source,
    so that compile-time warnings are raised too."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import rcbrackets"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
