"""Every module-level import in the package is used by its module, every
module-private top-level name is referenced somewhere in the package, only
``transition`` imports the single-entry U readers, the only private names one
module imports from another are ``poly``'s integer-numerator helpers and the
bracket kernel, the caches the benchmark reads by name exist, the
package's ``lru_cache``s are exactly the known ones, and importing the
package raises no warning."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import rcbrackets

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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_private_names_are_used(path: Path) -> None:
    defined = []
    for node in PACKAGE_TREES[path].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [target.id for target in targets if isinstance(target, ast.Name)]
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - _referenced_names()) == []


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
    second polynomial format or converter shared across modules fails here."""
    allowed = {
        "poly._numerators",
        "poly._reduced",
        "poly._substituted",
        "poly._sum",
        "poly._times",
        "brackets._bracket_kernel",
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
        "hypergeom.bracket_coeff_row",
        "brackets._monomial_bracket",
        "transition._u_cached",
        "transition._cmz_sum",
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
