"""Every module-level import under ``src/entwitness``, ``tests`` and ``demos`` is used.

A name bound by a module-level ``import`` or ``from ... import`` counts as
used when the module reads it as a name (``ast.Name``, which covers the
root of an attribute chain and annotations) or lists it in ``__all__``.
``from __future__`` imports bind nothing.  The check reads the source
with :mod:`ast`, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entwitness"
MODULES = sorted(PACKAGE.rglob("*.py"))
# the acceptance suite is pinned as written, so it is not edited for its imports
UNCHECKED = {ROOT / "tests" / "test_acceptance.py"}
SCRIPTS = sorted(
    p for d in ("tests", "demos") for p in (ROOT / d).rglob("*.py") if p not in UNCHECKED
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in read)


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_test_and_demo_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scripts_are_found():
    assert ROOT / "tests" / "conftest.py" in SCRIPTS
    assert ROOT / "demos" / "noise_thresholds.py" in SCRIPTS


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom .spaces import A, B\n\nx = np.zeros(A)\n"
    assert unused_imports(source) == [("B", 4), ("math", 2)]


def test_the_check_counts_annotations_and_all():
    source = "from typing import Sequence\nfrom .linalg import kron\n__all__ = ['kron']\n\ndef f(x: Sequence[int]): pass\n"
    assert unused_imports(source) == []
