"""Every import in the package, its tests and the benchmark resolves to the
standard library, to the project's own modules, or to a declared dependency:
a package that is installed locally but not declared in pyproject.toml would
pass here and fail only on a clean install."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWN = {"mzdephase", "bench", "conftest"}
# pyproject.toml: dependencies and the "test" extra
DECLARED = {"numpy", "pytest", "hypothesis"}
MODULES = sorted(p for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py"))


def imported_names(path: Path) -> set[str]:
    """The first dotted component of every absolute import in a module,
    function-local ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_folder_has_modules():
    for folder in ("src", "tests", "bench"):
        assert any(p.is_relative_to(ROOT / folder) for p in MODULES), folder


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_are_standard_own_or_declared(path):
    allowed = set(sys.stdlib_module_names) | OWN | DECLARED
    assert sorted(imported_names(path) - allowed) == []
