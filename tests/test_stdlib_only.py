"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qalcove"


def _imported_roots(source: str) -> set[str]:
    """The top-level names of the absolute imports in a module's source;
    relative imports name the package itself."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_reader_sees_every_import_form():
    source = "import os.path, json\nfrom fractions import Fraction\nfrom . import cli\nfrom .lie_data import Weight\n"
    assert _imported_roots(source) == {"os", "json", "fractions"}


def test_every_module_imports_only_the_standard_library_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    for module in modules:
        outside = _imported_roots(module.read_text()) - set(sys.stdlib_module_names) - {"qalcove"}
        assert not outside, f"{module.name} imports {sorted(outside)}"
