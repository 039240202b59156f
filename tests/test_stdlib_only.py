"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module."""

import ast
import sys
from pathlib import Path

import amenshift

SOURCES = sorted(Path(amenshift.__file__).parent.glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of each absolute import in a source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_every_absolute_import_is_a_standard_library_module():
    assert len(SOURCES) > 10
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


def test_the_check_sees_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import json\nfrom numpy.linalg import norm\nfrom . import groups\n")
    assert absolute_imports(source) == ["json", "numpy"]
    assert "numpy" not in sys.stdlib_module_names
