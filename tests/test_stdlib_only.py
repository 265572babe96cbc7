"""``src/`` is stdlib-only: every import names a standard-library module or ``cyberdep``."""

import ast
import sys
from pathlib import Path

import cyberdep

PACKAGE = Path(cyberdep.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_cyberdep():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 5
    foreign = {f"{path.relative_to(PACKAGE)}: {name}"
               for path in sources for name in imported_modules(path)
               if name not in sys.stdlib_module_names and name != "cyberdep"}
    assert foreign == set()


def test_the_check_sees_third_party_imports(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os\nimport numpy.linalg\nfrom yaml import load\nfrom . import x\n")
    assert imported_modules(source) == {"os", "numpy", "yaml"}
