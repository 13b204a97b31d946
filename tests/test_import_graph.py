"""The three pipelines stay algebraically independent.

``check`` is worth something only because ``lie``, ``trees`` (the modules
``trees`` and ``treeforms``) and ``onedof`` reach the normal form by
different routes.  They may share the series, operator, scalar and error
layers, but none may import another pipeline.  This test reads the import
statements of every package module with ``ast``, without importing them.
"""

import ast
from pathlib import Path

import pytest

from helpers import SRC_DIR

PACKAGE = SRC_DIR / "birkhoff"

FORBIDDEN = {
    "lie": {"trees", "treeforms", "onedof"},
    "treeforms": {"lie", "onedof"},
    "onedof": {"lie", "treeforms"},
}


def imported_modules(path: Path) -> set[str]:
    """Package modules that the file imports, by their short names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("birkhoff.")]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("birkhoff"):
                continue
            base = base.removeprefix("birkhoff").lstrip(".")
            if base:
                names = [base]
            else:  # from . import x
                names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            name = name.removeprefix("birkhoff.")
            found.add(name.split(".")[0])
    return found


def test_every_guarded_module_exists():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(FORBIDDEN) <= modules


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_pipeline_imports_no_other_pipeline(module):
    assert imported_modules(PACKAGE / f"{module}.py") & FORBIDDEN[module] == set()


def test_reader_sees_relative_and_absolute_imports(tmp_path):
    source = (
        "import os\n"
        "import birkhoff.onedof\n"
        "from . import trees\n"
        "from .series import PolySeries\n"
        "from birkhoff.lie import exp_lie\n"
        "from fractions import Fraction\n"
    )
    probe = tmp_path / "probe.py"
    probe.write_text(source, encoding="utf-8")
    assert imported_modules(probe) == {"onedof", "trees", "series", "lie"}
