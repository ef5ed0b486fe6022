"""Source hygiene: no library module imports a name it never uses.

The one allowance is a name that bench/tracer.py lists in INNER_BINDINGS
for that module. The tracer wraps such a name on the module where the
library looks it up, so the import has to stay even where no code calls it.
The table is read from the tracer's source, so bench/ is never imported.
`__init__.py` is exempt: its imports are the package's public names.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "smalldigits").glob("*.py") if p.stem != "__init__")


def _inner_bindings() -> dict:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["INNER_BINDINGS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no INNER_BINDINGS")


def _unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_import_finder():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nprint(os, pi)\n"
    assert _unused_imports(source) == {"np", "tau"}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (ROOT / "src" / "smalldigits" / f"{module}.py").read_text()
    allowed = set(_inner_bindings().get(module, ()))
    assert _unused_imports(source) - allowed == set()


def test_inner_bindings_resolve():
    for module, names in _inner_bindings().items():
        mod = importlib.import_module(f"smalldigits.{module}")
        assert [n for n in names if not hasattr(mod, n)] == [], module
