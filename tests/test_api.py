"""The public API: what ``ofc`` exports, that the demos keep to it, and that
``ofc.metrics`` depends on no other ``ofc`` module but ``ofc.errors``."""
import ast
from pathlib import Path

import pytest

import ofc

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in ofc.__all__ if not hasattr(ofc, name)]
    assert missing == []
    assert len(set(ofc.__all__)) == len(ofc.__all__)


def test_metrics_is_a_leaf_module():
    tree = ast.parse(Path(ofc.metrics.__file__).read_text())
    sources = {"." * n.level + (n.module or "") for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom)}
    assert {m for m in sources if m.startswith((".", "ofc"))} == {".errors"}


def _private_ofc_imports(source: str) -> list:
    """Underscore-prefixed names, or modules, imported from ``ofc``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "ofc":
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [p for p in parts if p.startswith("_")]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ofc":
                    found += [p for p in parts if p.startswith("_")]
    return found


def test_private_import_check_sees_private_names():
    assert _private_ofc_imports("from ofc.solver import train, _start") == ["_start"]
    assert _private_ofc_imports("import ofc._impl") == ["_impl"]
    assert _private_ofc_imports("from numpy import _globals\nfrom ofc import fit") == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_no_private_ofc_name(demo):
    assert _private_ofc_imports(demo.read_text()) == []
