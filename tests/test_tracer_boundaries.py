"""Every name the benchmark's tracer wraps still exists in speckit.

`perfbench/tracer.py` patches `(module, name)` pairs listed in its
`BOUNDARIES` and `COUNTED` tables; a refactor that renames or removes one of
them breaks the traced benchmark pass.  The tables are read from the file's
source, so nothing under `perfbench/` is imported or run.  A name that a
speckit module imports and never reads must be one that `BOUNDARIES` wraps on
it, or one that another module imports from it, so dropping a wrapper cannot
leave its import behind.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict[str, dict[str, dict[str, str]]]:
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            tables[node.target.id] = ast.literal_eval(node.value)
    return tables


def _pairs() -> list[tuple[str, str, str]]:
    tables = _tables()
    return [
        (table, module, name)
        for table in ("BOUNDARIES", "COUNTED")
        for module, names in tables[table].items()
        for name in names
    ]


def test_tables_are_found():
    tables = _tables()
    assert tables["BOUNDARIES"] and tables["COUNTED"]


@pytest.mark.parametrize("table, module, name", _pairs())
def test_traced_name_resolves(table, module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), (
        f"{table} in perfbench/tracer.py wraps {module}.{name}, which does not exist"
    )


SRC = Path(__file__).resolve().parents[1] / "src" / "speckit"


def _unread(tree: ast.Module) -> set[str]:
    """The names the module's imports bind and none of its expressions reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read


def test_unread_finds_unread_imports():
    source = "from __future__ import annotations\nimport os.path\nfrom .a import b, c as d\nd()\n"
    assert _unread(ast.parse(source)) == {"os", "b"}


def test_every_unread_import_is_a_traced_name():
    """A speckit module imports no name that it never reads, unless the tracer
    wraps that name on it, or another speckit module imports the name from it.
    """
    modules = {
        f"speckit.{path.stem}": ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }
    passed_on = {
        (f"speckit.{node.module}", alias.name)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    traced = _tables()["BOUNDARIES"]
    dead = {
        module: sorted(
            name for name in _unread(tree)
            if name not in traced.get(module, {}) and (module, name) not in passed_on
        )
        for module, tree in modules.items()
    }
    assert {module: names for module, names in dead.items() if names} == {}
