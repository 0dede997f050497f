"""Every name the benchmark's tracer wraps still exists in speckit.

`perfbench/tracer.py` patches `(module, name)` pairs listed in its
`BOUNDARIES` and `COUNTED` tables; a refactor that renames or removes one of
them breaks the traced benchmark pass.  The tables are read from the file's
source, so nothing under `perfbench/` is imported or run.
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
