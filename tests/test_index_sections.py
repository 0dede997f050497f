"""Every index section the benchmark measures is a top-level key of the index JSON.

`perfbench/workloads.py` reports `index.bytes.<section>` for each name in its
`INDEX_SECTIONS` by reading that key of a written index, so a format change
that drops or renames one breaks `perfbench/run.py --trace 1` with a
`KeyError`.  The tuple is read from the file's source, so nothing under
`perfbench/` is imported or run.
"""

import ast
import json
from pathlib import Path

from speckit.index import index_to_json

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _index_sections() -> tuple[str, ...]:
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "INDEX_SECTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no INDEX_SECTIONS")


def test_sections_are_found():
    assert _index_sections()


def test_each_section_is_a_top_level_key(corpus_index):
    keys = set(json.loads(index_to_json(corpus_index)))
    missing = [name for name in _index_sections() if name not in keys]
    assert not missing, (
        f"perfbench/workloads.py INDEX_SECTIONS names {missing}, which index_to_json "
        "does not write"
    )
