"""The index writer and loader hold no second copy of the index.

`tracemalloc` traces this process's allocations from the call on, so each
figure is the call's own peak: the writer's against the length of the JSON it
returns, the loader's against the length of the JSON it reads.  On the
session bundle, nesting the whole document for one `json.dumps` peaked at
7.2 times the output, and loading with every raw section alive to the end
and a tuple and id `str` per entry at 7.0 times the input (3.0 and 4.35 now;
3.1 and 4.8 in index format 6, whose "proc_release" entries each held a
text reference, so its file was 3% larger; 3.2 and 3.6 in format 5, whose
texts were stored whole, so its file was 15% larger and the loader parsed no
sentence table).
"""

import gc
import tracemalloc

from speckit.index import index_from_json, index_to_json
from support import clear_intern_tables

WRITER_PEAK = 3.5  # times the output's length
LOAD_PEAK = 5.0  # times the input's length


def _traced_peak(call, *args):
    """`call(*args)`, and the most memory it held at once, in bytes.

    The call must leave no reference cycle behind: what it allocated and
    did not return is freed when it returns, not at some later collection.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gc.collect() == 0, f"{call.__name__} left reference cycles"
    return result, peak


def test_writer_peak_is_bounded_by_its_output(corpus_index):
    blob, peak = _traced_peak(index_to_json, corpus_index)
    assert peak <= WRITER_PEAK * len(blob), f"{peak / len(blob):.2f}x the output"


def test_load_peak_is_bounded_by_its_input(corpus_index):
    blob = index_to_json(corpus_index)
    clear_intern_tables()  # the loader's diffs fill the memo tables from cold
    _, peak = _traced_peak(index_from_json, blob)
    assert peak <= LOAD_PEAK * len(blob), f"{peak / len(blob):.2f}x the input"
