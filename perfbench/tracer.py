"""In-memory span tracer installed at speckit's module boundaries.

The traced pass of the benchmark replaces, on each consumer module, the names
it imported from another layer (for example `speckit.index.tokenize` or
`speckit.dataset.release_universe`) with wrappers that record a span: name,
start, end and the enclosing span.  Wrappers return results and raise
exceptions unchanged, so a traced pass still has to pass every oracle.
Spans stay in memory; `Tracer.self_times` and `Tracer.totals` read them once
at the end.  Nothing in `src/speckit/` is edited: the patching happens from
here, in the benchmark's process only.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Optional

# consumer module -> {imported or module-level name: span name}.  Calls a
# module makes to its own globals are only seen where they are listed here.
BOUNDARIES: dict[str, dict[str, str]] = {
    "speckit.parser": {
        "parse_document": "parser.parse",
        "load_registry": "parser.parse",
        "validate_corpus": "parser.validate",
    },
    "speckit.lexicon": {
        "tokenize": "tokenizer.tokenize",
        "load_lexicon": "lexicon.load",
    },
    "speckit.resolver": {
        "diff_behavior": "resolver.diff",
    },
    "speckit.lint": {
        "tokenize": "tokenizer.tokenize",
        "normalize": "tokenizer.normalize",
        "find_mentions": "lexicon.find_mentions",
        "materialize": "resolver.resolve",
        "release_universe": "model.release_universe",
        "render_segments": "parser.render",
        "lint_corpus": "lint",
        "detect_duplication": "lint.L1",
        "check_length": "lint.L2",
        "check_standardization": "lint.L3",
        "check_grammar": "lint.L4",
        "check_dispersion": "lint.L5",
    },
    "speckit.index": {
        "tokenize": "tokenizer.tokenize",
        "find_mentions": "lexicon.find_mentions",
        "phrase_key": "lexicon.phrase_key",
        "resolve_details": "resolver.resolve",
        "diff_texts": "resolver.diff",
        "release_universe": "model.release_universe",
        "build_index": "index.build",
        "index_to_json": "index.to_json",
        "index_from_json": "index.from_json",
        "query_behavior": "index.query.behavior",
        "query_release_diff": "index.query.diff",
        "query_dev_changes": "index.query.dev",
        "query_requirements": "index.query.reqs",
        "query_deployment": "index.query.deployment",
    },
    "speckit.dataset": {
        "tokenize": "tokenizer.tokenize",
        "materialize": "resolver.resolve",
        "release_universe": "model.release_universe",
        "render_segments": "parser.render",
        "extract_all": "dataset.extract_all",
        "extract_release_dataset": "dataset.extract_release",
        "dataset_to_jsonl": "dataset.jsonl",
    },
}

# Hot calls that are counted but get no span: a span per L1 pair would cost
# more than the Jaccard it measures.
COUNTED: dict[str, dict[str, str]] = {
    "speckit.lint": {"jaccard": "lint.L1.pairs_checked"},
}


class Tracer:
    """Spans kept as [name, start, end, parent index] in call order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `observe(args, result)` runs after it."""
        spans, stack, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def totals(self) -> Counter:
        """Inclusive seconds per span name, not counting a span nested in one of its own name."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def install(tracer: Tracer, observers: dict[str, Callable]) -> Callable[[], None]:
    """Wrap every boundary in BOUNDARIES and COUNTED; returns the undo function.

    `observers` maps a span name to an `observe(args, result)` callback.
    """
    undo = []
    for module_name, names in BOUNDARIES.items():
        module = importlib.import_module(module_name)
        for attr, span in names.items():
            original = getattr(module, attr)
            setattr(module, attr, tracer.wrap(span, original, observers.get(span)))
            undo.append((module, attr, original))
    for module_name, names in COUNTED.items():
        module = importlib.import_module(module_name)
        for attr, counter in names.items():
            original = getattr(module, attr)
            setattr(module, attr, tracer.count(counter, original))
            undo.append((module, attr, original))

    def uninstall() -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return uninstall
