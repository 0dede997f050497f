"""Per-release raw dataset extraction.

Each dataset holds the tag-free text of every requirement valid at exactly
one release, so no release mixes with another.  Header-like records (too few
tokens to carry information) and exact duplicate texts are dropped, and the
drop counts are reported alongside the records.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring
from pathlib import Path

from .errors import UnknownReleaseError
from .model import DevelopmentRegistry, ReleaseId, SpecDocument, release_universe
# `materialize`, `render_segments` and `tokenize` are unused here;
# perfbench/tracer.py wraps them by name as speckit.dataset attributes.
from .parser import render_segments
from .resolver import materialize, resolve_runs
from .tokenizer import has_tokens, tokenize

DEFAULT_MIN_TOKENS = 5

# One JSONL record: keys in sorted order, json's default separators.
_RECORD = '{"id": %s, "release": %s, "text": %s}\n'


@dataclass(frozen=True)
class DatasetStats:
    total: int
    dropped_headers: int
    dropped_duplicates: int


@dataclass(frozen=True)
class ReleaseDataset:
    release: ReleaseId
    records: tuple[tuple[str, str], ...]  # (requirement id, resolved text)
    stats: DatasetStats


def _release_dataset(
    r: ReleaseId, candidates: list[tuple[str, str, bool]]
) -> ReleaseDataset:
    """Release `r`'s dataset from its (id, text, informative) candidates in document order.

    An uninformative text (too few tokens) is a dropped header, and a text
    already kept is a dropped duplicate.
    """
    records: list[tuple[str, str]] = []
    kept: set[str] = set()
    dropped_headers = 0
    dropped_duplicates = 0
    for req_id, text, informative in candidates:
        if not informative:
            dropped_headers += 1
        elif text in kept:
            dropped_duplicates += 1
        else:
            kept.add(text)
            records.append((req_id, text))
    return ReleaseDataset(
        release=r,
        records=tuple(records),
        stats=DatasetStats(len(candidates), dropped_headers, dropped_duplicates),
    )


def _extract(
    docs: list[SpecDocument],
    releases: list[ReleaseId],
    registry: DevelopmentRegistry,
    min_tokens: int,
) -> list[ReleaseDataset]:
    """One dataset per release of the ordered `releases`.

    Each requirement is resolved once per run of releases with one text
    (`resolve_runs`), and each distinct text is checked for tokens once.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must not be negative")
    position = {r: i for i, r in enumerate(releases)}
    candidates: list[list[tuple[str, str, bool]]] = [[] for _ in releases]
    informative: dict[str, bool] = {}
    for doc in docs:
        for req in doc.iter_requirements():
            for first, last, text, _, _ in resolve_runs(req, releases, None, registry):
                if text not in informative:
                    informative[text] = has_tokens(text, min_tokens)
                row = (req.id, text, informative[text])
                for i in range(position[first], position[last] + 1):
                    candidates[i].append(row)
    return [_release_dataset(r, rows) for r, rows in zip(releases, candidates)]


def extract_release_dataset(
    docs: list[SpecDocument],
    r: ReleaseId,
    registry: DevelopmentRegistry,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> ReleaseDataset:
    """Resolve every requirement valid at `r`, dropping headers and dups."""
    if r not in release_universe(docs, registry):
        raise UnknownReleaseError(str(r))
    return _extract(docs, [r], registry, min_tokens)[0]


def extract_all(
    docs: list[SpecDocument],
    registry: DevelopmentRegistry,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> list[ReleaseDataset]:
    """One dataset per release in the corpus universe."""
    return _extract(docs, release_universe(docs, registry), registry, min_tokens)


def dataset_to_jsonl(dataset: ReleaseDataset) -> str:
    """One line per record, byte-identical to `json.dumps(record, sort_keys=True,
    ensure_ascii=False)`: `encode_basestring` is that call's string encoder.
    """
    release = encode_basestring(str(dataset.release))
    return "".join(
        [
            _RECORD % (encode_basestring(req_id), release, encode_basestring(text))
            for req_id, text in dataset.records
        ]
    )


def write_datasets(datasets: list[ReleaseDataset], out_dir: Path) -> list[Path]:
    """Write `<out>/<release>.jsonl` per dataset plus `<out>/stats.json`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    stats = {}
    for dataset in datasets:
        path = out_dir / f"{dataset.release}.jsonl"
        path.write_text(dataset_to_jsonl(dataset), encoding="utf-8")
        written.append(path)
        stats[str(dataset.release)] = {
            "records": len(dataset.records),
            **asdict(dataset.stats),
        }
    stats_path = out_dir / "stats.json"
    stats_path.write_text(
        json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(stats_path)
    return written
