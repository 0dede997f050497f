"""Per-release raw dataset extraction.

Each dataset holds the tag-free text of every requirement valid at exactly
one release, so no release mixes with another.  Header-like records (too few
tokens to carry information) and exact duplicate texts are dropped, and the
drop counts are reported alongside the records.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .errors import UnknownReleaseError
from .model import DevelopmentRegistry, ReleaseId, SpecDocument, release_universe
from .parser import render_segments
from .resolver import materialize
# `tokenize` is unused here; perfbench/tracer.py wraps speckit.dataset.tokenize by name.
from .tokenizer import has_tokens, tokenize

DEFAULT_MIN_TOKENS = 5


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


def extract_release_dataset(
    docs: list[SpecDocument],
    r: ReleaseId,
    registry: DevelopmentRegistry,
    min_tokens: int = DEFAULT_MIN_TOKENS,
    *,
    universe: Optional[list[ReleaseId]] = None,
) -> ReleaseDataset:
    """Materialize every requirement valid at `r`, dropping headers and dups.

    `universe` is the corpus release universe when the caller already has it.
    """
    if universe is None:
        universe = release_universe(docs, registry)
    if r not in universe:
        raise UnknownReleaseError(str(r))
    records: list[tuple[str, str]] = []
    seen_texts: set[str] = set()
    total = 0
    dropped_headers = 0
    dropped_duplicates = 0
    for doc in docs:
        for req in doc.iter_requirements():
            resolved = materialize(req, r, None, registry)
            if resolved is None:
                continue
            total += 1
            if not has_tokens(resolved.text, min_tokens):
                dropped_headers += 1
                continue
            if resolved.text in seen_texts:
                dropped_duplicates += 1
                continue
            seen_texts.add(resolved.text)
            records.append((req.id, resolved.text))
    return ReleaseDataset(
        release=r,
        records=tuple(records),
        stats=DatasetStats(total, dropped_headers, dropped_duplicates),
    )


def extract_all(
    docs: list[SpecDocument],
    registry: DevelopmentRegistry,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> list[ReleaseDataset]:
    """One dataset per release in the corpus universe."""
    universe = release_universe(docs, registry)
    return [
        extract_release_dataset(docs, r, registry, min_tokens, universe=universe)
        for r in universe
    ]


def dataset_to_jsonl(dataset: ReleaseDataset) -> str:
    lines = [
        json.dumps(
            {"id": req_id, "release": str(dataset.release), "text": text},
            sort_keys=True,
            ensure_ascii=False,
        )
        for req_id, text in dataset.records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def naive_dump(docs: list[SpecDocument]) -> str:
    """Every version of every requirement, tags and all: the baseline to beat."""
    lines = []
    for doc in docs:
        for req in doc.iter_requirements():
            for version in req.versions:
                last = "open" if version.last_release is None else str(version.last_release)
                lines.append(
                    json.dumps(
                        {
                            "id": req.id,
                            "first": str(version.first_release),
                            "last": last,
                            "text": render_segments(version.content),
                        },
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                )
    return "\n".join(lines) + ("\n" if lines else "")


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
