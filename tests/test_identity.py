"""Byte-identity oracle: pinned sha256 of four outputs on the seed-42 corpus.

A change meant to keep behaviour (a speed-up, a refactor) must leave these
hashes as they are.  A change meant to alter an output updates the hash it
alters, and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from speckit.dataset import dataset_to_jsonl, extract_all
from speckit.index import build_index, index_to_json
from speckit.lint import LintConfig, lint_corpus
from speckit.model import DeploymentType, release_universe
from speckit.resolver import diff_behavior

INDEX_SHA256 = "cddd1df4b4c230514193d974387312c575b65644bc875c50f5c585f0d82788b9"
EXTRACT_SHA256 = "6b09632e31244138c23c4db8e4b9b71ab0a7e618d676d9d00a4c1d0d630b7a3e"
DIFF_SHA256 = "f89750cd9f80ad292e87aee1dc6a9a39e275670091fed6d59c05b7c902e7728f"
LINT_SHA256 = "9bbf4c0c4740b8c33579a03f5a06339ac34a2dc88270724bba94bc05340539ce"
LINT_TIGHT_SHA256 = "48dfa553628cfd412880ca6d5241fe0bcdefb9fa6657b2007962cd6810f934ca"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def index_output(bundle) -> str:
    return index_to_json(build_index(bundle.documents, bundle.registry, bundle.lexicon))


def extract_output(bundle) -> str:
    parts = []
    for dataset in extract_all(bundle.documents, bundle.registry):
        parts.append(f"# {dataset.release} {dataset.stats}\n")
        parts.append(dataset_to_jsonl(dataset))
    return "".join(parts)


def diff_output(bundle) -> str:
    universe = release_universe(bundle.documents, bundle.registry)
    lines = []
    for doc in bundle.documents:
        for req in doc.iter_requirements():
            for a, b in zip(universe, universe[1:]):
                for dep in (None, DeploymentType.SA, DeploymentType.NSA):
                    diff = diff_behavior(req, a, b, dep, bundle.registry)
                    lines.append(json.dumps(diff.to_dict(), sort_keys=True) + "\n")
    return "".join(lines)


def lint_output(bundle, config: LintConfig = LintConfig()) -> str:
    """The findings as `speckit lint --format json` prints them."""
    findings = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, config)
    return "".join(
        json.dumps(f.to_dict(), sort_keys=True, ensure_ascii=False) + "\n" for f in findings
    )


def lint_tight_output(bundle) -> str:
    """Lint with low limits, so that L2 fires far more often (183 findings, not 8)."""
    return lint_output(bundle, LintConfig(max_tokens=40, max_procedures=1, max_sections=1))


@pytest.mark.parametrize(
    "output, expected",
    [
        (index_output, INDEX_SHA256),
        (extract_output, EXTRACT_SHA256),
        (diff_output, DIFF_SHA256),
        (lint_output, LINT_SHA256),
        (lint_tight_output, LINT_TIGHT_SHA256),
    ],
    ids=["index-json", "extract-jsonl", "diff-behavior", "lint-json", "lint-json-tight"],
)
def test_output_sha256_pinned(bundle, output, expected):
    assert sha256(output(bundle)) == expected
