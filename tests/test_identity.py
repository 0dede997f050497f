"""Byte-identity oracle: pinned sha256 of seeded outputs.

Six outputs are pinned on the seed-42 corpus (index JSON, every query
form's answers over the reloaded index, extract JSONL, diff sweep, and lint
JSON at default and tight limits), and every file `write_corpus` writes is
pinned for two generator settings.

A change meant to keep behaviour (a speed-up, a refactor) must leave these
hashes as they are.  A change meant to alter an output updates the hash it
alters, and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from speckit.dataset import dataset_to_jsonl, extract_all
from speckit.generator import generate_corpus, write_corpus
from speckit.index import (
    build_index,
    index_from_json,
    index_to_json,
    query_behavior,
    query_deployment,
    query_dev_changes,
    query_release_diff,
    query_requirements,
)
from speckit.lint import LintConfig, lint_corpus
from speckit.model import DeploymentType, release_universe
from speckit.resolver import diff_behavior

# Index format 6 stores each text as positions in a table of its distinct
# sentences, so the index JSON changed; the query answers read back from it
# did not.
INDEX_SHA256 = "da67f0bd44ec7e00aff9798f3c7570875a3bd4c379678d18a2c6a269c0ca4a92"
QUERY_SHA256 = "4ce569f2692d2c1f4dfcbc6c2b83c31fad5d98312932081e6b75961a9ce07d29"
EXTRACT_SHA256 = "6b09632e31244138c23c4db8e4b9b71ab0a7e618d676d9d00a4c1d0d630b7a3e"
DIFF_SHA256 = "f89750cd9f80ad292e87aee1dc6a9a39e275670091fed6d59c05b7c902e7728f"
LINT_SHA256 = "9bbf4c0c4740b8c33579a03f5a06339ac34a2dc88270724bba94bc05340539ce"
LINT_TIGHT_SHA256 = "48dfa553628cfd412880ca6d5241fe0bcdefb9fa6657b2007962cd6810f934ca"

# generate_corpus keyword arguments -> sha256 of each file write_corpus writes
CORPUS_FILES_SHA256 = {
    "seed42-size200": (
        dict(seed=42, size=200),
        {
            "SPEC_A.spec": "d192d7ecc6fdabc1c2aa8d7064306ba52bd4a35a35961c77917d790bdc23c25a",
            "SPEC_B.spec": "78a22c16fc5812f5f6ab7aa59bc9b5eb6425e1b83b9abef4fe04944633cd1d19",
            "registry.txt": "12b899567c939641c1eeb265cd110e5c0e83d4990a0ab6fe27f0f3b273ad2a82",
            "lexicon.json": "10b2d1cc6dfa158cb635159a3382ad2f76a3d1752373034f230cc4998b0fa9b5",
            "ground_truth.json": "38f07e535df33a7a188159d051a137cc702fd4abfe77119fbf86f20732e108b5",
        },
    ),
    "seed5-size300-injections": (
        dict(seed=5, size=300, dup_pairs=20, overlength=3, alias_usages=30, dispersed_procs=1),
        {
            "SPEC_A.spec": "a7490495db205c11c86ba73aa426a289057ae7e438013e760996c8cd11dcbe55",
            "SPEC_B.spec": "2a0f56e55194fb46d77a3ae5f2874cf661d272267d44f751c88bdd56db689592",
            "registry.txt": "5f5e85d0d275e57485456b26ca54acff4ff54954131186798ec56afd4d19a144",
            "lexicon.json": "10b2d1cc6dfa158cb635159a3382ad2f76a3d1752373034f230cc4998b0fa9b5",
            "ground_truth.json": "14f83c3f04c609b0c9429f07eff5ef83982aa1c28ca7bbb587873c755de636df",
        },
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def index_output(bundle) -> str:
    return index_to_json(build_index(bundle.documents, bundle.registry, bundle.lexicon))


def query_output(bundle) -> str:
    """Every query form's answer, per procedure, over the index reloaded from JSON."""
    index = index_from_json(index_output(bundle))
    universe = index.release_universe
    lines = []

    def emit(*key_and_answer) -> None:
        lines.append(json.dumps(key_and_answer, sort_keys=True, ensure_ascii=False) + "\n")

    for proc in sorted(index.proc_req):
        emit("reqs", proc, sorted(query_requirements(index, proc)))
        for r in universe:
            emit("behavior", proc, str(r), query_behavior(index, proc, r))
            for dep in DeploymentType:
                emit("deployment", proc, dep.value, str(r), query_deployment(index, proc, dep, r))
            for b in universe:
                diffs = query_release_diff(index, proc, r, b)
                emit("diff", proc, str(r), str(b), [d.to_dict() for d in diffs])
        for dep in DeploymentType:
            emit("deployment", proc, dep.value, None, query_deployment(index, proc, dep))
        for dev in sorted(index.registry):
            emit("dev", proc, dev, [d.to_dict() for d in query_dev_changes(index, proc, dev)])
    return "".join(lines)


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
        (query_output, QUERY_SHA256),
        (extract_output, EXTRACT_SHA256),
        (diff_output, DIFF_SHA256),
        (lint_output, LINT_SHA256),
        (lint_tight_output, LINT_TIGHT_SHA256),
    ],
    ids=["index-json", "query-answers", "extract-jsonl", "diff-behavior", "lint-json", "lint-json-tight"],
)
def test_output_sha256_pinned(bundle, output, expected):
    assert sha256(output(bundle)) == expected


@pytest.mark.parametrize("setting", sorted(CORPUS_FILES_SHA256))
def test_corpus_files_sha256_pinned(tmp_path: Path, setting):
    kwargs, expected = CORPUS_FILES_SHA256[setting]
    written = write_corpus(generate_corpus(**kwargs), tmp_path)
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
    assert actual == expected
