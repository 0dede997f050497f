"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is exact (text equality, exact counts, exact sets).
"""

import random
from collections import Counter

from speckit.dataset import dataset_to_jsonl, extract_all, write_datasets
from speckit.generator import RELEASES
from speckit.index import (
    UNMAPPED,
    query_behavior,
    query_deployment,
    query_dev_changes,
    query_release_diff,
    query_requirements,
)
from speckit.lint import SEVERITY_BY_RULE, LintConfig, LintRule, Severity, lint_corpus
from speckit.model import TAG_RE, DeploymentType, DevelopmentRegistry, ReleaseId
from speckit.parser import parse_document, serialize
from speckit.resolver import baseline, materialize
from speckit.tokenizer import TokenKind, tokenize
from support import naive_dump, random_document, random_tagged_requirement

DEPLOYMENTS = (None, DeploymentType.SA, DeploymentType.NSA)


def rel(text: str) -> ReleaseId:
    return ReleaseId.parse(text)


def _ok(n: int, message: str) -> None:
    print(f"PASS  criterion {n}: {message}")


def test_criterion_1_baselining_equivalence():
    rng = random.Random(101)
    checked = 0
    for i in range(500):
        req, entries = random_tagged_requirement(rng, f"REQ_{i:04d}", rng.randrange(1, 4))
        registry = DevelopmentRegistry(entries)
        for dev in entries:
            based = baseline(req, dev, registry, universe=list(RELEASES))
            for r in RELEASES:
                for dep in DEPLOYMENTS:
                    original = materialize(req, r, dep, registry)
                    rebased = materialize(based, r, dep, registry)
                    assert (original is None) == (rebased is None)
                    if original is not None:
                        assert original.text == rebased.text
                    checked += 1
    _ok(1, f"baselining equivalence holds on 500 requirements ({checked} comparisons)")


def test_criterion_2_parser_round_trip():
    rng = random.Random(202)
    for i in range(500):
        doc = random_document(rng, f"doc{i:03d}", req_start=i * 20)
        text = serialize(doc)
        result = parse_document(text, name=doc.name)
        assert result.ok, result.errors[:3]
        assert result.document == doc
        assert serialize(result.document) == text
    _ok(2, "serialize/parse identity on 500 generated documents")


def test_criterion_3_resolution_purity(bundle):
    scanned = 0
    for doc in bundle.documents:
        for req in doc.iter_requirements():
            for r in RELEASES:
                for dep in DEPLOYMENTS:
                    resolved = materialize(req, r, dep, bundle.registry)
                    if resolved is not None:
                        assert not TAG_RE.search(resolved.text), (req.id, r, dep)
                        scanned += 1
    for dataset in extract_all(bundle.documents, bundle.registry):
        for _, text in dataset.records:
            assert not TAG_RE.search(text)
            scanned += 1
    _ok(3, f"no tag grammar match in {scanned} resolved texts and dataset records")


def test_criterion_4_lint_ground_truth(bundle):
    truth = bundle.ground_truth
    findings = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, LintConfig())
    by_rule = {
        rule: [f for f in findings if f.rule is rule] for rule in LintRule
    }

    # L1: recall 10/10, zero false pairs
    found_pairs = {
        frozenset((f.location.requirement, f.related.requirement))
        for f in by_rule[LintRule.L1_DUPLICATION]
    }
    truth_pairs = {frozenset(pair) for pair in truth["duplicates"]}
    assert len(truth_pairs) == 10
    assert found_pairs == truth_pairs

    # L2, L3, L5: exactly the injected counts
    assert len(by_rule[LintRule.L2_LENGTH]) == 8
    assert {f.location.requirement for f in by_rule[LintRule.L2_LENGTH]} == set(
        truth["overlength"]
    )
    assert len(by_rule[LintRule.L3_STANDARDIZATION]) == 12
    assert {f.location.requirement for f in by_rule[LintRule.L3_STANDARDIZATION]} == {
        usage["requirement"] for usage in truth["alias_usages"]
    }
    assert len(by_rule[LintRule.L5_DISPERSION]) == 3
    assert len(by_rule[LintRule.L4_GRAMMAR]) == 0

    # severity labels per the fixed rule table
    expected_severity = {
        LintRule.L1_DUPLICATION: Severity.HIGH,
        LintRule.L2_LENGTH: Severity.HIGH,
        LintRule.L3_STANDARDIZATION: Severity.HIGH,
        LintRule.L4_GRAMMAR: Severity.MEDIUM,
        LintRule.L5_DISPERSION: Severity.LOW,
    }
    assert SEVERITY_BY_RULE == expected_severity
    for finding in findings:
        assert finding.severity is expected_severity[finding.rule]
    counts = Counter(f.rule.value for f in findings)
    _ok(4, f"lint matches ground truth exactly: {dict(counts)}")


def _valid_at(truth_req: dict, r: ReleaseId) -> bool:
    for version in truth_req["versions"]:
        first = rel(version["first"])
        last = None if version["last"] is None else rel(version["last"])
        if first <= r and (last is None or r <= last):
            return True
    return False


def _expected_changed(truth: dict, req_ids: set[str], a: ReleaseId, b: ReleaseId) -> dict[str, set[str]]:
    """Requirement ids (with dev causes) changing between two universe releases."""
    lo, hi = min(a, b), max(a, b)
    changed: dict[str, set[str]] = {}
    for x, y in zip(RELEASES, RELEASES[1:]):
        if lo <= x and y <= hi:
            for req_id, causes in truth["changes"][f"{x}->{y}"].items():
                if req_id in req_ids:
                    changed.setdefault(req_id, set()).update(causes)
    return changed


def test_criterion_5_query_correctness(bundle, corpus_index):
    truth = bundle.ground_truth
    index = corpus_index

    # form 4: procedure -> requirements, exact for every canonical
    for canonical, ids in truth["procedures"].items():
        assert query_requirements(index, canonical) == set(ids), canonical
    assert query_requirements(index, UNMAPPED) == set()

    # form 1: behavior at every release
    for canonical, ids in truth["procedures"].items():
        for r in RELEASES:
            got = {req_id for req_id, _ in query_behavior(index, canonical, r)}
            expected = {
                req_id for req_id in ids if _valid_at(truth["requirements"][req_id], r)
            }
            assert got == expected, (canonical, str(r))

    # form 2: release diffs against the generator's change record
    for canonical, ids in truth["procedures"].items():
        for a, b in zip(RELEASES, RELEASES[1:]):
            diffs = {d.id: d for d in query_release_diff(index, canonical, a, b)}
            expected = _expected_changed(truth, set(ids), a, b)
            assert set(diffs) == set(expected), (canonical, str(a), str(b))
            for req_id, causes in expected.items():
                assert diffs[req_id].causes == causes, (canonical, req_id)
        # and across the whole span
        a, b = RELEASES[0], RELEASES[-1]
        diffs = {d.id: d for d in query_release_diff(index, canonical, a, b)}
        assert set(diffs) == set(_expected_changed(truth, set(ids), a, b))

    # form 3: changes per development, exact over every (procedure, dev) pair
    for dev, info in truth["dev_changes"].items():
        for canonical in truth["procedures"]:
            got = {d.id for d in query_dev_changes(index, canonical, dev)}
            expected = {info["requirement"]} if canonical == info["procedure"] else set()
            assert got == expected, (canonical, dev)

    # form 5: deployment-filtered behavior at the latest release
    latest = RELEASES[-1]
    for canonical, ids in truth["procedures"].items():
        for dep in (DeploymentType.SA, DeploymentType.NSA):
            got = dict(query_deployment(index, canonical, dep))
            expected_ids = {
                req_id for req_id in ids if _valid_at(truth["requirements"][req_id], latest)
            }
            assert set(got) == expected_ids, (canonical, dep)
            for req_id in expected_ids:
                info = truth["requirements"][req_id]
                if info["span_sentence"] is not None:
                    present = info["deployment"] == dep.value
                    assert (info["span_sentence"] in got[req_id]) is present

    # alias queries equal canonical queries on 100% of lexicon entries
    checked_aliases = 0
    for canonical, phrases in bundle.lexicon.entries.items():
        for alias in phrases:
            assert query_requirements(index, alias) == query_requirements(index, canonical)
            assert query_behavior(index, alias, latest) == query_behavior(
                index, canonical, latest
            )
            checked_aliases += 1
    _ok(5, f"five query forms match ground truth; {checked_aliases} alias forms equal canonical")


def test_criterion_6_diff_identity_and_symmetry(bundle, corpus_index):
    index = corpus_index
    procs = list(bundle.ground_truth["procedures"])

    for canonical in procs:
        for r in RELEASES:
            assert query_release_diff(index, canonical, r, r) == []

    rng = random.Random(606)
    sampled = 0
    while sampled < 100:
        canonical = procs[rng.randrange(len(procs))]
        a, b = rng.sample(range(len(RELEASES)), 2)
        ra, rb = RELEASES[a], RELEASES[b]
        forward = {d.id: d for d in query_release_diff(index, canonical, ra, rb)}
        backward = {d.id: d for d in query_release_diff(index, canonical, rb, ra)}
        assert set(forward) == set(backward)
        for req_id, diff in forward.items():
            assert diff.added() == backward[req_id].removed()
            assert diff.removed() == backward[req_id].added()
        sampled += 1
    _ok(6, "identity diffs empty for all procedures; symmetry holds on 100 samples")


def test_criterion_7_dataset_properties(bundle, tmp_path):
    naive_size = len(naive_dump(bundle.documents).encode("utf-8"))
    datasets = extract_all(bundle.documents, bundle.registry)
    for dataset in datasets:
        size = len(dataset_to_jsonl(dataset).encode("utf-8"))
        assert size <= naive_size, str(dataset.release)

    first_dir, second_dir = tmp_path / "first", tmp_path / "second"
    write_datasets(datasets, first_dir)
    write_datasets(extract_all(bundle.documents, bundle.registry), second_dir)
    names = sorted(p.name for p in first_dir.iterdir())
    assert names == sorted(p.name for p in second_dir.iterdir())
    for name in names:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
    _ok(7, f"{len(datasets)} per-release datasets <= naive dump ({naive_size} bytes); extraction idempotent")


def test_criterion_8_tokenizer_contract():
    exemplars = {
        "activateMeasurementSA": TokenKind.IDENTIFIER,
        "CB00XXXX": TokenKind.DEVELOPMENT_ID,
        "01R1": TokenKind.RELEASE_ID,
        "[Before CB00XXXX]": TokenKind.TAG,
    }
    for text, kind in exemplars.items():
        tokens = tokenize(text)
        assert len(tokens) == 1, text
        assert tokens[0].text == text and tokens[0].kind is kind

    rng = random.Random(808)
    alphabet = "abcXYZ 0123456789_.,;[]()R CB activateMeasurementSA 01R1\n\t"
    fuzz = "".join(rng.choice(alphabet) for _ in range(10_000))
    in_digits = Counter(c for c in fuzz if c.isdigit())
    out_digits = Counter(c for t in tokenize(fuzz) for c in t.text if c.isdigit())
    assert in_digits == out_digits
    _ok(8, "four exemplar tokens classified; digit multiset preserved on 10k-char fuzz")
