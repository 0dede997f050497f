import random

import pytest

from speckit.generator import (
    PROCEDURES,
    RELEASES,
    _FILLER_MODS,
    _FILLER_NOUNS,
    _FILLER_VERBS,
    generate_corpus,
    write_corpus,
)
from speckit.lexicon import find_mentions
from speckit.lint import jaccard, shingle_set
from speckit.model import DevelopmentRegistry
from speckit.parser import parse_document, validate_corpus
from speckit.tokenizer import normalize, tokenize
from support import random_document, random_tagged_requirement


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a = generate_corpus(seed=7, size=80)
        b = generate_corpus(seed=7, size=80)
        assert a.sources == b.sources
        assert a.registry_text == b.registry_text
        assert a.lexicon_text == b.lexicon_text
        assert a.ground_truth == b.ground_truth

    def test_different_seed_differs(self):
        a = generate_corpus(seed=7, size=80)
        b = generate_corpus(seed=8, size=80)
        assert a.sources != b.sources

    def test_write_corpus_layout(self, tmp_path):
        bundle = generate_corpus(seed=7, size=80)
        written = write_corpus(bundle, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "SPEC_A.spec",
            "SPEC_B.spec",
            "ground_truth.json",
            "lexicon.json",
            "registry.txt",
        ]


class TestCorpusValidity:
    def test_sources_parse_clean_and_match_objects(self, bundle):
        by_name = {doc.name: doc for doc in bundle.documents}
        for filename, text in bundle.sources.items():
            name = filename.removesuffix(".spec")
            result = parse_document(text, name=name)
            assert not result.errors
            assert result.document == by_name[name]

    def test_corpus_validates(self, bundle):
        assert validate_corpus(bundle.documents, bundle.registry) == []

    def test_requested_size(self, bundle):
        total = sum(1 for d in bundle.documents for _ in d.iter_requirements())
        assert total == bundle.ground_truth["size"] == 200

    def test_universe_is_all_four_releases(self, bundle):
        assert bundle.ground_truth["universe"] == [str(r) for r in RELEASES]
        assert set(bundle.registry.entries.values()) == set(RELEASES[1:])

    def test_too_small_size_rejected(self):
        for kwargs in [
            {"size": 30},
            {"dup_pairs": -1},
            {"overlength": -1},
            {"alias_usages": -1},
            {"dispersed_procs": -1},
        ]:
            with pytest.raises(ValueError):
                generate_corpus(seed=1, **{"size": 200, **kwargs})


class TestGroundTruth:
    def test_injection_counts(self, bundle):
        truth = bundle.ground_truth
        assert len(truth["duplicates"]) == 10
        assert len(truth["overlength"]) == 8
        assert len(truth["alias_usages"]) == 12
        assert len(truth["dispersed"]) == 3

    def test_duplicates_hold_at_08_by_construction(self, bundle):
        reqs = {
            r.id: r for d in bundle.documents for r in d.iter_requirements()
        }
        for a_id, b_id in bundle.ground_truth["duplicates"]:
            text_a = " ".join(s.text for s in reqs[a_id].versions[0].content)
            text_b = " ".join(s.text for s in reqs[b_id].versions[0].content)
            sim = jaccard(
                shingle_set(normalize(tokenize(text_a)), 5),
                shingle_set(normalize(tokenize(text_b)), 5),
            )
            assert sim >= 0.8

    def test_every_requirement_mentions_its_procedure_once(self, bundle):
        truth = bundle.ground_truth
        reqs = {r.id: r for d in bundle.documents for r in d.iter_requirements()}
        for req_id, info in truth["requirements"].items():
            for version in reqs[req_id].versions:
                text = " ".join(
                    s.text for s in version.content if hasattr(s, "text")
                )
                mentions = find_mentions(tokenize(text), bundle.lexicon)
                assert {m.canonical for m in mentions} == {info["procedure"]}

    def test_dispersed_sections_exceed_limit(self, bundle):
        truth = bundle.ground_truth
        for proc, ids in truth["dispersed"].items():
            spots = {
                (
                    truth["requirements"][i]["document"],
                    tuple(truth["requirements"][i]["section_path"]),
                )
                for i in ids
            }
            assert len(spots) == 4

    def test_dev_changes_point_at_existing_requirements(self, bundle):
        truth = bundle.ground_truth
        for dev, info in truth["dev_changes"].items():
            assert dev in bundle.registry
            assert str(bundle.registry.release_of(dev)) == info["release"]
            assert info["requirement"] in truth["requirements"]


class TestVocabularyDisjointness:
    def test_filler_words_never_appear_in_aliases(self):
        alias_words = set()
        for canonical, aliases in PROCEDURES:
            for phrase in (canonical, *aliases):
                alias_words.update(w.lower() for w in phrase.split())
        filler = {w.lower() for w in _FILLER_NOUNS + _FILLER_VERBS + _FILLER_MODS}
        overlap = filler & alias_words
        assert not overlap, f"filler words leak into procedure names: {overlap}"

    def test_no_canonical_is_prefix_of_another(self):
        keys = [tuple(canonical.lower().split()) for canonical, _ in PROCEDURES]
        for i, a in enumerate(keys):
            for j, b in enumerate(keys):
                if i != j:
                    assert a != b[: len(a)], (a, b)


class TestObjectGenerators:
    def test_random_tagged_requirement_devs_registered(self):
        rng = random.Random(3)
        req, entries = random_tagged_requirement(rng, "REQ_0001", 3)
        assert len(entries) == 3
        registry = DevelopmentRegistry(entries)
        for dev in entries:
            assert dev in registry

    def test_random_document_reproducible(self):
        a = random_document(random.Random(5), "d")
        b = random_document(random.Random(5), "d")
        assert a == b
