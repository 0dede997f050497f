import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speckit.resolver
from speckit.dataset import (
    DatasetStats,
    ReleaseDataset,
    dataset_to_jsonl,
    extract_all,
    extract_release_dataset,
    write_datasets,
)
from speckit.errors import UnknownReleaseError
from speckit.model import (
    TAG_RE,
    DevelopmentRegistry,
    ReleaseId,
    Section,
    SpecDocument,
    release_universe,
)
from speckit.parser import parse_document
from speckit.resolver import baseline
from support import (
    RELEASE_POOL,
    naive_dump,
    reference_release_dataset,
    registries,
    versioned_requirements,
)


def rel(text):
    return ReleaseId.parse(text)


CORPUS = """# Section

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=open ---
The long requirement text goes on and on with enough tokens.
=== END ===

=== REQ REQ_0002 ===
--- VERSION first=01R1 last=open ---
Heading
=== END ===

=== REQ REQ_0003 ===
--- VERSION first=01R1 last=open ---
The long requirement text goes on and on with enough tokens.
=== END ===

=== REQ REQ_0004 ===
--- VERSION first=01R2 last=open ---
Only valid from the second release onward here.
=== END ===
"""


@pytest.fixture(scope="module")
def docs():
    result = parse_document(CORPUS, name="doc")
    assert result.ok
    return [result.document]


EMPTY_REG = DevelopmentRegistry({})


class TestExtract:
    def test_single_release_record(self, docs):
        dataset = extract_release_dataset(docs, rel("01R1"), EMPTY_REG)
        ids = [i for i, _ in dataset.records]
        assert "REQ_0001" in ids and "REQ_0004" not in ids

    def test_header_dropped_and_counted(self, docs):
        dataset = extract_release_dataset(docs, rel("01R1"), EMPTY_REG)
        ids = [i for i, _ in dataset.records]
        assert "REQ_0002" not in ids
        assert dataset.stats.dropped_headers == 1

    def test_exact_duplicate_dropped_keeping_first(self, docs):
        dataset = extract_release_dataset(docs, rel("01R1"), EMPTY_REG)
        ids = [i for i, _ in dataset.records]
        assert ids.count("REQ_0001") == 1
        assert "REQ_0003" not in ids
        assert dataset.stats.dropped_duplicates == 1

    def test_unknown_release(self, docs):
        with pytest.raises(UnknownReleaseError):
            extract_release_dataset(docs, rel("09R9"), EMPTY_REG)

    def test_one_dataset_per_release(self, docs):
        datasets = extract_all(docs, EMPTY_REG)
        assert [str(d.release) for d in datasets] == ["01R1", "01R2"]

    def test_changed_requirement_differs_between_releases(self, bundle):
        datasets = {str(d.release): dict(d.records) for d in extract_all(bundle.documents, bundle.registry)}
        truth = bundle.ground_truth
        some_dev, info = next(iter(truth["dev_changes"].items()))
        req_id = info["requirement"]
        introduced = info["release"]
        earlier = [r for r in truth["universe"] if r < introduced][-1]
        assert datasets[earlier][req_id] != datasets[introduced][req_id]

    def test_empty_corpus(self):
        registry = DevelopmentRegistry({"CB00XXXX": rel("01R1")})
        datasets = extract_all([], registry)
        assert len(datasets) == 1
        assert datasets[0].records == ()


class TestChangePointExtraction:
    RUNS_CORPUS = """# Section

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=open ---
The timer starts [Before CB00XXXX] once per cycle. [CB00XXXX] twice per cycle. [End CB00XXXX]
=== END ===

=== REQ REQ_0002 ===
--- VERSION first=01R1 last=01R2 ---
The counter resets at every frame boundary.
--- VERSION first=01R4 last=open ---
The counter resets at every slot boundary.
=== END ===

=== REQ REQ_0003 ===
--- VERSION first=01R1 last=open ---
The window holds one report per period.
=== END ===
"""

    def test_one_resolve_per_run(self, monkeypatch):
        result = parse_document(self.RUNS_CORPUS, name="doc")
        assert result.ok
        docs = [result.document]
        registry = DevelopmentRegistry({"CB00XXXX": rel("01R3")})
        resolve = speckit.resolver.resolve_details
        calls = []

        def counting(req, r, dep, registry):
            calls.append((req.id, str(r)))
            return resolve(req, r, dep, registry)

        monkeypatch.setattr(speckit.resolver, "resolve_details", counting)
        datasets = extract_all(docs, registry)
        # Runs: REQ_0001 01R1-01R2 and 01R3-01R4 (CB00XXXX), REQ_0002 01R1-01R2
        # and 01R4, REQ_0003 01R1-01R4; 11 (requirement, release) pairs.
        assert sorted(calls) == [
            ("REQ_0001", "01R1"), ("REQ_0001", "01R3"),
            ("REQ_0002", "01R1"), ("REQ_0002", "01R4"),
            ("REQ_0003", "01R1"),
        ]
        # One release: one resolve per requirement valid at it (REQ_0002 is not).
        calls.clear()
        single = extract_release_dataset(docs, rel("01R3"), registry)
        assert calls == [("REQ_0001", "01R3"), ("REQ_0003", "01R3")]
        monkeypatch.undo()
        universe = release_universe(docs, registry)
        assert datasets == [reference_release_dataset(docs, r, registry) for r in universe]
        assert single == reference_release_dataset(docs, rel("01R3"), registry)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(versioned_requirements(), min_size=1, max_size=4),
        registries(),
        st.integers(0, 6),
    )
    def test_extract_all_equals_one_release_at_a_time(self, reqs, registry, min_tokens):
        reqs = [replace(req, id=f"REQ_{i:04d}") for i, req in enumerate(reqs)]
        docs = [
            SpecDocument("a", (Section("S", tuple(reqs[:2])),)),
            SpecDocument("b", (Section("S", tuple(reqs[2:])),)),
        ]
        want = [
            reference_release_dataset(docs, r, registry, min_tokens)
            for r in release_universe(docs, registry)
        ]
        assert extract_all(docs, registry, min_tokens) == want
        assert [
            extract_release_dataset(docs, d.release, registry, min_tokens) for d in want
        ] == want


# Characters json escapes or passes through: quotes, backslashes, control
# characters, U+2028/U+2029, non-BMP and non-ASCII letters.
JSON_EDGE_TEXT = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\b", "\t", "\n", "\r",
         "\u2028", "\u2029", "\U0001f600", "\U00010348", "\u00e9", "\ufeff", "a", " "]
    )
)


class TestJsonlTemplate:
    @given(
        st.lists(st.tuples(st.one_of(st.text(), JSON_EDGE_TEXT), st.one_of(st.text(), JSON_EDGE_TEXT))),
        st.sampled_from(RELEASE_POOL),
    )
    def test_equals_json_dumps(self, records, release):
        dataset = ReleaseDataset(release, tuple(records), DatasetStats(len(records), 0, 0))
        lines = [
            json.dumps({"id": i, "release": str(release), "text": t}, sort_keys=True, ensure_ascii=False)
            for i, t in records
        ]
        assert dataset_to_jsonl(dataset) == "\n".join(lines) + ("\n" if lines else "")


class TestDatasetProperties:
    def test_no_tag_in_any_record(self, bundle):
        for dataset in extract_all(bundle.documents, bundle.registry):
            for _, text in dataset.records:
                assert not TAG_RE.search(text)

    def test_idempotent_output(self, bundle, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        write_datasets(extract_all(bundle.documents, bundle.registry), out_a)
        write_datasets(extract_all(bundle.documents, bundle.registry), out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_per_release_size_below_naive_dump(self, bundle):
        naive_size = len(naive_dump(bundle.documents).encode("utf-8"))
        for dataset in extract_all(bundle.documents, bundle.registry):
            size = len(dataset_to_jsonl(dataset).encode("utf-8"))
            assert size <= naive_size

    def test_baselined_corpus_extracts_equal(self, bundle):
        # baselining one development must not change any extracted record
        dev, info = next(iter(bundle.ground_truth["dev_changes"].items()))
        req_id = info["requirement"]
        introduced = rel(info["release"])
        universe = [rel(r) for r in bundle.ground_truth["universe"]]

        new_docs = []
        for doc in bundle.documents:
            reqs = {r.id: r for r in doc.iter_requirements()}
            if req_id in reqs:
                based = baseline(reqs[req_id], dev, bundle.registry, universe=universe)

                def rebuild(section):
                    return type(section)(
                        title=section.title,
                        requirements=tuple(
                            based if r.id == req_id else r for r in section.requirements
                        ),
                        subsections=tuple(rebuild(s) for s in section.subsections),
                    )

                doc = type(doc)(
                    name=doc.name, sections=tuple(rebuild(s) for s in doc.sections)
                )
            new_docs.append(doc)

        before = extract_release_dataset(bundle.documents, introduced, bundle.registry)
        after = extract_release_dataset(new_docs, introduced, bundle.registry)
        assert dict(before.records) == dict(after.records)


class TestWriteLayout:
    def test_files_and_stats(self, docs, tmp_path):
        written = write_datasets(extract_all(docs, EMPTY_REG), tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["01R1.jsonl", "01R2.jsonl", "stats.json"]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["01R1"]["dropped_headers"] == 1
        assert stats["01R1"]["dropped_duplicates"] == 1
        for line in (tmp_path / "01R1.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"id", "release", "text"}
