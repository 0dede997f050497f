import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import speckit.index
import speckit.resolver
from speckit.errors import UnknownDevelopmentError, UnknownReleaseError
from speckit.index import (
    FORMAT_VERSION,
    UNMAPPED,
    SpecIndex,
    _changed_diffs,
    build_index,
    index_from_json,
    index_to_json,
    query_behavior,
    query_deployment,
    query_dev_changes,
    query_release_diff,
    query_requirements,
)
from speckit.lexicon import build_lexicon
from speckit.model import (
    DeploymentSpan,
    DeploymentType,
    DevelopmentRegistry,
    ReleaseId,
    iter_segments,
    release_universe,
    version_at,
)
from speckit.parser import parse_document
from speckit.resolver import DiffKind, materialize, resolve_details
from support import (
    INDEX_LEXICON,
    MALFORMED_INDEX_EDITS,
    RELEASES,
    UNKNOWN_RELEASE_EDITS,
    clear_intern_tables,
    diff_inputs,
    index_cases,
    index_corpora,
    json_with,
    json_with_key,
    odd_string_index,
    odd_string_indexes,
    one_diff_index,
    reference_build_index,
    reference_diff_texts,
    reference_index_to_json,
    reference_query_release_diff,
    unregistered_record_dev_index,
    written_texts,
)

CORPUS = """# Measurements

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=open ---
The A2 measurement shall run. [Before CB00XXXX] The old threshold applies. [CB00XXXX] The new threshold applies. [End CB00XXXX]
=== END ===

=== REQ REQ_0002 ===
--- VERSION first=01R1 last=open ---
The A2 measurement shall stop. [SA] Standalone extra step. [End SA]
=== END ===

# Other

=== REQ REQ_0003 ===
--- VERSION first=01R1 last=open ---
Nothing known is mentioned here.
=== END ===
"""


def rel(text):
    return ReleaseId.parse(text)


@pytest.fixture(scope="module")
def small_world():
    result = parse_document(CORPUS, name="doc")
    assert result.ok, result.errors
    registry = DevelopmentRegistry({"CB00XXXX": rel("01R2")})
    lexicon = build_lexicon(
        {"A2 measurement": ["A2 measurement for Handover"]}
    )
    docs = [result.document]
    return docs, registry, lexicon, build_index(docs, registry, lexicon)


class TestBuildIndex:
    def test_universe_from_registry_and_versions(self, small_world):
        _, _, _, index = small_world
        assert [str(r) for r in index.release_universe] == ["01R1", "01R2"]

    def test_proc_release_has_every_release(self, small_world):
        _, _, _, index = small_world
        by_release = index.proc_release["A2 measurement"]
        assert set(by_release) == {"01R1", "01R2"}
        assert {i for i, _ in by_release["01R1"]} == {"REQ_0001", "REQ_0002"}

    def test_empty_corpus(self):
        registry = DevelopmentRegistry({"CB00XXXX": rel("01R2")})
        index = build_index([], registry, build_lexicon({}))
        assert [str(r) for r in index.release_universe] == ["01R2"]
        assert index.proc_release == {}
        assert index.proc_req == {}

    def test_unmapped_requirements_kept(self, small_world):
        _, _, _, index = small_world
        assert query_requirements(index, UNMAPPED) == {"REQ_0003"}

    def test_proc_req_is_union_of_proc_release(self, small_world, corpus_index):
        built = (small_world[3], corpus_index)
        for index in (*built, *(index_from_json(index_to_json(i)) for i in built)):
            for proc, by_release in index.proc_release.items():
                union = {i for entries in by_release.values() for i, _ in entries}
                assert index.proc_req[proc] == union

    def test_dev_diff_recorded(self, small_world):
        _, _, _, index = small_world
        diffs = index.proc_dev["A2 measurement"]["CB00XXXX"]
        assert len(diffs) == 1
        assert diffs[0].causes == {"CB00XXXX"}
        assert any("old threshold" in s for s in diffs[0].removed())
        assert any("new threshold" in s for s in diffs[0].added())

    def test_dev_diff_filed_under_procedures_of_both_releases(self):
        # The development swaps the procedure the requirement mentions, so
        # the diff belongs to the old procedure and to the new one.
        source = """# Measurements

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=open ---
[Before CB00XXXX] The A2 measurement shall stop. [CB00XXXX] The A3 measurement shall start. [End CB00XXXX]
=== END ===
"""
        result = parse_document(source, name="doc")
        assert result.ok, result.errors
        registry = DevelopmentRegistry({"CB00XXXX": rel("01R2")})
        lexicon = build_lexicon({"A2 measurement": [], "A3 measurement": []})
        index = build_index([result.document], registry, lexicon)
        assert query_behavior(index, "A3 measurement", rel("01R1")) == []
        assert query_behavior(index, "A2 measurement", rel("01R2")) == []
        for proc in ("A2 measurement", "A3 measurement"):
            diffs = query_dev_changes(index, proc, "CB00XXXX")
            assert [d.to_dict() for d in diffs] == [
                {
                    "id": "REQ_0001",
                    "release_a": "01R1",
                    "release_b": "01R2",
                    "segments": [
                        ["removed", "The A2 measurement shall stop."],
                        ["added", "The A3 measurement shall start."],
                    ],
                    "causes": ["CB00XXXX"],
                }
            ]
            assert query_requirements(index, proc) == {"REQ_0001"}


class TestRepeatedTexts:
    def test_each_distinct_text_analysed_once(self, bundle, corpus_index, monkeypatch):
        calls = []
        original = speckit.index.find_mentions

        def counting(tokens, lexicon):
            calls.append(1)
            return original(tokens, lexicon)

        monkeypatch.setattr(speckit.index, "find_mentions", counting)
        index = build_index(bundle.documents, bundle.registry, bundle.lexicon)
        texts = {
            text for by_release in index.req_release.values() for text, _ in by_release.values()
        }
        entries = sum(len(by_release) for by_release in index.req_release.values())
        assert len(calls) == len(texts) < entries
        assert index_to_json(index) == index_to_json(corpus_index)

    @settings(max_examples=300)
    @given(diff_inputs())
    def test_changed_diff_none_exactly_when_unchanged(self, args):
        req_id, a, b, text_a, text_b, devs_a, devs_b, dev_releases = args
        records = {}
        for r, text, devs in ((a, text_a, devs_a), (b, text_b, devs_b)):
            if text is not None:
                records[str(r)] = (text, devs)
        index = SpecIndex(
            release_universe=list(RELEASES),
            registry=dev_releases,
            aliases={},
            req_release={req_id: records},
            proc_release={},
            proc_dev={},
        )
        (stored_a, held_a), (stored_b, held_b) = (
            records.get(str(r), (None, frozenset())) for r in (a, b)
        )
        want = reference_diff_texts(
            req_id, a, b, stored_a, stored_b, held_a, held_b, dev_releases
        )
        assert list(_changed_diffs(index, [req_id], a, b)) == ([want] if want.has_changes else [])


class TestBuildShortcuts:
    """The build resolves SA and NSA only for a requirement holding a span,
    and runs the LCS only for a changed adjacent pair that has a cause."""

    @settings(max_examples=150, deadline=None)
    @given(index_corpora())
    @example(index_cases())
    def test_equals_reference_build(self, corpus):
        docs, registry = corpus
        lexicon = build_lexicon(INDEX_LEXICON)
        assert index_to_json(build_index(docs, registry, lexicon)) == index_to_json(
            reference_build_index(docs, registry, lexicon)
        )

    def test_cases_reach_each_shortcut(self):
        docs, registry = index_cases()
        index = reference_build_index(docs, registry, build_lexicon(INDEX_LEXICON))
        sa = query_deployment(index, "timer", DeploymentType.SA, rel("01R2"))
        assert ("REQ_0001", "The value is set. Standalone timer step.") in sa
        assert "01R3" not in index.req_release["REQ_0001"]
        swap = index.proc_dev["timer"]["CB000001"]
        assert [d.id for d in swap] == [d.id for d in index.proc_dev["value"]["CB000001"]]
        assert [d.id for d in swap] == ["REQ_0001"]  # REQ_0003's respacing is no change
        switch = query_release_diff(index, "timer", rel("01R3"), rel("02R1"))
        assert [(d.id, d.causes) for d in switch] == [("REQ_0002", frozenset())]

    def test_resolve_and_lcs_calls(self, bundle, monkeypatch):
        docs, registry = bundle.documents, bundle.registry
        universe = release_universe(docs, registry)
        valid = with_span = changed = caused = 0
        for req in (req for doc in docs for req in doc.iter_requirements()):
            released = [r for r in universe if version_at(req, r) is not None]
            valid += len(released)
            if any(
                isinstance(seg, DeploymentSpan)
                for version in req.versions
                for seg in iter_segments(version.content)
            ):
                with_span += len(released)
            for a, b in zip(universe, universe[1:]):
                text_a, _, devs_a = resolve_details(req, a, None, registry) or (None, None, set())
                text_b, _, devs_b = resolve_details(req, b, None, registry) or (None, None, set())
                if text_a != text_b:
                    changed += 1
                    caused += any(
                        (registry.release_of(dev) <= a) != (registry.release_of(dev) <= b)
                        for dev in devs_a | devs_b
                    )
        # the corpus has requirements without spans and causeless changes
        assert with_span < valid and caused < changed

        calls = {"resolve": 0, "lcs": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            speckit.index, "resolve_details", counted("resolve", speckit.index.resolve_details)
        )
        monkeypatch.setattr(speckit.resolver, "lcs_diff", counted("lcs", speckit.resolver.lcs_diff))
        build_index(docs, registry, bundle.lexicon)
        assert calls == {"resolve": valid + 2 * with_span, "lcs": caused}


class TestQueries:
    def test_behavior_at_release(self, small_world):
        _, _, _, index = small_world
        texts = dict(query_behavior(index, "A2 measurement", rel("01R1")))
        assert "old threshold" in texts["REQ_0001"]
        texts2 = dict(query_behavior(index, "A2 measurement", rel("01R2")))
        assert "new threshold" in texts2["REQ_0001"]

    def test_behavior_alias_equals_canonical(self, small_world):
        _, _, _, index = small_world
        assert query_behavior(index, "A2 measurement for Handover", rel("01R1")) == (
            query_behavior(index, "A2 measurement", rel("01R1"))
        )

    def test_behavior_unknown_procedure_empty(self, small_world):
        _, _, _, index = small_world
        assert query_behavior(index, "made up name", rel("01R1")) == []

    def test_behavior_unknown_release_raises(self, small_world):
        _, _, _, index = small_world
        with pytest.raises(UnknownReleaseError):
            query_behavior(index, "A2 measurement", rel("09R9"))

    def test_diff_identity_empty(self, small_world):
        _, _, _, index = small_world
        assert query_release_diff(index, "A2 measurement", rel("01R1"), rel("01R1")) == []

    def test_diff_between_releases(self, small_world):
        _, _, _, index = small_world
        diffs = query_release_diff(index, "A2 measurement", rel("01R1"), rel("01R2"))
        assert [d.id for d in diffs] == ["REQ_0001"]
        assert diffs[0].causes == {"CB00XXXX"}

    def test_dev_changes(self, small_world):
        _, _, _, index = small_world
        diffs = query_dev_changes(index, "A2 measurement", "CB00XXXX")
        assert [d.id for d in diffs] == ["REQ_0001"]

    def test_dev_changes_unregistered(self, small_world):
        _, _, _, index = small_world
        with pytest.raises(UnknownDevelopmentError):
            query_dev_changes(index, "A2 measurement", "CB00ZZZZ")

    def test_dev_changes_untouched_procedure_empty(self, small_world):
        _, _, _, index = small_world
        assert query_dev_changes(index, UNMAPPED, "CB00XXXX") == []

    def test_requirements_mapping(self, small_world):
        _, _, _, index = small_world
        assert query_requirements(index, "A2 measurement") == {"REQ_0001", "REQ_0002"}
        assert query_requirements(index, "unknown thing") == set()

    def test_deployment_span_filtering(self, small_world):
        _, _, _, index = small_world
        sa = dict(query_deployment(index, "A2 measurement", DeploymentType.SA))
        nsa = dict(query_deployment(index, "A2 measurement", DeploymentType.NSA))
        assert "Standalone extra step." in sa["REQ_0002"]
        assert "Standalone extra step." not in nsa["REQ_0002"]
        # untagged requirement text identical under both deployments
        assert sa["REQ_0001"] == nsa["REQ_0001"]

    def test_deployment_narrowed_by_release(self, small_world):
        _, _, _, index = small_world
        early = dict(query_deployment(index, "A2 measurement", DeploymentType.SA, rel("01R1")))
        assert "old threshold" in early["REQ_0001"]
        with pytest.raises(UnknownReleaseError):
            query_deployment(index, "A2 measurement", DeploymentType.SA, rel("09R9"))


class TestCanonicalOf:
    @pytest.fixture(scope="class")
    def askers(self, small_world):
        docs, registry, _, _ = small_world
        lexicon = build_lexicon(
            {"A2 measurement": ["A2 measurement for Handover"], "Zeitüberschreitung": ["timer expiry"]}
        )
        index = build_index(docs, registry, lexicon)
        loaded = index_from_json(index_to_json(index))
        return lexicon.canonical_of, index.canonical_of, loaded.canonical_of

    @pytest.mark.parametrize(
        "phrase, want",
        [
            ("A2 measurement", "A2 measurement"),
            ("A2 Measurement For handover", "A2 measurement"),
            ("Timer Expiry", "Zeitüberschreitung"),
            ("Zeitu\u0308berschreitung", "Zeitüberschreitung"),
            ("B3 measurement", None),
            (UNMAPPED, None),
        ],
    )
    def test_index_agrees_with_lexicon_cold_and_warm(self, askers, phrase, want):
        lexicon_ask, *index_asks = askers
        for ask in askers:
            clear_intern_tables()
            assert ask(phrase) == ask(phrase)
        assert lexicon_ask(phrase) == want
        # The index keeps requirements that mention no procedure under UNMAPPED.
        for ask in index_asks:
            assert ask(phrase) == (UNMAPPED if phrase == UNMAPPED else want)


class TestConsistency:
    def test_index_adds_no_information(self, small_world):
        docs, registry, lexicon, index = small_world
        reqs = {r.id: r for doc in docs for r in doc.iter_requirements()}
        for proc, by_release in index.proc_release.items():
            for r_key, entries in by_release.items():
                for req_id, text in entries:
                    resolved = materialize(reqs[req_id], rel(r_key), None, registry)
                    assert resolved.text == text


# (section, text reference) pairs that point at no entry of a one-text table
BAD_TEXT_REFS = [
    ("req_release", 1),
    ("req_release", -1),
    ("req_release", 0.0),
    ("req_release", "0"),
    ("req_release", True),
    ("req_release", None),
    ("req_release", [0]),
    ("proc_release", 1),
    ("proc_release", -1),
    ("proc_dep", False),
    ("proc_dep", 7),
]


def _text_ref_blob(section: str, ref) -> str:
    """A one-requirement index whose `section` refers to text `ref`.

    R1's record refers to text 0 unless `section` is "req_release", so an
    entry that refers to text 0 holds its requirement's text.  A "proc_dep"
    entry overrides R1's "proc_release" entry, which refers to text 0, and
    the table then holds a second text, "two", for it to refer to.
    """
    entries = {
        "req_release": {"R1": {"01R1": [ref, []]}},
        "proc_release": {"P": {"01R1": [["R1", ref]]}},
        "proc_dep": {"P": {"SA": {"01R1": [["R1", ref]]}}},
    }
    data = {
        "aliases": {},
        "format_version": FORMAT_VERSION,
        "proc_dev": {},
        "registry": {},
        "release_universe": ["01R1"],
        "sentences": ["one", "two"] if section == "proc_dep" else ["one"],
        "texts": ["0", "1"] if section == "proc_dep" else ["0"],
        "req_release": {"R1": {"01R1": [0, []]}},
        "proc_release": {"P": {"01R1": [["R1", 0]]}} if section == "proc_dep" else {},
        "proc_dep": {},
        section: entries[section],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _entry_lists(index: SpecIndex):
    """Every entry list of `proc_release` and `proc_dep`."""
    for by_release in index.proc_release.values():
        yield from by_release.values()
    for by_dep in index.proc_dep.values():
        for by_release in by_dep.values():
            yield from by_release.values()


class TestPersistence:
    def test_json_round_trip(self, small_world):
        _, _, _, index = small_world
        blob = index_to_json(index)
        again = index_from_json(blob)
        assert index_to_json(again) == blob
        assert again.release_universe == index.release_universe
        assert again.proc_req == index.proc_req

    def test_writes_no_derivable_section(self, corpus_index):
        data = json.loads(index_to_json(corpus_index))
        assert sorted(data) == [
            "aliases", "format_version", "proc_dep", "proc_dev", "proc_release",
            "registry", "release_universe", "req_release", "sentences", "texts",
        ]
        assert data["proc_dev"] == {
            proc: {dev: [diff.id for diff in diffs] for dev, diffs in by_dev.items()}
            for proc, by_dev in corpus_index.proc_dev.items()
        }

    def test_proc_dep_holds_only_overrides(self, corpus_index):
        """The written `proc_dep` holds each entry whose deployment text is not
        its `proc_release` entry's, and no other."""
        data = json.loads(index_to_json(corpus_index))
        texts = written_texts(data)
        written = {
            (proc, dep, r, req_id, texts[ref])
            for proc, by_dep in data["proc_dep"].items()
            for dep, by_release in by_dep.items()
            for r, entries in by_release.items()
            for req_id, ref in entries
        }
        differing = {
            (proc, dep, r, req_id, text)
            for proc, by_dep in corpus_index.proc_dep.items()
            for dep, by_release in by_dep.items()
            for r, entries in by_release.items()
            for (req_id, text), base in zip(entries, corpus_index.proc_release[proc][r])
            if text != base[1]
        }
        assert written == differing and 0 < len(written) < sum(
            map(len, _entry_lists(corpus_index))
        )

    def test_format_version_checked(self, small_world):
        _, _, _, index = small_world
        for version in (1, 2, 3, 4, 5, 99):
            blob = index_to_json(index).replace(
                f'"format_version":{FORMAT_VERSION}', f'"format_version":{version}'
            )
            with pytest.raises(ValueError, match=f"^unsupported index format version: {version} "):
                index_from_json(blob)

    @pytest.mark.parametrize(
        "blob",
        [
            pytest.param(f'{{"format_version": {FORMAT_VERSION}}}', id="only-format-version"),
            "[1]",
            pytest.param(
                f'{{"format_version": {FORMAT_VERSION}, "release_universe": 7}}',
                id="missing-keys-universe-7",
            ),
            *(
                pytest.param(_text_ref_blob(section, ref), id=f"{section}-text-{ref!r}")
                for section, ref in BAD_TEXT_REFS
            ),
            *(
                pytest.param(_text_ref_blob("req_release", 0).replace(table, bad), id=case)
                for case, table, bad in [
                    ("sentences-not-a-list", '["one"]', '"one"'),
                    ("sentences-not-strings", '["one"]', "[1]"),
                    ("texts-not-a-list", '["0"]', '"0"'),
                    ("texts-not-strings", '["0"]', "[0]"),
                ]
            ),
        ],
    )
    def test_wrong_shape_is_malformed_index(self, blob):
        with pytest.raises(ValueError, match="^malformed index: "):
            index_from_json(blob)

    @pytest.mark.parametrize("case", MALFORMED_INDEX_EDITS)
    def test_wrong_value_is_malformed_index(self, case):
        path, value, named = MALFORMED_INDEX_EDITS[case]
        with pytest.raises(ValueError, match="^malformed index: ") as raised:
            index_from_json(json_with(one_diff_index(), path, value))
        assert named in str(raised.value)

    @pytest.mark.parametrize("case", UNKNOWN_RELEASE_EDITS)
    def test_release_outside_universe_is_malformed_index(self, case):
        path, key = UNKNOWN_RELEASE_EDITS[case]
        blob = json_with_key(one_diff_index(), path, key)
        with pytest.raises(ValueError, match="^malformed index: ") as raised:
            index_from_json(blob)
        assert f"release {key!r} is not in the release universe" in str(raised.value)

    def test_unregistered_record_dev_is_refused_before_a_query(self):
        """A record development outside the registry would reach `diff_causes`
        at a `query diff`; the loader refuses it, even when no diff lists it."""
        with pytest.raises(ValueError, match="^malformed index: record development 'CB_NOPE' "):
            index_from_json(unregistered_record_dev_index())

    def test_valid_diff_segment_loads(self):
        blob = one_diff_index()
        index = index_from_json(blob)
        (diff,) = query_dev_changes(index, "p", "CB00XXXX")
        assert [(s.kind, s.text) for s in diff.segments] == [
            (DiffKind.UNCHANGED, "One."),
            (DiffKind.ADDED, "Three."),
            (DiffKind.REMOVED, "Two."),
        ]
        assert (diff.id, str(diff.release_a), str(diff.release_b)) == ("R1", "01R1", "01R2")
        assert diff.causes == {"CB00XXXX"}
        assert index_to_json(index) == blob

    @pytest.mark.parametrize("section", ["req_release", "proc_release", "proc_dep"])
    def test_valid_text_reference_loads(self, section):
        ref = 1 if section == "proc_dep" else 0  # an override holds a text of its own
        index = index_from_json(_text_ref_blob(section, ref))
        assert index_to_json(index) == _text_ref_blob(section, ref)

    def test_each_text_stored_once(self, corpus_index):
        data = json.loads(index_to_json(corpus_index))
        texts = {
            text for by_release in corpus_index.req_release.values() for text, _ in by_release.values()
        }
        assert written_texts(data) == sorted(set(written_texts(data)))
        assert texts <= set(written_texts(data))
        assert len(set(data["sentences"])) == len(data["sentences"]) < sum(
            len(row.split(" ")) for row in data["texts"]
        )

    def test_round_trip_equal_and_shares_texts(self, corpus_index):
        """Built and loaded, each distinct text, requirement id, record and
        entry is one object, held by every place that holds an equal one."""
        again = index_from_json(index_to_json(corpus_index))
        for name in (f.name for f in dataclasses.fields(SpecIndex)):
            assert getattr(again, name) == getattr(corpus_index, name), name
        for index in (corpus_index, again):
            by_text, by_record, by_entry = {}, {}, {}
            ids = {req_id: req_id for req_id in index.req_release}
            for records in index.req_release.values():
                for record in records.values():
                    assert by_record.setdefault(record, record) is record
                    assert by_text.setdefault(record[0], record[0]) is record[0]
            for entries in _entry_lists(index):
                for entry in entries:
                    req_id, text = entry
                    assert by_entry.setdefault(entry, entry) is entry
                    assert by_text.setdefault(text, text) is text
                    assert ids.setdefault(req_id, req_id) is req_id
            assert len(by_entry) < sum(map(len, _entry_lists(index)))

    def test_queries_equal_after_reload(self, small_world):
        _, _, _, index = small_world
        again = index_from_json(index_to_json(index))
        assert query_behavior(again, "A2 measurement", rel("01R2")) == query_behavior(
            index, "A2 measurement", rel("01R2")
        )
        a = query_release_diff(again, "A2 measurement", rel("01R1"), rel("01R2"))
        b = query_release_diff(index, "A2 measurement", rel("01R1"), rel("01R2"))
        assert a == b


class TestWriter:
    """`index_to_json` writes the bytes of one `json.dumps` over the nested
    sections, kept as `support.reference_index_to_json`."""

    def test_bundle_equals_json_dumps_reference(self, corpus_index):
        assert index_to_json(corpus_index) == reference_index_to_json(corpus_index)

    @settings(max_examples=150, deadline=None)
    @given(index_corpora())
    @example(index_cases())
    def test_equals_json_dumps_reference(self, corpus):
        docs, registry = corpus
        built = build_index(docs, registry, build_lexicon(INDEX_LEXICON))
        assert index_to_json(built) == reference_index_to_json(built)

    @settings(max_examples=200, deadline=None)
    @given(odd_string_indexes())
    @example(odd_string_index())
    def test_escapes_as_json_dumps(self, index):
        assert index_to_json(index) == reference_index_to_json(index)


class TestRoundTrip:
    """Loading a written index gives back the built one, field for field."""

    @settings(max_examples=150, deadline=None)
    @given(index_corpora())
    @example(index_cases())
    def test_loaded_equals_built(self, corpus):
        docs, registry = corpus
        built = build_index(docs, registry, build_lexicon(INDEX_LEXICON))
        loaded = index_from_json(index_to_json(built))
        for name in (f.name for f in dataclasses.fields(SpecIndex)):
            assert getattr(loaded, name) == getattr(built, name), name

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=". ;\n\t\"'\\a\u2028\U0001f600", max_size=12), max_size=6))
    @example(["", ". ", "a. ", ". a", "a.. b", "a.  b. c", "a. b.", "a.b."])
    def test_texts_survive_the_sentence_table(self, texts):
        """Any texts, whatever their periods, spaces and escapes, load back
        exactly as they were written."""
        index = SpecIndex(
            release_universe=[RELEASES[0]],
            registry={},
            aliases={},
            req_release={
                f"R{k}": {str(RELEASES[0]): (text, frozenset())} for k, text in enumerate(texts)
            },
            proc_release={},
            proc_dev={},
        )
        loaded = index_from_json(index_to_json(index)).req_release
        assert [loaded[f"R{k}"][str(RELEASES[0])][0] for k in range(len(texts))] == texts

    @settings(max_examples=150, deadline=None)
    @given(index_corpora())
    @example(index_cases())
    def test_loaded_proc_dep_equals_reference_build(self, corpus):
        """Each loaded `proc_dep` list, derived from `proc_release` and the
        written overrides, holds what resolving that deployment gives; a list
        that nothing overrides is the `proc_release` list itself."""
        docs, registry = corpus
        lexicon = build_lexicon(INDEX_LEXICON)
        loaded = index_from_json(index_to_json(build_index(docs, registry, lexicon)))
        want = reference_build_index(docs, registry, lexicon).proc_dep

        def places(proc_dep):
            return {(proc, dep, r) for proc, by_dep in proc_dep.items()
                    for dep, by_release in by_dep.items() for r in by_release}

        assert places(loaded.proc_dep) == places(want)
        for proc, by_dep in want.items():
            for dep, by_release in by_dep.items():
                for r, entries in by_release.items():
                    got, base = loaded.proc_dep[proc][dep][r], loaded.proc_release[proc][r]
                    assert got == entries, (proc, dep, r)
                    assert (got is base) == (got == base), (proc, dep, r)

    def test_cases_hold_a_caused_diff_from_no_text(self):
        docs, registry = index_cases()
        index = build_index(docs, registry, build_lexicon(INDEX_LEXICON))
        (diff,) = [d for d in index.proc_dev["value"]["CB00XXXX"] if d.id == "REQ_0004"]
        assert str(diff.release_a) not in index.req_release["REQ_0004"]
        assert diff.causes == {"CB00XXXX"}
        assert diff.added() == ["The value is new.", "The timer restarts."]
        assert not diff.removed()


class TestReleaseDiffQuery:
    """`query_release_diff` diffs only the ids whose entry text moved, and
    skips a pair whose sentences are equal before any diff is built."""

    @settings(max_examples=150, deadline=None)
    @given(index_corpora())
    @example(index_cases())
    def test_equals_union_of_ids_reference(self, corpus):
        docs, registry = corpus
        built = build_index(docs, registry, build_lexicon(INDEX_LEXICON))
        loaded = index_from_json(index_to_json(built))
        procedures = [*INDEX_LEXICON, "Starts again", UNMAPPED, "unknown procedure"]
        for index in (built, loaded):
            for proc in procedures:
                for a in index.release_universe:
                    for b in index.release_universe:
                        assert query_release_diff(index, proc, a, b) == (
                            reference_query_release_diff(index, proc, a, b)
                        ), (proc, str(a), str(b))


class TestReleaseGap:
    """A requirement with no version at 01R2, which the registry puts in the universe."""

    GAP_CORPUS = """# Measurements

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=01R1 ---
The A2 measurement shall run. The old step applies.
--- VERSION first=02R1 last=open ---
The A2 measurement shall run. The new step applies.
=== END ===
"""

    @pytest.fixture(scope="class")
    def gap_index(self):
        result = parse_document(self.GAP_CORPUS, name="doc")
        assert result.ok, result.errors
        registry = DevelopmentRegistry({"CB00XXXX": rel("01R2")})
        lexicon = build_lexicon({"A2 measurement": []})
        return build_index([result.document], registry, lexicon)

    def answers(self, index):
        proc = "A2 measurement"
        return (
            query_behavior(index, proc, rel("01R2")),
            query_release_diff(index, proc, rel("01R1"), rel("01R2")),
            query_release_diff(index, proc, rel("01R2"), rel("02R1")),
        )

    def test_gap_answers(self, gap_index):
        assert [str(r) for r in gap_index.release_universe] == ["01R1", "01R2", "02R1"]
        at_gap, removed, added = self.answers(gap_index)
        assert at_gap == []
        assert [d.id for d in removed] == [d.id for d in added] == ["REQ_0001"]
        assert {s.kind for s in removed[0].segments} == {DiffKind.REMOVED}
        assert {s.kind for s in added[0].segments} == {DiffKind.ADDED}

    def test_answers_equal_after_reload(self, gap_index):
        again = index_from_json(index_to_json(gap_index))
        assert self.answers(again) == self.answers(gap_index)
