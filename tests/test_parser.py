import random

import pytest
from hypothesis import given

from speckit.errors import RegistryError
from speckit.model import (
    DeploymentSpan,
    DeploymentType,
    DevBlock,
    DevelopmentRegistry,
    PlainText,
    ReleaseId,
    Requirement,
    RequirementVersion,
    Section,
    SpecDocument,
)
from speckit.parser import (
    FORMAT_HEADER,
    ParseErrorKind,
    dump_registry,
    load_registry,
    parse_content,
    parse_document,
    render_segments,
    serialize,
    validate_corpus,
)
from support import random_document, segment_trees

WELL_FORMED = """=== SPEC FORMAT 1 ===

# Measurements

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=01R1 ---
The first behavior applies here.
--- VERSION first=01R2 last=open ---
The second behavior applies here.
=== END ===
"""


# Characters that `str.splitlines` breaks a line at, but a text-mode file
# read does not: each sits inside a line.
IN_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineModel:
    """Every parser splits lines at "\\n", "\\r\\n" and "\\r" only."""

    @pytest.mark.parametrize("char", IN_LINE_BREAKS, ids=repr)
    def test_error_line_is_the_file_line(self, char):
        text = WELL_FORMED.replace(
            "The first behavior applies here.",
            f"The first{char}behavior.\n[Before CB00XXXX] a [CB00XXXX] b",
        )
        result = parse_document(text, name="d")
        assert [(e.kind, e.line) for e in result.errors] == [(ParseErrorKind.UNBALANCED_TAG, 8)]
        body = f"The first{char}behavior.\n[Before CB00XXXX] a [CB00XXXX] b"
        assert [e.line for e in parse_content(body)[1]] == [2]

    @pytest.mark.parametrize("char", IN_LINE_BREAKS, ids=repr)
    def test_document_and_content_give_the_same_segments(self, char):
        body = f"One{char}two. [SA] Three{char}four. [End SA]\nFive."
        result = parse_document(WELL_FORMED.replace("The first behavior applies here.", body))
        assert result.ok, result.errors
        version = next(result.document.iter_requirements()).versions[0]
        segments, errors = parse_content(body)
        assert not errors and tuple(segments) == version.content
        assert char in render_segments(version.content)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=repr)
    def test_universal_newlines_end_lines(self, newline):
        body = "One.\n[Before CB00XXXX] a [CB00XXXX] b"
        assert [e.line for e in parse_content(body.replace("\n", newline))[1]] == [2]
        text = WELL_FORMED.replace("The first behavior applies here.", body)
        result = parse_document(text.replace("\n", newline), name="d")
        assert [e.line for e in result.errors] == [8]

    @pytest.mark.parametrize("char", IN_LINE_BREAKS, ids=repr)
    def test_registry_error_line_is_the_file_line(self, char):
        with pytest.raises(RegistryError, match="^line 2: expected '<dev> <release>', got 'bad'$"):
            load_registry(f"# one{char}comment\nbad\n")


class TestParseContent:
    def test_dev_block_triple(self):
        segments, errors = parse_content(
            "x [Before CB00XXXX] old [CB00XXXX] new [End CB00XXXX] y"
        )
        assert errors == []
        assert segments == [
            PlainText("x"),
            DevBlock("CB00XXXX", (PlainText("old"),), (PlainText("new"),)),
            PlainText("y"),
        ]

    def test_plain_text_only(self):
        segments, errors = parse_content("plain text only")
        assert errors == []
        assert segments == [PlainText("plain text only")]

    def test_deployment_span(self):
        segments, errors = parse_content("[SA] only for standalone [End SA]")
        assert errors == []
        assert segments == [
            DeploymentSpan(DeploymentType.SA, (PlainText("only for standalone"),))
        ]

    def test_span_without_end_extends_to_content_end(self):
        segments, errors = parse_content("common part [SA] standalone tail")
        assert errors == []
        assert segments == [
            PlainText("common part"),
            DeploymentSpan(DeploymentType.SA, (PlainText("standalone tail"),)),
        ]

    def test_unbalanced_dev_block(self):
        _, errors = parse_content("[Before CB00XXXX] a [CB00XXXX] b")
        assert [e.kind for e in errors] == [ParseErrorKind.UNBALANCED_TAG]

    def test_missing_middle_tag(self):
        _, errors = parse_content("[Before CB00XXXX] a [End CB00XXXX]")
        assert ParseErrorKind.UNBALANCED_TAG in {e.kind for e in errors}

    def test_mistyped_end_tag_is_one_error(self):
        # The block it leaves open is the same defect, not a second one.
        _, errors = parse_content("[Before CB00XXXX] a [CB00XXXX] b [End CB00YYYY]")
        assert [(e.kind, e.line, e.message) for e in errors] == [
            (
                ParseErrorKind.UNBALANCED_TAG,
                1,
                "[End CB00YYYY] does not close open block [Before CB00XXXX]",
            )
        ]

    @pytest.mark.parametrize(
        "text, want",
        [
            # [End CB00XXXX] closes its own block, so only the nested block
            # it skips is unclosed; CB00XXXX's missing [CB00XXXX] is its own defect.
            (
                "[Before CB00XXXX] a\n[Before CB00YYYY] b [CB00YYYY] c\n[End CB00XXXX]",
                [
                    (ParseErrorKind.NESTED_DEV_BLOCK, 2,
                     "[Before CB00YYYY] opened inside another development block"),
                    (ParseErrorKind.UNBALANCED_TAG, 2,
                     "[Before CB00YYYY] never closed: missing [End CB00YYYY]"),
                    (ParseErrorKind.UNBALANCED_TAG, 3,
                     "[End CB00XXXX] before the [CB00XXXX] tag"),
                ],
            ),
            (
                "[Before CB00XXXX] a [CB00XXXX] [SA] b\n[Before CB00YYYY] c\n[End CB00XXXX] d",
                [
                    (ParseErrorKind.NESTED_DEV_BLOCK, 2,
                     "[Before CB00YYYY] opened inside another development block"),
                    (ParseErrorKind.UNBALANCED_TAG, 2,
                     "[Before CB00YYYY] never closed: missing [CB00YYYY]"),
                ],
            ),
            # A skipped block already reported by a mistyped end tag is not reported again.
            (
                "[Before CB00XXXX] a [CB00XXXX] b [Before CB00YYYY] c [CB00YYYY] d "
                "[End CB00ZZZZ] [End CB00XXXX]",
                [
                    (ParseErrorKind.NESTED_DEV_BLOCK, 1,
                     "[Before CB00YYYY] opened inside another development block"),
                    (ParseErrorKind.UNBALANCED_TAG, 1,
                     "[End CB00ZZZZ] does not close open block [Before CB00YYYY]"),
                ],
            ),
        ],
        ids=["nested-block-skipped", "span-and-block-skipped", "skipped-block-already-reported"],
    )
    def test_end_tag_closes_outer_block(self, text, want):
        _, errors = parse_content(text)
        assert [(e.kind, e.line, e.message) for e in errors] == want

    def test_dangling_end(self):
        _, errors = parse_content("text [End CB00XXXX] more")
        assert [e.kind for e in errors] == [ParseErrorKind.DANGLING_END]

    def test_dangling_span_end(self):
        _, errors = parse_content("text [End SA] more")
        assert [e.kind for e in errors] == [ParseErrorKind.DANGLING_END]

    def test_nested_dev_block(self):
        _, errors = parse_content(
            "[Before CB00XXXX] a [Before CB00YYYY] b [CB00YYYY] c [End CB00YYYY] "
            "[CB00XXXX] d [End CB00XXXX]"
        )
        assert ParseErrorKind.NESTED_DEV_BLOCK in {e.kind for e in errors}

    def test_same_type_span_nesting_rejected(self):
        _, errors = parse_content("[SA] a [SA] b [End SA] [End SA]")
        assert ParseErrorKind.UNBALANCED_TAG in {e.kind for e in errors}

    def test_span_inside_dev_block_part(self):
        segments, errors = parse_content(
            "[Before CB00XXXX] old [CB00XXXX] new [SA] sa only [End SA] [End CB00XXXX]"
        )
        assert errors == []
        block = segments[0]
        assert isinstance(block, DevBlock)
        assert block.after == (
            PlainText("new"),
            DeploymentSpan(DeploymentType.SA, (PlainText("sa only"),)),
        )

    def test_unclosed_span_ends_at_part_boundary(self):
        segments, errors = parse_content(
            "[Before CB00XXXX] old [SA] sa old [CB00XXXX] new [End CB00XXXX]"
        )
        assert errors == []
        block = segments[0]
        assert block.before == (
            PlainText("old"),
            DeploymentSpan(DeploymentType.SA, (PlainText("sa old"),)),
        )
        assert block.after == (PlainText("new"),)

    def test_empty_dev_parts_parse(self):
        segments, errors = parse_content("[Before CB00XXXX] [CB00XXXX] new [End CB00XXXX]")
        assert errors == []
        assert segments == [DevBlock("CB00XXXX", (), (PlainText("new"),))]

    def test_case_variant_tags_stay_plain_text(self):
        segments, errors = parse_content("[before CB00XXXX] x [ SA ] y")
        assert errors == []
        assert segments == [PlainText("[before CB00XXXX] x [ SA ] y")]

    def test_line_joins_normalize_whitespace(self):
        segments, errors = parse_content("first line   \n   second line")
        assert errors == []
        assert segments == [PlainText("first line second line")]

    def test_internal_spacing_preserved(self):
        segments, _ = parse_content("a  |  b")
        assert segments == [PlainText("a  |  b")]

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            (
                "[Before CB000001] a [CB000001] b [CB000001] c [End CB000001]",
                ParseErrorKind.UNBALANCED_TAG,
                "duplicate [CB000001] tag",
            ),
            (
                "a [CB000001] b",
                ParseErrorKind.UNBALANCED_TAG,
                "[CB000001] without matching [Before CB000001]",
            ),
            (
                "[Before CB000001] a [CB000001] b [End CB000002] c [End CB000001]",
                ParseErrorKind.UNBALANCED_TAG,
                "[End CB000002] does not close open block [Before CB000001]",
            ),
            (
                "[SA] a [NSA] b [End SA] c [End NSA]",
                ParseErrorKind.UNBALANCED_TAG,
                "[End SA] closes an improperly nested span",
            ),
        ],
    )
    def test_error_message(self, text, kind, message):
        _, errors = parse_content(text)
        assert [(e.kind, e.line, e.message) for e in errors] == [(kind, 1, message)]


class TestParseDocument:
    def test_well_formed_two_versions(self):
        result = parse_document(WELL_FORMED, name="demo")
        assert result.ok
        reqs = list(result.document.iter_requirements())
        assert len(reqs) == 1
        assert len(reqs[0].versions) == 2
        assert reqs[0].section_path == ("Measurements",)
        assert reqs[0].versions[0].last_release == ReleaseId.parse("01R1")
        assert reqs[0].versions[1].last_release is None

    def test_empty_source(self):
        result = parse_document("")
        assert result.ok
        assert result.document.sections == ()

    def test_header_only(self):
        result = parse_document(FORMAT_HEADER + "\n")
        assert result.ok
        assert result.document.sections == ()

    def test_block_not_closed_at_end_of_document(self):
        result = parse_document(WELL_FORMED.replace("=== END ===\n", ""))
        assert [(e.kind, e.line, e.message) for e in result.errors] == [
            (
                ParseErrorKind.BAD_REQUIREMENT_HEADER,
                5,
                "requirement REQ_0001 not closed at end of document",
            )
        ]

    def test_errors_carry_document_name(self):
        result = parse_document(WELL_FORMED.replace("first=01R1", "first=1R1"), name="demo")
        assert [str(e) for e in result.errors] == [
            "demo:6: BadReleaseId: malformed release id: '1R1'"
        ]

    def test_crlf_accepted(self):
        result = parse_document(WELL_FORMED.replace("\n", "\r\n"), name="demo")
        assert result.ok
        assert len(list(result.document.iter_requirements())) == 1

    def test_unbalanced_tag_reports_line(self):
        text = WELL_FORMED.replace(
            "The first behavior applies here.",
            "[Before CB00XXXX] a [CB00XXXX] b",
        )
        result = parse_document(text)
        assert [e.kind for e in result.errors] == [ParseErrorKind.UNBALANCED_TAG]
        assert result.errors[0].line == 7  # the content line carrying the tag

    def test_bad_release_id(self):
        text = WELL_FORMED.replace("first=01R1", "first=1R1")
        result = parse_document(text)
        assert ParseErrorKind.BAD_RELEASE_ID in {e.kind for e in result.errors}

    @pytest.mark.parametrize(
        "header, bad_ids",
        [
            ("first=1R1 last=01R1", ["1R1"]),
            ("first=01R1 last=1R1", ["1R1"]),
            ("first=1R1 last=x", ["1R1", "x"]),
            # Arabic-Indic digits: a release id is ASCII
            ("first=\u0660\u0661R\u0661 last=01R1", ["\u0660\u0661R\u0661"]),
        ],
    )
    def test_one_error_per_malformed_release_id(self, header, bad_ids):
        result = parse_document(WELL_FORMED.replace("first=01R1 last=01R1", header))
        assert [(e.kind, e.line, e.message) for e in result.errors] == [
            (ParseErrorKind.BAD_RELEASE_ID, 6, f"malformed release id: {bad!r}")
            for bad in bad_ids
        ]
        assert list(result.document.iter_requirements()) == []

    def test_duplicate_id_within_document(self):
        text = WELL_FORMED + "\n=== REQ REQ_0001 ===\n--- VERSION first=01R1 last=open ---\nMore text.\n=== END ===\n"
        result = parse_document(text)
        assert ParseErrorKind.DUPLICATE_ID in {e.kind for e in result.errors}
        assert len(list(result.document.iter_requirements())) == 1

    def test_requirement_outside_section(self):
        text = "=== REQ REQ_0001 ===\n--- VERSION first=01R1 last=open ---\nText.\n=== END ===\n"
        result = parse_document(text)
        assert ParseErrorKind.BAD_REQUIREMENT_HEADER in {e.kind for e in result.errors}

    def test_dangling_block_end(self):
        result = parse_document("# S\n\n=== END ===\n")
        assert [e.kind for e in result.errors] == [ParseErrorKind.DANGLING_END]

    def test_overlapping_versions_rejected(self):
        # An overlap, and an inverted range: one BadReleaseId at the REQ line.
        for header, message in [
            ("first=01R1 last=01R2", "requirement 'REQ_0001' versions overlap at 01R2"),
            ("first=02R1 last=01R1", "version range inverted: 02R1 > 01R1"),
        ]:
            text = WELL_FORMED.replace("first=01R1 last=01R1", header)
            result = parse_document(text)
            assert [(e.kind, e.line, e.message) for e in result.errors] == [
                (ParseErrorKind.BAD_RELEASE_ID, 5, message)
            ]
            assert list(result.document.iter_requirements()) == []

    def test_model_rejection_reported_beside_tag_error(self):
        # The inverted range and the unclosed dev block are two defects of one
        # block: both are reported, and the block is dropped.
        text = WELL_FORMED.replace("first=01R1 last=01R1", "first=02R1 last=01R1").replace(
            "The first behavior applies here.", "[Before CB00XXXX] old [CB00XXXX] new"
        )
        result = parse_document(text)
        assert [(e.kind, e.line, e.message) for e in result.errors] == [
            (
                ParseErrorKind.UNBALANCED_TAG,
                7,
                "[Before CB00XXXX] never closed: missing [End CB00XXXX]",
            ),
            (ParseErrorKind.BAD_RELEASE_ID, 5, "version range inverted: 02R1 > 01R1"),
        ]
        assert list(result.document.iter_requirements()) == []

    def test_model_rejection_skipped_when_a_release_id_is_malformed(self):
        # With a release id missing, the range checks have nothing to check.
        text = WELL_FORMED.replace("first=01R1 last=01R1", "first=02R1 last=x").replace(
            "first=01R2 last=open", "first=01R1 last=open"
        )
        assert [(e.kind, e.line, e.message) for e in parse_document(text).errors] == [
            (ParseErrorKind.BAD_RELEASE_ID, 6, "malformed release id: 'x'")
        ]

    def test_block_without_versions_is_one_error(self):
        result = parse_document("# S\n\n=== REQ REQ_0001 ===\n=== END ===\n")
        assert [(e.kind, e.line, e.message) for e in result.errors] == [
            (ParseErrorKind.BAD_REQUIREMENT_HEADER, 3, "requirement REQ_0001 has no versions")
        ]

    def test_malformed_block_never_suppresses_later_blocks(self):
        rng = random.Random(23)
        for trial in range(30):
            doc = random_document(rng, f"doc{trial}", req_start=trial * 100)
            text = serialize(doc)
            lines = text.splitlines()
            # break one requirement block by dropping its version header
            first_version_lines = [
                i
                for i, l in enumerate(lines)
                if l.startswith("--- VERSION") and lines[i - 1].startswith("=== REQ")
            ]
            drop = first_version_lines[rng.randrange(len(first_version_lines))]
            broken = "\n".join(l for i, l in enumerate(lines) if i != drop)
            result = parse_document(broken)
            total = len(list(doc.iter_requirements()))
            parsed = len(list(result.document.iter_requirements()))
            assert not result.ok
            assert parsed == total - 1

    def test_unterminated_block_recovers_at_next_block(self):
        text = (
            "# S\n\n=== REQ REQ_0001 ===\n--- VERSION first=01R1 last=open ---\nA text.\n"
            "=== REQ REQ_0002 ===\n--- VERSION first=01R1 last=open ---\nB text.\n=== END ===\n"
        )
        result = parse_document(text)
        assert ParseErrorKind.BAD_REQUIREMENT_HEADER in {e.kind for e in result.errors}
        parsed = [r.id for r in result.document.iter_requirements()]
        assert parsed == ["REQ_0002"]

    def test_stray_text_outside_blocks(self):
        result = parse_document("# S\n\nloose prose here\n")
        assert ParseErrorKind.BAD_REQUIREMENT_HEADER in {e.kind for e in result.errors}


class TestSerialize:
    @given(segment_trees())
    def test_round_trip_nested_trees(self, content):
        req = Requirement(
            id="REQ_0001",
            versions=(RequirementVersion(ReleaseId.parse("01R1"), None, content),),
            section_path=("S",),
        )
        doc = SpecDocument(name="d", sections=(Section("S", (req,)),))
        result = parse_document(serialize(doc), name="d")
        assert result.ok, result.errors
        assert result.document == doc

    def test_empty_document_is_header_only(self):
        assert serialize(SpecDocument(name="x")) == FORMAT_HEADER + "\n"

    def test_round_trip_well_formed(self):
        result = parse_document(WELL_FORMED, name="demo")
        text = serialize(result.document)
        again = parse_document(text, name="demo")
        assert again.ok
        assert again.document == result.document

    def test_dev_block_renders_three_tags_in_order(self):
        req = Requirement(
            id="REQ_0001",
            versions=(
                RequirementVersion(
                    ReleaseId.parse("01R1"),
                    None,
                    (DevBlock("CB00XXXX", (PlainText("old"),), (PlainText("new"),)),),
                ),
            ),
        )
        doc = SpecDocument(name="d", sections=(Section("S", (req,)),))
        out = serialize(doc)
        line = [l for l in out.splitlines() if "CB00XXXX" in l][0]
        assert line == "[Before CB00XXXX] old [CB00XXXX] new [End CB00XXXX]"

    def test_round_trip_random_documents(self):
        rng = random.Random(99)
        for i in range(100):
            doc = random_document(rng, f"doc{i}", req_start=i * 50)
            text = serialize(doc)
            result = parse_document(text, name=f"doc{i}")
            assert result.ok, result.errors[:3]
            assert result.document == doc
            # canonical text is a fixed point
            assert serialize(result.document) == text

    def test_lf_canonical_output(self):
        result = parse_document(WELL_FORMED.replace("\n", "\r\n"), name="demo")
        assert "\r" not in serialize(result.document)


def _single_req_doc(name: str, req_id: str, content: str) -> SpecDocument:
    result = parse_document(
        f"# S\n\n=== REQ {req_id} ===\n--- VERSION first=01R1 last=open ---\n{content}\n=== END ===\n",
        name=name,
    )
    assert result.ok, result.errors
    return result.document


class TestValidateCorpus:
    def test_duplicate_ids_across_documents(self):
        a = _single_req_doc("a", "REQ_0001", "Text one.")
        b = _single_req_doc("b", "REQ_0001", "Text two.")
        findings = validate_corpus([a, b], DevelopmentRegistry({}))
        assert [f.kind for f in findings] == [ParseErrorKind.DUPLICATE_ID]
        assert findings[0].document == "b"

    def test_unregistered_development(self):
        doc = _single_req_doc(
            "a", "REQ_0001", "[Before CB00ZZZZ] x [CB00ZZZZ] y [End CB00ZZZZ]"
        )
        findings = validate_corpus([doc], DevelopmentRegistry({}))
        assert [f.kind for f in findings] == [ParseErrorKind.UNKNOWN_DEVELOPMENT]
        assert "CB00ZZZZ" in findings[0].message

    def test_clean_corpus(self):
        a = _single_req_doc("a", "REQ_0001", "Text one.")
        b = _single_req_doc(
            "b", "REQ_0002", "[Before CB00XXXX] x [CB00XXXX] y [End CB00XXXX]"
        )
        reg = DevelopmentRegistry({"CB00XXXX": ReleaseId.parse("01R2")})
        assert validate_corpus([a, b], reg) == []

    def test_development_predating_first_release_flagged(self):
        doc = parse_document(
            "# S\n\n=== REQ REQ_0001 ===\n--- VERSION first=01R2 last=open ---\n"
            "[Before CB00XXXX] x [CB00XXXX] y [End CB00XXXX]\n=== END ===\n",
            name="a",
        ).document
        reg = DevelopmentRegistry({"CB00XXXX": ReleaseId.parse("01R1")})
        findings = validate_corpus([doc], reg)
        assert [f.kind for f in findings] == [ParseErrorKind.BAD_RELEASE_ID]


class TestRegistry:
    def test_load_with_comments(self):
        reg = load_registry("# devs\nCB00XXXX 01R2\n\nCB00YYYY 02R1 # inline\n")
        assert reg.release_of("CB00XXXX") == ReleaseId.parse("01R2")
        assert reg.release_of("CB00YYYY") == ReleaseId.parse("02R1")

    def test_malformed_line(self):
        with pytest.raises(RegistryError):
            load_registry("CB00XXXX\n")

    def test_bad_dev_id(self):
        with pytest.raises(RegistryError):
            load_registry("XX00XXXX 01R1\n")

    def test_bad_release(self):
        with pytest.raises(RegistryError):
            load_registry("CB00XXXX 1R1\n")

    def test_conflicting_duplicate(self):
        with pytest.raises(RegistryError):
            load_registry("CB00XXXX 01R1\nCB00XXXX 01R2\n")

    def test_dump_round_trip(self):
        reg = load_registry("CB00YYYY 02R1\nCB00XXXX 01R2\n")
        assert load_registry(dump_registry(reg)) == reg


class TestRenderSegments:
    def test_empty_parts(self):
        block = DevBlock("CB00XXXX", (), (PlainText("new"),))
        assert render_segments((block,)) == "[Before CB00XXXX] [CB00XXXX] new [End CB00XXXX]"

    def test_span_rendering(self):
        span = DeploymentSpan(DeploymentType.NSA, (PlainText("body"),))
        assert render_segments((span,)) == "[NSA] body [End NSA]"
