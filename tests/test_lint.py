import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import speckit.lint as lint_mod
from speckit.lexicon import build_lexicon, find_mentions
from speckit.lint import (
    SEVERITY_BY_RULE,
    LintConfig,
    LintFinding,
    LintRule,
    Location,
    Severity,
    _codes,
    _prefix_renames,
    _rarest_first,
    analyse_versions,
    check_dispersion,
    check_grammar,
    check_length,
    check_standardization,
    detect_duplication,
    jaccard,
    lint_corpus,
    shingle_set,
)
from speckit.model import (
    DEVELOPMENT_ID_PATTERN,
    DevBlock,
    DevelopmentRegistry,
    PlainText,
    ReleaseId,
    iter_segments,
)
from speckit.parser import parse_content, parse_document
from speckit.resolver import materialize
from speckit.tokenizer import Token, TokenKind, normalize, tokenize


def doc_from(name: str, body: str):
    result = parse_document(body, name=name)
    assert result.ok, result.errors
    return result.document


def req_doc(name: str, req_id: str, content: str, section: str = "S"):
    return doc_from(
        name,
        f"# {section}\n\n=== REQ {req_id} ===\n"
        f"--- VERSION first=01R1 last=open ---\n{content}\n=== END ===\n",
    )


EMPTY_REG = DevelopmentRegistry({})
EMPTY_LEX = build_lexicon({})


def words(n: int, prefix: str = "w") -> str:
    return " ".join(f"{prefix}{i}" for i in range(n)) + "."


class TestSeverities:
    def test_fixed_mapping(self):
        assert SEVERITY_BY_RULE[LintRule.L1_DUPLICATION] is Severity.HIGH
        assert SEVERITY_BY_RULE[LintRule.L2_LENGTH] is Severity.HIGH
        assert SEVERITY_BY_RULE[LintRule.L3_STANDARDIZATION] is Severity.HIGH
        assert SEVERITY_BY_RULE[LintRule.L4_GRAMMAR] is Severity.MEDIUM
        assert SEVERITY_BY_RULE[LintRule.L5_DISPERSION] is Severity.LOW

    def test_rank_order(self):
        assert Severity.HIGH.rank > Severity.MEDIUM.rank > Severity.LOW.rank

    @pytest.mark.parametrize("rule", list(LintRule))
    def test_finding_severity_comes_from_its_rule(self, rule):
        finding = LintFinding(rule, Location("doc", "REQ_0001"), "message")
        assert finding.severity is SEVERITY_BY_RULE[rule]
        assert finding.to_dict()["severity"] == SEVERITY_BY_RULE[rule].value


class TestJaccard:
    def brute_force(self, tokens_a, tokens_b, k):
        def shingles(tokens):
            texts = [t.text for t in tokens]
            if not texts:
                return set()
            if len(texts) < k:
                return {tuple(texts)}
            return {tuple(chunk) for chunk in zip(*(texts[i:] for i in range(k)))}

        sa, sb = shingles(tokens_a), shingles(tokens_b)
        if not sa and not sb:
            return 1.0
        return len(sa & sb) / len(sa | sb)

    def test_matches_brute_force(self):
        rng = random.Random(53)
        pool = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for _ in range(50):
            a = normalize(tokenize(" ".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))))
            b = normalize(tokenize(" ".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))))
            for k in (2, 3, 5):
                assert jaccard(shingle_set(a, k), shingle_set(b, k)) == pytest.approx(
                    self.brute_force(a, b, k)
                )

    def test_identical_texts_are_one(self):
        tokens = normalize(tokenize("one two three four five six"))
        assert jaccard(shingle_set(tokens, 5), shingle_set(tokens, 5)) == 1.0


def slice_shingle_set(texts: list[str], k: int) -> frozenset[tuple[str, ...]]:
    """`shingle_set` as a comprehension over slices, on the token texts."""
    if not texts:
        return frozenset()
    if len(texts) < k:
        return frozenset({tuple(texts)})
    return frozenset(tuple(texts[i : i + k]) for i in range(len(texts) - k + 1))


SHINGLE_WORDS = st.sampled_from(["a", "b", "the", "A2", "x_y", "REQ_0001"])


class TestShingleKernel:
    @given(st.integers(1, 6), st.data())
    def test_shingle_set_equals_slice_comprehension(self, k, data):
        n = data.draw(st.integers(0, k + 3))
        texts = data.draw(st.lists(SHINGLE_WORDS, min_size=n, max_size=n))
        tokens = [Token(text, TokenKind.WORD) for text in texts]
        assert shingle_set(tokens, k) == slice_shingle_set(texts, k)

    @given(
        st.frozensets(st.lists(SHINGLE_WORDS, min_size=1, max_size=3).map(tuple), max_size=12),
        st.data(),
    )
    def test_rarest_first_orders_by_frequency_then_shingle(self, shingles, data):
        frequency = Counter({s: data.draw(st.integers(1, 4)) for s in sorted(shingles)})
        assert _rarest_first(shingles, frequency) == sorted(
            shingles, key=lambda s: (frequency[s], s)
        )

    @given(
        st.sets(st.text(max_size=3), max_size=30),
        st.sampled_from([2, 3, lint_mod._RADIX]),
        st.data(),
    )
    def test_codes_compare_as_the_key_tuples_they_spell(self, keys, radix, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lint_mod, "_RADIX", radix)
            codes, width = _codes(sorted(keys))
        assert width == next(w for w in itertools.count(1) if radix**w >= len(keys))
        assert all(len(code) == width for code in codes.values())
        if not keys:
            return
        pool = sorted(keys)
        a, b = (
            data.draw(st.lists(st.sampled_from(pool), max_size=4).map(tuple)) for _ in range(2)
        )
        spelled_a, spelled_b = ("".join(map(codes.__getitem__, t)) for t in (a, b))
        assert (spelled_a < spelled_b, spelled_a == spelled_b) == (a < b, a == b)


class TestDuplication:
    def test_identical_texts_flagged_with_score_one(self):
        text = words(60)
        a = req_doc("a", "REQ_0001", text)
        b = req_doc("b", "REQ_0002", text)
        findings = detect_duplication([a, b], EMPTY_REG, LintConfig())
        assert len(findings) == 1
        assert findings[0].score == 1.0
        assert findings[0].rule is LintRule.L1_DUPLICATION
        assert findings[0].related is not None

    def test_unrelated_long_texts_not_flagged(self):
        a = req_doc("a", "REQ_0001", words(60, "left"))
        b = req_doc("b", "REQ_0002", words(60, "right"))
        assert detect_duplication([a, b], EMPTY_REG, LintConfig()) == []

    def test_renamed_parameter_variant(self):
        base = "The activateMeasurement parameter shall toggle the filter. " + words(55)
        renamed = base.replace("activateMeasurement", "activateMeasurementSA")
        a = req_doc("a", "REQ_0001", base)
        b = req_doc("b", "REQ_0002", renamed)
        findings = detect_duplication([a, b], EMPTY_REG, LintConfig())
        messages = [f.message for f in findings]
        assert len(findings) == 2  # the plain finding plus the renamed variant
        assert any("renamed-parameter" in m for m in messages)
        assert any("activateMeasurementSA" in m for m in messages)

    def test_same_requirement_versions_not_paired(self):
        text = words(60)
        doc = doc_from(
            "a",
            "# S\n\n=== REQ REQ_0001 ===\n"
            f"--- VERSION first=01R1 last=01R1 ---\n{text}\n"
            f"--- VERSION first=01R2 last=open ---\n{text}\n=== END ===\n",
        )
        assert detect_duplication([doc], EMPTY_REG, LintConfig()) == []

    def test_exact_copy_adds_exactly_one_finding(self, bundle):
        config = LintConfig()
        baseline_findings = detect_duplication(bundle.documents, bundle.registry, config)
        truth = bundle.ground_truth
        paired = {req_id for pair in truth["duplicates"] for req_id in pair}
        victim = next(
            req
            for doc in bundle.documents
            for req in doc.iter_requirements()
            if req.id not in paired
            and len(req.versions) == 1
            and len(req.versions[0].content) == 1
            and not truth["requirements"][req.id]["overlength"]
        )
        copy_doc = req_doc(
            "extra",
            "REQ_9999",
            " ".join(seg.text for seg in victim.versions[0].content),
        )
        more = detect_duplication(bundle.documents + [copy_doc], bundle.registry, config)
        new = [f for f in more if "REQ_9999" in (f.location.requirement, getattr(f.related, "requirement", ""))]
        assert len(more) == len(baseline_findings) + 1
        assert len(new) == 1
        assert new[0].score == 1.0


LATEST = ReleaseId.parse("01R2")
# Capitalized and lowercase forms of one word share an L1 key; punctuation
# has none.
VOCAB = (
    "the", "The", "timer", "Timer", "shall", "UE", "ue", "expire", "cell",
    "activateMeasurement", "activateMeasurementSA", "maxCount", "maxCountNSA",
    "42", "3.5", ".", ",", ";", "(", ")",
)


def brute_force_duplication(docs, config: LintConfig) -> list[LintFinding]:
    """The O(n^2) pair loop that the prefix-filtered join must agree with."""
    records = []
    for doc in docs:
        for req in doc.iter_requirements():
            for version in req.versions:
                ref = version.last_release if version.last_release is not None else LATEST
                tokens = normalize(tokenize(materialize(req, ref, None, EMPTY_REG).text))
                records.append(
                    (
                        Location(doc.name, req.id, str(version.first_release)),
                        shingle_set(tokens, config.shingle_k),
                        {t.text for t in tokens if t.kind is TokenKind.IDENTIFIER},
                    )
                )
    findings = []
    for (loc_a, sh_a, ids_a), (loc_b, sh_b, ids_b) in itertools.combinations(records, 2):
        if loc_a.requirement == loc_b.requirement:
            continue
        similarity = jaccard(sh_a, sh_b)
        if similarity < config.dup_threshold:
            continue
        score = round(similarity, 4)
        message = f"near-duplicate of {loc_b.requirement} (shingle Jaccard {score})"
        findings.append(
            LintFinding(LintRule.L1_DUPLICATION, loc_a, message, loc_b, score)
        )
        renames = _prefix_renames(ids_a, ids_b)
        if renames:
            detail = ", ".join(f"{x} / {y}" for x, y in renames)
            message = f"renamed-parameter duplication of {loc_b.requirement}: {detail}"
            findings.append(
                LintFinding(LintRule.L1_DUPLICATION, loc_a, message, loc_b, score)
            )
    return findings


@st.composite
def small_corpora(draw):
    """Two documents of one- or two-version requirements over a tiny vocabulary.

    Texts include empty ones, ones shorter than `shingle_k` and exact copies
    of earlier texts.
    """
    texts: list[str] = []
    sources = {"a": "# S\n\n", "b": "# S\n\n"}
    for n in range(draw(st.integers(0, 8))):
        headers = draw(
            st.sampled_from(
                [["first=01R1 last=open"], ["first=01R1 last=01R1", "first=01R2 last=open"]]
            )
        )
        block = f"=== REQ REQ_{n:04d} ===\n"
        for header in headers:
            if texts and draw(st.booleans()):
                text = draw(st.sampled_from(texts))
            else:
                text = " ".join(draw(st.lists(st.sampled_from(VOCAB), max_size=12)))
            texts.append(text)
            block += f"--- VERSION {header} ---\n{text}\n"
        sources[draw(st.sampled_from("ab"))] += block + "=== END ===\n"
    return [doc_from(name, body) for name, body in sources.items()]


class TestDuplicationJoin:
    @settings(max_examples=300, deadline=None)
    @given(
        docs=small_corpora(),
        threshold=st.sampled_from([0.1, 1 / 3, 0.7, 1.0]),
        k=st.sampled_from([2, 3, 5, 7]),
    )
    def test_equals_brute_force(self, docs, threshold, k):
        config = LintConfig(shingle_k=k, dup_threshold=threshold)
        assert detect_duplication(docs, EMPTY_REG, config) == brute_force_duplication(
            docs, config
        )

    @settings(max_examples=150, deadline=None)
    @given(
        docs=small_corpora(),
        threshold=st.sampled_from([0.1, 1 / 3, 0.7, 1.0]),
        k=st.sampled_from([2, 3, 5, 7]),
    )
    def test_multi_code_point_codes_equal_brute_force(self, docs, threshold, k):
        # A radix of 3 spells each key of a vocabulary over 3 keys with
        # several code points, so a shingle is k codes of width >= 2.
        config = LintConfig(shingle_k=k, dup_threshold=threshold)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lint_mod, "_RADIX", 3)
            got = detect_duplication(docs, EMPTY_REG, config)
        assert got == brute_force_duplication(docs, config)

    def test_multi_code_point_codes_find_the_same_pairs(self, monkeypatch):
        docs = [
            req_doc("a", "REQ_0001", "The timer shall expire, then the cell shall stop."),
            req_doc("b", "REQ_0002", "the Timer shall expire; then the cell shall stop"),
            req_doc("b", "REQ_0003", "maxCount and maxCountNSA (42) shall hold."),
        ]
        config = LintConfig(shingle_k=3, dup_threshold=0.5)
        expected = brute_force_duplication(docs, config)
        assert [f.score for f in expected] == [1.0]
        monkeypatch.setattr(lint_mod, "_RADIX", 3)
        assert detect_duplication(docs, EMPTY_REG, config) == expected

    @pytest.mark.parametrize(
        "config, checked",
        [(LintConfig(), 10), (LintConfig(shingle_k=2, dup_threshold=0.3), 19638)],
        ids=["default", "k2-t0.3"],
    )
    def test_checks_the_pinned_candidate_pairs(self, bundle, monkeypatch, config, checked):
        # The prefix filter's candidate count on the seed-42 corpus, pinned:
        # a change to how records are built must check exactly these pairs,
        # through the module-level `jaccard` that the benchmark's tracer
        # counts as lint.L1.pairs_checked.
        calls = []
        exact = lint_mod.jaccard

        def counted(a, b):
            calls.append(None)
            return exact(a, b)

        monkeypatch.setattr(lint_mod, "jaccard", counted)
        detect_duplication(bundle.documents, bundle.registry, config)
        assert len(calls) == checked

    def test_jaccard_equal_to_threshold_is_reported(self):
        # b's 7 shingles are 7 of a's 25: Jaccard is exactly 0.28, while
        # 0.28 * 25 is 7.000000000000001, so a plain ceil would ask for 8.
        a = req_doc("a", "REQ_0001", "s0 s1 s2 s3 s4 s5 s6 s7 " + words(18, "a"))
        b = req_doc("b", "REQ_0002", "s0 s1 s2 s3 s4 s5 s6 s7.")
        config = LintConfig(shingle_k=2, dup_threshold=0.28)
        findings = detect_duplication([a, b], EMPTY_REG, config)
        assert [(f.location.requirement, f.related.requirement, f.score) for f in findings] == [
            ("REQ_0001", "REQ_0002", 0.28)
        ]


class TestLength:
    def test_short_requirement_clean(self):
        doc = req_doc("a", "REQ_0001", "The timer shall start now.")
        req = next(iter(doc.iter_requirements()))
        assert check_length("a", req, LintConfig(), analyse_versions([doc], EMPTY_LEX)) == []

    def test_over_length_reports_token_count(self):
        text = words(400)
        doc = req_doc("a", "REQ_0001", text)
        req = next(iter(doc.iter_requirements()))
        findings = check_length("a", req, LintConfig(), analyse_versions([doc], EMPTY_LEX))
        assert len(findings) == 1
        # oracle: the tokenizer's own count of the version body
        expected = len(tokenize(text))
        assert findings[0].score == float(expected)
        assert expected > 250

    def test_mixed_deployment_finding(self):
        doc = req_doc(
            "a", "REQ_0001", "Common. [SA] for sa [End SA] [NSA] for nsa [End NSA] Tail."
        )
        req = next(iter(doc.iter_requirements()))
        findings = check_length("a", req, LintConfig(), analyse_versions([doc], EMPTY_LEX))
        assert [f.rule for f in findings] == [LintRule.L2_LENGTH]
        assert "mixes SA and NSA" in findings[0].message

    def test_alternating_deployments(self):
        doc = req_doc(
            "a",
            "REQ_0001",
            "Common. [SA] one [End SA] [NSA] two [End NSA] [SA] three [End SA] Tail.",
        )
        req = next(iter(doc.iter_requirements()))
        findings = check_length("a", req, LintConfig(), analyse_versions([doc], EMPTY_LEX))
        assert len(findings) == 2
        assert any("alternates" in f.message for f in findings)

    def test_too_many_procedures(self):
        lex = build_lexicon(
            {"cell reselection": [], "beam management": [], "link adaptation": [], "timing advance": []}
        )
        doc = req_doc(
            "a",
            "REQ_0001",
            "The cell reselection and beam management and link adaptation "
            "and timing advance shall run.",
        )
        req = next(iter(doc.iter_requirements()))
        findings = check_length("a", req, LintConfig(max_procedures=3), analyse_versions([doc], lex))
        assert len(findings) == 1
        assert findings[0].score == 4.0


class TestStandardization:
    def test_alias_usage_flagged_with_suggestion(self, a2_lexicon):
        doc = req_doc("a", "REQ_0001", "The A2 measurement for Handover shall run.")
        findings = check_standardization([doc], analyse_versions([doc], a2_lexicon))
        assert len(findings) == 1
        assert "A2 measurement for Handover" in findings[0].message
        assert "'A2 measurement'" in findings[0].message

    def test_canonical_corpus_clean(self, a2_lexicon):
        doc = req_doc("a", "REQ_0001", "The A2 measurement shall run.")
        assert check_standardization([doc], analyse_versions([doc], a2_lexicon)) == []

    def test_lowercase_tag_style(self):
        doc = req_doc("a", "REQ_0001", "Text [before CB00XXXX] here.")
        findings = check_standardization([doc], analyse_versions([doc], EMPTY_LEX))
        assert len(findings) == 1
        assert "[before CB00XXXX]" in findings[0].message

    def test_spaced_deployment_tag_style(self):
        doc = req_doc("a", "REQ_0001", "Text [ SA ] here.")
        findings = check_standardization([doc], analyse_versions([doc], EMPTY_LEX))
        assert len(findings) == 1

    def test_unknown_brackets_ignored(self):
        doc = req_doc("a", "REQ_0001", "See [figure 3] and [sic] here.")
        assert check_standardization([doc], analyse_versions([doc], EMPTY_LEX)) == []

    def test_mixed_tag_styles_for_same_dev(self):
        doc = req_doc(
            "a",
            "REQ_0001",
            "[Before CB00XXXX] old [CB00XXXX] new [End CB00XXXX] and later [end CB00XXXX] text.",
        )
        findings = check_standardization([doc], analyse_versions([doc], EMPTY_LEX))
        kinds = [f.message for f in findings]
        assert any("styles" in m for m in kinds)
        assert any("[end CB00XXXX]" in m for m in kinds)


# A canonical tag as (keyword, name): "Before ", "End " or nothing before a
# development id; "End " or nothing before SA or NSA.
_TAG_PARTS = st.one_of(
    st.tuples(
        st.sampled_from(["Before ", "End ", ""]),
        st.from_regex(DEVELOPMENT_ID_PATTERN, fullmatch=True),
    ),
    st.tuples(st.sampled_from(["End ", ""]), st.sampled_from(["SA", "NSA"])),
)


def _balanced(name: str) -> tuple[str, list[str]]:
    """Content holding every tag form of `name`, balanced, and those tags in order."""
    if name.startswith("CB"):
        tags = [f"[Before {name}]", f"[{name}]", f"[End {name}]"]
        return f"p {tags[0]} q {tags[1]} r {tags[2]} s", tags
    tags = [f"[{name}]", f"[End {name}]"]
    return f"p {tags[0]} q {tags[1]} r", tags


@st.composite
def _tag_variants(draw) -> tuple[str, str]:
    """A canonical tag with its keyword, "CB", SA or NSA recased, its inner
    space widened, or spaces inside its brackets, or several of these; and
    the tag's canonical name."""
    keyword, name = draw(_TAG_PARTS)
    changes = draw(st.sets(st.sampled_from(["case", "inner", "outer"]), min_size=1))
    word = keyword.strip()
    # The six characters after "CB" may take either case in a canonical tag.
    head, tail = (name[:2], name[2:]) if name.startswith("CB") else (name, "")
    if "case" in changes:
        letters = word + head
        flips = draw(st.lists(st.booleans(), min_size=len(letters), max_size=len(letters)).filter(any))
        letters = "".join(c.swapcase() if flip else c for c, flip in zip(letters, flips))
        word, head = letters[: len(word)], letters[len(word) :]
    inner = " " * (draw(st.integers(2, 3)) if "inner" in changes else 1) if word else ""
    pads = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
    left, right = draw(pads) if "outer" in changes else (0, 0)
    variant = f"[{' ' * left}{word}{inner}{head}{tail}{' ' * right}]"
    assume(variant != f"[{keyword}{name}]")  # "inner" alone changes no bare tag
    return variant, name


class TestTagGrammar:
    """The parser, the tokenizer and L3 read the one tag grammar of `model`."""

    @given(_TAG_PARTS)
    def test_canonical_tag_is_one_token_the_parser_consumes(self, parts):
        keyword, name = parts
        tag = f"[{keyword}{name}]"
        assert tokenize(tag) == [Token(tag, TokenKind.TAG)]
        content, tags = _balanced(name)
        assert tag in tags
        assert [t.text for t in tokenize(content) if t.kind is TokenKind.TAG] == tags
        segments, errors = parse_content(content)
        assert errors == []
        plain = [s.text for s in iter_segments(tuple(segments)) if isinstance(s, PlainText)]
        assert plain and not any("[" in text for text in plain)
        outer = segments[1]
        assert (outer.dev if isinstance(outer, DevBlock) else outer.dep.value) == name

    @given(_tag_variants())
    def test_tag_variant_is_plain_text_and_an_l3_finding(self, drawn):
        variant, name = drawn
        content = f"Text {variant} here."
        assert all(t.kind is not TokenKind.TAG for t in tokenize(content))
        assert parse_content(content) == ([PlainText(content)], [])
        expected = [f"non-canonical tag style {variant!r}"]
        if name.startswith("CB"):  # next to a canonical block, the same development
            content += " " + _balanced(name)[0]
            expected.append(f"development {name.upper()} tagged in 2 styles within one requirement")
        doc = req_doc("a", "REQ_0001", content)
        findings = check_standardization([doc], analyse_versions([doc], EMPTY_LEX))
        assert [f.message for f in findings] == expected


class TestGrammar:
    def test_bad_requirement_id(self):
        # ids like "req-1" violate the grammar but must parse
        doc = req_doc("a", "req-1", "Valid text here.")
        req = next(iter(doc.iter_requirements()))
        findings = check_grammar("a", req)
        assert any("id grammar" in f.message for f in findings)

    def test_id_without_a_letter_names_the_letter_rule(self):
        """An id of digits and underscores alone is refused for having no
        letter, which the message says."""
        doc = req_doc("a", "123_456", "Valid text here.")
        findings = check_grammar("a", next(iter(doc.iter_requirements())))
        assert [f.message for f in findings] == [
            "requirement id '123_456' violates the id grammar (3-64 uppercase "
            "ASCII letters, digits and underscores, at least one a letter)"
        ]

    def test_well_formed_clean(self):
        doc = req_doc(
            "a", "REQ_0001", "[Before CB00XXXX] old. [CB00XXXX] new. [End CB00XXXX]"
        )
        req = next(iter(doc.iter_requirements()))
        assert check_grammar("a", req) == []

    def test_empty_after_part(self):
        doc = req_doc("a", "REQ_0001", "[Before CB00XXXX] old. [CB00XXXX] [End CB00XXXX]")
        req = next(iter(doc.iter_requirements()))
        findings = check_grammar("a", req)
        assert len(findings) == 1
        assert "empty after-part" in findings[0].message

    def test_lowercase_dev_id(self):
        doc = req_doc("a", "REQ_0001", "[Before CB00xxaa] old. [CB00xxaa] new. [End CB00xxaa]")
        req = next(iter(doc.iter_requirements()))
        findings = check_grammar("a", req)
        assert any("lowercase" in f.message for f in findings)

    def test_missing_terminal_punctuation(self):
        doc = req_doc("a", "REQ_0001", "This version never ends")
        req = next(iter(doc.iter_requirements()))
        findings = check_grammar("a", req)
        assert any("terminal punctuation" in f.message for f in findings)


class TestDispersion:
    def _four_sections(self, lex):
        docs = [
            doc_from(
                "a",
                "# S1\n\n=== REQ REQ_0001 ===\n--- VERSION first=01R1 last=open ---\n"
                "The beam management shall run.\n=== END ===\n\n"
                "# S2\n\n=== REQ REQ_0002 ===\n--- VERSION first=01R1 last=open ---\n"
                "The beam management shall stop.\n=== END ===\n",
            ),
            doc_from(
                "b",
                "# S3\n\n=== REQ REQ_0003 ===\n--- VERSION first=01R1 last=open ---\n"
                "The beam management shall pause.\n=== END ===\n\n"
                "# S4\n\n=== REQ REQ_0004 ===\n--- VERSION first=01R1 last=open ---\n"
                "The beam management shall resume.\n=== END ===\n",
            ),
        ]
        return docs

    def test_dispersed_procedure_single_finding_with_locations(self):
        lex = build_lexicon({"beam management": []})
        docs = self._four_sections(lex)
        findings = check_dispersion(docs, analyse_versions(docs, lex), LintConfig())
        assert len(findings) == 1
        assert findings[0].score == 4.0
        for section in ("S1", "S2", "S3", "S4"):
            assert section in findings[0].message

    def test_single_section_clean(self):
        lex = build_lexicon({"beam management": []})
        doc = req_doc("a", "REQ_0001", "The beam management shall run.")
        assert check_dispersion([doc], analyse_versions([doc], lex), LintConfig()) == []

    def test_empty_lexicon_no_findings(self):
        docs = self._four_sections(None)
        assert check_dispersion(docs, analyse_versions(docs, EMPTY_LEX), LintConfig()) == []


class TestLintCorpus:
    def test_pristine_corpus_empty(self):
        doc = req_doc("a", "REQ_0001", "The timer shall start now.")
        assert lint_corpus([doc], EMPTY_REG, EMPTY_LEX, LintConfig()) == []

    def test_deterministic(self, bundle):
        config = LintConfig()
        first = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, config)
        second = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, config)
        assert first == second

    def test_each_version_analysed_once(self, bundle, monkeypatch):
        config = LintConfig(max_tokens=40, max_procedures=1, max_sections=1)
        expected = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, config)
        calls = {"tokenize": 0, "find_mentions": 0}
        canonicals = set()

        def counted_tokenize(text):
            calls["tokenize"] += 1
            return tokenize(text)

        def counted_find_mentions(tokens, lexicon):
            calls["find_mentions"] += 1
            mentions = find_mentions(tokens, lexicon)
            canonicals.update(m.canonical for m in mentions)
            return mentions

        monkeypatch.setattr(lint_mod, "tokenize", counted_tokenize)
        monkeypatch.setattr(lint_mod, "find_mentions", counted_find_mentions)
        findings = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, config)

        versions = sum(
            len(req.versions) for doc in bundle.documents for req in doc.iter_requirements()
        )
        assert findings == expected
        assert canonicals
        assert calls["find_mentions"] == versions
        # written text per version, L1's resolved text per version and once
        # more for each version in an L1 finding (for its identifiers), and
        # each canonical name mentioned
        duplicated = {
            loc
            for f in findings
            if f.rule is LintRule.L1_DUPLICATION
            for loc in (f.location, f.related)
        }
        assert 0 < len(duplicated) < versions
        assert calls["tokenize"] == 2 * versions + len(duplicated) + len(canonicals)

    def test_rule_disabling(self, bundle):
        config = LintConfig(enabled=frozenset({LintRule.L2_LENGTH}))
        findings = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, config)
        assert {f.rule for f in findings} == {LintRule.L2_LENGTH}

    def test_ordering_key(self, bundle):
        findings = lint_corpus(bundle.documents, bundle.registry, bundle.lexicon, LintConfig())
        keys = [
            (f.location.document, f.location.requirement, f.rule.value, f.location.version, f.message)
            for f in findings
        ]
        assert keys == sorted(keys)


class TestLintConfig:
    def test_defaults(self):
        config = LintConfig()
        assert (config.shingle_k, config.dup_threshold) == (5, 0.7)
        assert (config.max_tokens, config.max_procedures, config.max_sections) == (250, 3, 2)

    def test_from_json_overrides(self):
        config = LintConfig.from_json(
            '{"shingle_k": 3, "dup_threshold": 0.9, "rules": {"L5": false}}'
        )
        assert config.shingle_k == 3
        assert config.dup_threshold == 0.9
        assert LintRule.L5_DISPERSION not in config.enabled
        assert LintRule.L1_DUPLICATION in config.enabled

    @pytest.mark.parametrize(
        "bad",
        [
            '{"shingle_k": 1}',
            '{"dup_threshold": 0}',
            '{"dup_threshold": 1.5}',
            '{"dup_threshold": true}',
            '{"max_tokens": 0}',
            '{"max_sections": 0}',
            '{"rules": {"L9": true}}',
            '{"rules": {"L1": "yes"}}',
            '{"unknown_key": 1}',
            '["not an object"]',
        ],
    )
    def test_rejects_bad_config(self, bad):
        with pytest.raises(ValueError):
            LintConfig.from_json(bad)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("shingle_k", 2.5, "shingle_k must be an integer"),
            ("shingle_k", True, "shingle_k must be an integer"),
            ("max_tokens", "250", "max_tokens must be an integer"),
            ("max_procedures", 3.0, "max_procedures must be an integer"),
            ("max_sections", False, "max_sections must be an integer"),
            ("dup_threshold", True, "dup_threshold must be a number"),
            ("dup_threshold", "0.7", "dup_threshold must be a number"),
            ("dup_threshold", float("nan"), "dup_threshold must be in (0, 1]"),
            ("enabled", frozenset({"L1"}), "enabled frozenset({'L1'}) is not a frozenset of LintRule"),
            ("enabled", {LintRule.L1_DUPLICATION}, "} is not a frozenset of LintRule"),
        ],
    )
    def test_constructor_checks_each_field(self, field, value, message):
        with pytest.raises(ValueError) as raised:
            LintConfig(**{field: value})
        assert message in str(raised.value)

    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"shingle_k": 2.5}', "shingle_k must be an integer"),
            ('{"max_tokens": true}', "max_tokens must be an integer"),
            ('{"dup_threshold": true}', "dup_threshold must be a number"),
            ('{"dup_threshold": "0.7"}', "dup_threshold must be a number"),
        ],
    )
    def test_from_json_keeps_the_messages(self, config, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LintConfig.from_json(config)

    def test_integer_threshold_from_json(self):
        assert LintConfig.from_json('{"dup_threshold": 1}') == LintConfig(dup_threshold=1.0)
