import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import speckit.resolver
from speckit.dataset import extract_release_dataset
from speckit.errors import DevelopmentNotPresentError, UnknownDevelopmentError
from speckit.generator import RELEASES
from speckit.model import (
    TAG_RE,
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
    release_universe,
    version_at,
)
from speckit.resolver import (
    _SENTENCE_MAXSIZE,
    DiffKind,
    DiffSegment,
    _sentences,
    _unchanged,
    baseline,
    diff_behavior,
    diff_texts,
    lcs_diff,
    materialize,
    resolve_details,
    resolve_runs,
    split_sentences,
)
from support import (
    DEV_IDS,
    RELEASES as TREE_RELEASES,
    clear_intern_tables,
    diff_inputs,
    random_tagged_requirement,
    reference_diff_texts,
    reference_lcs_diff,
    reference_sentences,
    registries,
    segment_trees,
    universes,
    versioned_requirements,
)


def rel(text: str) -> ReleaseId:
    return ReleaseId.parse(text)


def oracle_resolve(segments, r, dep, registry) -> str:
    """Independent interpreter: iterative worklist over the segment tree."""
    out: list[str] = []
    work = list(segments)
    while work:
        seg = work.pop(0)
        if isinstance(seg, PlainText):
            out.append(seg.text)
        elif isinstance(seg, DevBlock):
            chosen = seg.after if registry.entries[seg.dev] <= r else seg.before
            work = list(chosen) + work
        elif isinstance(seg, DeploymentSpan):
            if dep is None or seg.dep is dep:
                work = list(seg.body) + work
    return " ".join(out)


CB_EXAMPLE = (
    PlainText("u"),
    DevBlock("CB00XXXX", (PlainText("old"),), (PlainText("new"),)),
    PlainText("v"),
)


@pytest.fixture()
def cb_req():
    return Requirement(
        id="REQ_0001",
        versions=(RequirementVersion(rel("01R1"), None, CB_EXAMPLE),),
    )


@pytest.fixture()
def cb_registry():
    return DevelopmentRegistry({"CB00XXXX": rel("01R2")})


class TestMaterialize:
    def test_before_activation(self, cb_req, cb_registry):
        resolved = materialize(cb_req, rel("01R1"), None, cb_registry)
        assert resolved.text == "u old v"
        assert resolved.contributing_devs == frozenset()

    def test_after_activation(self, cb_req, cb_registry):
        resolved = materialize(cb_req, rel("01R2"), None, cb_registry)
        assert resolved.text == "u new v"
        assert resolved.contributing_devs == {"CB00XXXX"}

    def test_tag_free_content_unchanged(self, cb_registry):
        req = Requirement(
            id="REQ_0002",
            versions=(
                RequirementVersion(rel("01R1"), None, (PlainText("Stable text."),)),
            ),
        )
        for r in RELEASES:
            assert materialize(req, r, None, cb_registry).text == "Stable text."

    def test_none_outside_validity(self, cb_registry):
        req = Requirement(
            id="REQ_0003",
            versions=(
                RequirementVersion(rel("01R2"), None, (PlainText("Later text."),)),
            ),
        )
        assert materialize(req, rel("01R1"), None, cb_registry) is None

    def test_unknown_development_raises(self, cb_req):
        with pytest.raises(UnknownDevelopmentError):
            materialize(cb_req, rel("01R1"), None, DevelopmentRegistry({}))

    def test_deployment_filtering(self, cb_registry):
        content = (
            PlainText("common"),
            DeploymentSpan(DeploymentType.SA, (PlainText("sa only"),)),
            DeploymentSpan(DeploymentType.NSA, (PlainText("nsa only"),)),
        )
        req = Requirement(
            id="REQ_0004",
            versions=(RequirementVersion(rel("01R1"), None, content),),
        )
        both = materialize(req, rel("01R1"), None, cb_registry)
        sa = materialize(req, rel("01R1"), DeploymentType.SA, cb_registry)
        nsa = materialize(req, rel("01R1"), DeploymentType.NSA, cb_registry)
        assert both.text == "common sa only nsa only"
        assert sa.text == "common sa only"
        assert nsa.text == "common nsa only"

    def test_matches_oracle_on_random_requirements(self):
        rng = random.Random(31)
        for i in range(100):
            req, entries = random_tagged_requirement(
                rng, f"REQ_{i:04d}", rng.randrange(1, 4)
            )
            registry = DevelopmentRegistry(entries)
            for r in RELEASES:
                for dep in (None, DeploymentType.SA, DeploymentType.NSA):
                    version = version_at(req, r)
                    expected = oracle_resolve(version.content, r, dep, registry)
                    assert materialize(req, r, dep, registry).text == expected

    def test_no_tag_in_resolved_text(self):
        rng = random.Random(37)
        for i in range(100):
            req, entries = random_tagged_requirement(rng, f"REQ_{i:04d}", 3)
            registry = DevelopmentRegistry(entries)
            for r in RELEASES:
                text = materialize(req, r, None, registry).text
                assert not TAG_RE.search(text)

    def test_monotonic_activation(self):
        rng = random.Random(41)
        for i in range(50):
            req, entries = random_tagged_requirement(rng, f"REQ_{i:04d}", 2)
            registry = DevelopmentRegistry(entries)
            for dev, introduced in entries.items():
                later = [r for r in RELEASES if r >= introduced]
                texts = {materialize(req, r, None, registry).text for r in later}
                devs = {
                    dev in materialize(req, r, None, registry).contributing_devs
                    for r in later
                }
                assert devs == {True}
                del texts  # same selected version here, so text equality follows


class TestBaseline:
    def test_fig_transition(self, cb_req, cb_registry):
        based = baseline(cb_req, "CB00XXXX", cb_registry, universe=list(RELEASES))
        assert len(based.versions) == 2
        closed, fresh = based.versions
        assert (closed.first_release, closed.last_release) == (rel("01R1"), rel("01R1"))
        assert closed.content == CB_EXAMPLE  # tags intact in the closed version
        assert (fresh.first_release, fresh.last_release) == (rel("01R2"), None)
        assert fresh.content == (PlainText("u new v"),)  # tags gone, text inline

    def test_missing_dev_block(self, cb_req, cb_registry):
        reg = DevelopmentRegistry(
            {"CB00XXXX": rel("01R2"), "CB00YYYY": rel("01R2")}
        )
        with pytest.raises(DevelopmentNotPresentError):
            baseline(cb_req, "CB00YYYY", reg, universe=list(RELEASES))

    def test_unregistered_dev(self, cb_req):
        with pytest.raises(UnknownDevelopmentError):
            baseline(cb_req, "CB00XXXX", DevelopmentRegistry({}), universe=list(RELEASES))

    def test_equivalence_after_baselining(self, cb_req, cb_registry):
        based = baseline(cb_req, "CB00XXXX", cb_registry, universe=list(RELEASES))
        for r in RELEASES:
            for dep in (None, DeploymentType.SA, DeploymentType.NSA):
                a = materialize(cb_req, r, dep, cb_registry)
                b = materialize(based, r, dep, cb_registry)
                assert a.text == b.text

    def test_no_preceding_release_rejected(self, cb_req):
        reg = DevelopmentRegistry({"CB00XXXX": rel("01R1")})
        with pytest.raises(ValueError):
            baseline(cb_req, "CB00XXXX", reg, universe=list(RELEASES))


# Texts made of words, marks and whitespace runs: newlines, tabs, double
# spaces, doubled marks, and marks or whitespace at either end.
_SPLIT_TEXTS = st.one_of(
    st.text(alphabet="ab.; \n\t", max_size=20),
    st.lists(
        st.sampled_from(["a", "b1", ".", ";", "..", ";;", " ", "  ", "\n", "\t", " \t\n"]),
        max_size=10,
    ).map("".join),
)


class TestSentenceSplit:
    def test_split_on_period_and_semicolon(self):
        assert split_sentences("First step. Second step; third step.") == [
            "First step.",
            "Second step;",
            "third step.",
        ]

    def test_decimals_not_split(self):
        assert split_sentences("Use value 3.5 here.") == ["Use value 3.5 here."]

    def test_empty(self):
        assert split_sentences("") == []

    @settings(max_examples=1000)
    @given(_SPLIT_TEXTS)
    @example("a..  b;;\tc.\n")
    @example(" . ;a")
    @example("a. \n\t b;")
    @example(";")
    def test_equals_look_behind_split(self, text):
        """The mark-capturing split, re-joined, gives the look-behind split's sentences."""
        want = reference_sentences(text)
        assert list(_sentences.__wrapped__(text)) == want
        assert split_sentences(text) == want


def oracle_lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return oracle_lcs_length(a[:-1], b[:-1]) + 1
    return max(oracle_lcs_length(a[:-1], b), oracle_lcs_length(a, b[:-1]))


class TestLcsDiff:
    def test_alignment_is_maximal(self):
        rng = random.Random(43)
        pool = list("abcdef")
        for _ in range(60):
            a = [rng.choice(pool) for _ in range(rng.randrange(7))]
            b = [rng.choice(pool) for _ in range(rng.randrange(7))]
            segments = lcs_diff(a, b)
            unchanged = [s.text for s in segments if s.kind is DiffKind.UNCHANGED]
            assert len(unchanged) == oracle_lcs_length(a, b)
            removed = [s.text for s in segments if s.kind is DiffKind.REMOVED]
            added = [s.text for s in segments if s.kind is DiffKind.ADDED]
            assert sorted(removed + unchanged) == sorted(a)
            assert sorted(added + unchanged) == sorted(b)

    def test_swap_symmetry(self):
        rng = random.Random(47)
        pool = list("abcd")
        for _ in range(200):
            a = [rng.choice(pool) for _ in range(rng.randrange(8))]
            b = [rng.choice(pool) for _ in range(rng.randrange(8))]
            ab = lcs_diff(a, b)
            ba = lcs_diff(b, a)
            assert [s.text for s in ab if s.kind is DiffKind.ADDED] == [
                s.text for s in ba if s.kind is DiffKind.REMOVED
            ]
            assert [s.text for s in ab if s.kind is DiffKind.REMOVED] == [
                s.text for s in ba if s.kind is DiffKind.ADDED
            ]


def _sentence_list_pairs(alphabet_size: int):
    sentences = st.lists(st.sampled_from("xyzw"[:alphabet_size]), max_size=12)
    return st.tuples(sentences, sentences)


# Sentence lists over 2 to 4 distinct sentences: repeats are the hard case for
# peeling equal ends.
_SMALL_ALPHABET_PAIRS = st.integers(2, 4).flatmap(_sentence_list_pairs)


@st.composite
def _shaped_pairs(draw):
    """Sentence lists with equal ends around two middles that share nothing,
    share sentences in one order or in crossed orders, and with a sentence
    repeated on either side, or on neither."""
    pool = [f"s{i}." for i in range(20)]
    distinct = draw(st.permutations(pool))
    head, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    prefix, suffix = distinct[:head], distinct[head : head + tail]
    rest = distinct[head + tail :]
    middle_a = draw(st.lists(st.sampled_from(rest[:4]), max_size=4, unique=True))
    middle_b = draw(st.lists(st.sampled_from(rest[4:8]), max_size=4, unique=True))
    shared = draw(st.lists(st.sampled_from(rest[8:]), max_size=3, unique=True))
    for sentence in shared:  # a shared sentence at any position of each middle
        middle_a.insert(draw(st.integers(0, len(middle_a))), sentence)
        middle_b.insert(draw(st.integers(0, len(middle_b))), sentence)
    a, b = prefix + middle_a + suffix, prefix + middle_b + suffix
    for side in draw(st.sampled_from(["", "a", "b", "ab"])):
        sentences = a if side == "a" else b
        if sentences:  # repeat one of its sentences somewhere on it
            repeated = draw(st.sampled_from(sentences))
            sentences.insert(draw(st.integers(0, len(sentences))), repeated)
    return a, b


class TestTrimmedLcsDiff:
    """`lcs_diff` peels equal ends before its table; the output must not change."""

    @settings(max_examples=1000)
    @given(_SMALL_ALPHABET_PAIRS)
    @example((["x", "x"], ["x"]))
    @example((["x", "y", "x"], ["x", "z"]))
    @example((["x", "y"], ["x", "y", "x"]))
    @example((["x", "x", "x"], ["x", "x", "x"]))
    def test_equals_untrimmed_reference(self, pair):
        a, b = pair
        assert lcs_diff(a, b) == reference_lcs_diff(a, b)

    @settings(max_examples=1000)
    @given(_shaped_pairs())
    @example((["s0.", "s1.", "s2."], ["s0.", "s3.", "s2."]))  # disjoint 1 x 1 middle
    @example((["s1.", "s9.", "s2."], ["s3.", "s9.", "s4."]))  # one shared middle sentence
    @example((["s1.", "s2.", "s3."], ["s3.", "s2.", "s1."]))  # crossed shared sentences
    @example((["s1.", "s1.", "s2."], ["s3.", "s1."]))  # a repeat on one side
    def test_shaped_pairs_equal_untrimmed_reference(self, pair):
        """Disjoint middles, shared middle sentences and repeats, with and
        without `a`'s unchanged segments given."""
        a, b = pair
        want = reference_lcs_diff(a, b)
        assert lcs_diff(a, b) == want
        unchanged = tuple(DiffSegment(DiffKind.UNCHANGED, s) for s in a)
        assert lcs_diff(a, b, unchanged) == want

    def test_unchanged_sentences_are_the_given_segments(self):
        """Every unchanged segment is the item of `a`'s given diff with itself."""
        a = ["s0.", "s1.", "s2.", "s3.", "s4."]
        b = ["s0.", "x.", "s2.", "y.", "s4."]
        unchanged = tuple(DiffSegment(DiffKind.UNCHANGED, s) for s in a)
        got = lcs_diff(a, b, unchanged)
        assert got == reference_lcs_diff(a, b)
        kept = [s for s in got if s.kind is DiffKind.UNCHANGED]
        assert [id(s) for s in kept] == [id(unchanged[i]) for i in (0, 2, 4)]

    def test_disjoint_and_anchored_middles_fill_no_table(self, monkeypatch):
        """Each gap between shared middle sentences is diffed alone, with no table."""
        filled = []
        table_diff = speckit.resolver._table_diff

        def recording(a, b):
            if not set(a).isdisjoint(b):
                filled.append((a, b))
            return table_diff(a, b)

        monkeypatch.setattr(speckit.resolver, "_table_diff", recording)
        for a, b in (
            (["s0.", "s1.", "s2."], ["s0.", "s3.", "s2."]),
            (["s1.", "s9.", "s2.", "s8."], ["s3.", "s9.", "s8.", "s4."]),
        ):
            assert lcs_diff(a, b) == reference_lcs_diff(a, b)
        assert filled == []
        crossed = (["s1.", "s2.", "s3."], ["s3.", "s2.", "s1."])
        assert lcs_diff(*crossed) == reference_lcs_diff(*crossed)
        assert filled == [crossed]

    def test_repeated_first_sentence_is_not_peeled(self):
        assert lcs_diff(["x", "x"], ["x"]) == [
            DiffSegment(DiffKind.REMOVED, "x"),
            DiffSegment(DiffKind.UNCHANGED, "x"),
        ]

    @pytest.mark.parametrize("changed", [0, 1000, 1999])
    def test_one_changed_sentence_builds_a_one_cell_table(self, monkeypatch, changed):
        """Two 2,000-sentence lists that differ in one sentence fill no 2,000 x 2,000 table."""
        sizes = []
        table_diff = speckit.resolver._table_diff

        def recording(a, b):
            sizes.append((len(a), len(b)))
            return table_diff(a, b)

        monkeypatch.setattr(speckit.resolver, "_table_diff", recording)
        a = [f"Step {i}." for i in range(2000)]
        b = a[:changed] + ["Another step."] + a[changed + 1 :]
        got = lcs_diff(a, b)
        assert sizes == [(1, 1)]
        assert got == (
            [DiffSegment(DiffKind.UNCHANGED, s) for s in a[:changed]]
            + reference_lcs_diff(a[changed : changed + 1], b[changed : changed + 1])
            + [DiffSegment(DiffKind.UNCHANGED, s) for s in a[changed + 1 :]]
        )


class TestDiffBehavior:
    def test_identity(self, cb_req, cb_registry):
        diff = diff_behavior(cb_req, rel("01R1"), rel("01R1"), None, cb_registry)
        assert not diff.has_changes
        assert diff.causes == frozenset()

    def test_cb_example(self, cb_req, cb_registry):
        diff = diff_behavior(cb_req, rel("01R1"), rel("01R2"), None, cb_registry)
        assert diff.removed() == ["u old v"]
        assert diff.added() == ["u new v"]
        assert diff.causes == {"CB00XXXX"}

    def test_whole_text_added_when_introduced(self, cb_registry):
        req = Requirement(
            id="REQ_0005",
            versions=(
                RequirementVersion(rel("01R2"), None, (PlainText("New rule."),)),
            ),
        )
        diff = diff_behavior(req, rel("01R1"), rel("01R2"), None, cb_registry)
        assert diff.added() == ["New rule."]
        assert diff.removed() == []

    def test_causes_exclude_devs_in_filtered_spans(self, cb_registry):
        content = (
            PlainText("common"),
            DeploymentSpan(
                DeploymentType.NSA,
                (DevBlock("CB00XXXX", (PlainText("old"),), (PlainText("new"),)),),
            ),
        )
        req = Requirement(
            id="REQ_0006",
            versions=(RequirementVersion(rel("01R1"), None, content),),
        )
        diff = diff_behavior(
            req, rel("01R1"), rel("01R2"), DeploymentType.SA, cb_registry
        )
        assert not diff.has_changes
        assert diff.causes == frozenset()


class TestDiffTexts:
    @settings(max_examples=300)
    @given(diff_inputs())
    def test_equals_always_lcs_reference(self, args):
        clear_intern_tables()
        want = reference_diff_texts(*args)
        assert diff_texts(*args) == want
        assert diff_texts(*args) == want
        for _ in range(2):  # unchanged segments from the table: filled, then read
            assert diff_texts(*args, memo=True) == want

    def test_equals_reference_after_eviction(self):
        registry = {"CB00XXXX": rel("01R2")}

        def check(text_a, text_b):
            args = ("REQ_0001", rel("01R1"), rel("01R2"), text_a, text_b,
                    frozenset(registry), frozenset(), registry)
            assert diff_texts(*args) == reference_diff_texts(*args)

        texts = [f"Step {i}. Then {i + 1};" for i in range(_SENTENCE_MAXSIZE + 1)]
        clear_intern_tables()
        for text_a, text_b in zip(texts, texts[1:]):
            check(text_a, text_a)
            check(text_a, text_b)
        for table in (_sentences, _unchanged):
            assert table.cache_info().currsize == _SENTENCE_MAXSIZE
        # The first text was evicted from both tables; it is split again, equal.
        check(texts[0], texts[0])
        check(texts[0], texts[-1])

    def test_mutating_a_split_changes_no_later_answer(self):
        text = "First step. Second step;"
        split_sentences(text).append("third step.")
        split_sentences(text).clear()
        assert split_sentences(text) == ["First step.", "Second step;"]
        args = ("REQ_0001", rel("01R1"), rel("01R2"), text, text, frozenset(), frozenset(), {})
        assert diff_texts(*args) == reference_diff_texts(*args)

    def test_equal_texts_unchanged_without_causes(self):
        registry = {"CB00XXXX": rel("01R2")}
        text = "a. a. b;"
        diff = diff_texts(
            "REQ_0001", rel("01R1"), rel("01R2"), text, text,
            frozenset(registry), frozenset(registry), registry,
        )
        assert [(s.kind, s.text) for s in diff.segments] == [
            (DiffKind.UNCHANGED, "a."), (DiffKind.UNCHANGED, "a."), (DiffKind.UNCHANGED, "b;")
        ]
        assert diff.causes == frozenset()


class TestResolutionPurity:
    @settings(max_examples=200, deadline=None)
    @given(
        segment_trees(),
        segment_trees(),
        st.tuples(*(st.sampled_from(TREE_RELEASES) for _ in DEV_IDS)),
    )
    def test_no_tag_in_resolved_text_or_dataset(self, closed, open_, dev_releases):
        registry = DevelopmentRegistry(dict(zip(DEV_IDS, dev_releases)))
        first, second = TREE_RELEASES[:2]
        req = Requirement(
            id="REQ_0001",
            versions=(
                RequirementVersion(first, first, closed),
                RequirementVersion(second, None, open_),
            ),
            section_path=("S",),
        )
        docs = [SpecDocument(name="d", sections=(Section("S", (req,)),))]
        for r in release_universe(docs, registry):
            for dep in (None, DeploymentType.SA, DeploymentType.NSA):
                text, _, _ = resolve_details(req, r, dep, registry)
                assert not TAG_RE.search(text), (r, dep, text)
            [(_, record)] = extract_release_dataset(docs, r, registry, min_tokens=0).records
            assert not TAG_RE.search(record), (r, record)


class TestResolveRuns:
    @settings(max_examples=200, deadline=None)
    @given(versioned_requirements(), universes(), registries())
    def test_runs_cover_valid_releases_with_direct_resolution(self, req, universe, registry):
        valid = [r for r in universe if version_at(req, r) is not None]
        for dep in (None, DeploymentType.SA, DeploymentType.NSA):
            runs = list(resolve_runs(req, universe, dep, registry))
            covered = []
            for first, last, text, contributing, seen in runs:
                assert first <= last
                assert not covered or covered[-1] < first
                members = [r for r in universe if first <= r <= last]
                assert members[0] == first and members[-1] == last
                covered += members
                for r in members:
                    assert resolve_details(req, r, dep, registry) == (text, contributing, seen)
            assert covered == valid

    def test_run_ends_at_version_end_and_dev_introduction(self):
        registry = DevelopmentRegistry({"CB00XXXX": rel("01R3")})
        req = Requirement(
            id="REQ_0001",
            versions=(
                RequirementVersion(rel("01R1"), rel("01R1"), (PlainText("a"),)),
                RequirementVersion(rel("01R2"), None, CB_EXAMPLE),
            ),
        )
        universe = [rel(r) for r in ("01R1", "01R2", "01R3", "01R4")]
        runs = [
            (str(first), str(last), text, contributing, seen)
            for first, last, text, contributing, seen in resolve_runs(req, universe, None, registry)
        ]
        assert runs == [
            ("01R1", "01R1", "a", set(), set()),
            ("01R2", "01R2", "u old v", set(), {"CB00XXXX"}),
            ("01R3", "01R4", "u new v", {"CB00XXXX"}, {"CB00XXXX"}),
        ]
