import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speckit.model import (
    RELEASE_ID_RE,
    DeploymentSpan,
    DeploymentType,
    DevBlock,
    PlainText,
    ReleaseId,
    Requirement,
    RequirementVersion,
    Section,
    compare_releases,
    is_valid_development_id,
    is_valid_requirement_id,
    iter_dev_ids,
    iter_segments,
    previous_release,
    version_at,
)


def rel(text: str) -> ReleaseId:
    return ReleaseId.parse(text)


def ver(first: str, last: str | None, text: str = "Some content.") -> RequirementVersion:
    return RequirementVersion(
        first_release=rel(first),
        last_release=None if last is None else rel(last),
        content=(PlainText(text),),
    )


class TestReleaseId:
    def test_render_round_trip(self):
        assert str(rel("01R1")) == "01R1"
        assert str(rel("02R10")) == "02R10"
        assert rel("01R1") == ReleaseId(1, 1)

    @pytest.mark.parametrize(
        "bad", ["1R1", "01r1", "01R0", "R1", "01R", "a1R1", "01R1x", "01R01", "01R00"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            rel(bad)

    def test_fields_are_read_only(self):
        r = rel("01R2")
        for name in ("major", "revision", "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, 3)
        assert (r.major, r.revision) == (1, 2)

    def test_repr_and_constructor_messages(self):
        assert repr(rel("02R10")) == "ReleaseId(major=2, revision=10)"
        for args, message in [
            ((100, 1), "release major out of range: 100"),
            ((-1, 1), "release major out of range: -1"),
            ((1, 0), "release revision must be positive: 0"),
        ]:
            with pytest.raises(ValueError) as raised:
                ReleaseId(*args)
            assert str(raised.value) == message

    def test_order_and_hash_are_tuples_own(self):
        """Compared and hashed by tuple's C slots, not by Python methods."""
        for name in ("__lt__", "__le__", "__eq__", "__gt__", "__ge__", "__hash__"):
            assert getattr(ReleaseId, name) is getattr(tuple, name), name

    def test_copy_and_pickle_keep_the_type(self):
        r = rel("02R10")
        for again in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(again) is ReleaseId and again == r

    @given(st.integers(0, 99), st.integers(1, 10**4), st.integers(0, 99), st.integers(1, 10**4))
    def test_order_and_hash_match_pair_oracle(self, major_a, rev_a, major_b, rev_b):
        a, b = ReleaseId(major_a, rev_a), ReleaseId(major_b, rev_b)
        key_a, key_b = (major_a, rev_a), (major_b, rev_b)
        assert (a < b) == (key_a < key_b)
        assert (a <= b) == (key_a <= key_b)
        assert (a == b) == (key_a == key_b)
        assert hash(a) == hash(key_a)

    @given(st.one_of(
        st.from_regex(RELEASE_ID_RE, fullmatch=True),
        st.text(alphabet="019R", max_size=6),
    ))
    def test_accepted_id_has_one_spelling(self, text):
        """`str` inverts `parse` on every id `parse` accepts."""
        try:
            r = ReleaseId.parse(text)
        except ValueError:
            return
        assert str(r) == text

    def test_successive_revisions_compare(self):
        # 01R2 succeeds 01R1
        assert compare_releases(rel("01R1"), rel("01R2")) == -1

    def test_reflexive(self):
        assert compare_releases(rel("01R1"), rel("01R1")) == 0

    def test_major_dominates_revision(self):
        # oracle: integer comparison on parsed (major, revision) pairs
        a, b = rel("02R1"), rel("01R9")
        assert ((a.major, a.revision) > (b.major, b.revision)) is True
        assert compare_releases(a, b) == 1

    def test_total_order_properties(self):
        rng = random.Random(1)
        releases = [ReleaseId(rng.randrange(0, 100), rng.randrange(1, 30)) for _ in range(60)]
        for a in releases:
            for b in releases:
                c_ab, c_ba = compare_releases(a, b), compare_releases(b, a)
                assert c_ab == -c_ba  # antisymmetry
                assert (c_ab == 0) == (a == b)
                for c in releases:  # transitivity
                    if c_ab <= 0 and compare_releases(b, c) <= 0:
                        assert compare_releases(a, c) <= 0

    def test_previous_release(self):
        universe = [rel("01R1"), rel("01R2"), rel("02R1")]
        assert previous_release(universe, rel("02R1")) == rel("01R2")
        assert previous_release(universe, rel("01R1")) is None
        # bisect edges: not in the universe, before the first, after the last
        assert previous_release(universe, rel("01R5")) == rel("01R2")
        assert previous_release(universe, rel("00R3")) is None
        assert previous_release(universe, rel("03R1")) == rel("02R1")


class TestIdGrammar:
    """Each id is ASCII and matched whole: no other script's digits, and no
    final newline."""

    @pytest.mark.parametrize(
        "bad", ["01R1\n", "\u0660\u0661R\u0661", "01R\u0661", "\uff10\uff11R1", "01R1\n\n"]
    )
    def test_release_id_refused(self, bad):
        with pytest.raises(ValueError, match="malformed release id"):
            rel(bad)

    def test_development_id(self):
        assert is_valid_development_id("CB000001")
        for bad in ("CB000001\n", "CB00000\u0661", " CB000001", "CB0000011"):
            assert not is_valid_development_id(bad), bad

    def test_requirement_id(self):
        assert is_valid_requirement_id("REQ_0001")
        for bad in ("REQ_0001\n", "REQ_000\u0661", "123_456", "REQ_0001 "):
            assert not is_valid_requirement_id(bad), bad


class TestVersionAt:
    def test_two_versions(self):
        req = Requirement(id="REQ_001", versions=(ver("01R1", "01R1"), ver("01R2", None)))
        assert version_at(req, rel("01R2")) is req.versions[1]
        assert version_at(req, rel("01R1")) is req.versions[0]

    def test_single_open_version(self):
        req = Requirement(id="REQ_001", versions=(ver("01R1", None),))
        assert version_at(req, rel("01R1")) is req.versions[0]

    def test_before_first_release(self):
        # oracle: range membership; 01R1 < 01R2 so no version contains it
        req = Requirement(id="REQ_001", versions=(ver("01R2", None),))
        assert version_at(req, rel("01R1")) is None

    def test_at_most_one_version_matches(self):
        rng = random.Random(5)
        universe = [ReleaseId(1, i) for i in range(1, 9)]
        for _ in range(100):
            cut = sorted(rng.sample(range(8), 2))
            req = Requirement(
                id="REQ_002",
                versions=(
                    ver(str(universe[0]), str(universe[cut[0]])),
                    ver(str(universe[cut[0] + 1]), str(universe[cut[1]]) if cut[1] > cut[0] else None),
                ),
            )
            for r in universe:
                matches = [v for v in req.versions if v.contains(r)]
                assert len(matches) <= 1
                assert version_at(req, r) == (matches[0] if matches else None)


class TestIterSegments:
    def test_pre_order_parts_in_document_order(self):
        a, b, c, d = (PlainText(t) for t in "abcd")
        span = DeploymentSpan(DeploymentType.NSA, (b,))
        block = DevBlock("CB000001", (span,), (c,))
        outer = DeploymentSpan(DeploymentType.SA, (block, d))
        assert list(iter_segments((a, outer))) == [a, outer, block, span, b, c, d]
        assert list(iter_dev_ids((a, outer))) == ["CB000001"]


SA_SPAN = DeploymentSpan(DeploymentType.SA, (PlainText("x"),))
NSA_SPAN = DeploymentSpan(DeploymentType.NSA, (PlainText("y"),))


class TestInvariants:
    def test_overlapping_versions_rejected(self):
        with pytest.raises(ValueError):
            Requirement(id="REQ_001", versions=(ver("01R1", None), ver("01R2", None)))

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            ver("01R2", "01R1")

    def test_empty_versions_rejected(self):
        with pytest.raises(ValueError):
            Requirement(id="REQ_001", versions=())

    def test_nested_dev_block_rejected(self):
        inner = DevBlock("CB000001", (PlainText("a"),), (PlainText("b"),))
        with pytest.raises(ValueError, match="must not nest DevBlocks"):
            DevBlock("CB000002", (inner,), (PlainText("c"),))

    def test_nested_dev_block_inside_span_rejected(self):
        inner = DevBlock("CB000001", (PlainText("a"),), (PlainText("b"),))
        span = DeploymentSpan(DeploymentType.SA, (inner,))
        with pytest.raises(ValueError, match="must not nest DevBlocks"):
            DevBlock("CB000002", (span,), (PlainText("c"),))

    def test_same_type_span_nesting_rejected(self):
        bodies = [
            (SA_SPAN,),
            # reached through a DevBlock part inside the span
            (DevBlock("CB000001", (PlainText("a"),), (SA_SPAN,)),),
            # SA inside NSA inside SA
            (DeploymentSpan(DeploymentType.NSA, (SA_SPAN,)),),
        ]
        for body in bodies:
            with pytest.raises(ValueError, match=r"nested \[SA\] span"):
                DeploymentSpan(DeploymentType.SA, body)

    def test_mixed_span_nesting_allowed(self):
        bodies = [
            (NSA_SPAN,),
            # NSA inside a DevBlock inside SA
            (DevBlock("CB000001", (NSA_SPAN,), (PlainText("b"),)),),
        ]
        for body in bodies:
            assert DeploymentSpan(DeploymentType.SA, body).body == body

    def test_blank_plain_text_rejected(self):
        with pytest.raises(ValueError):
            PlainText("   ")

    def test_empty_section_title_rejected(self):
        with pytest.raises(ValueError):
            Section(title="  ")

    def test_deployment_enum_is_closed(self):
        assert {d.value for d in DeploymentType} == {"SA", "NSA"}
