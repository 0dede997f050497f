import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckit.errors import ConflictingAliasError
from speckit.lexicon import (
    Mention,
    build_lexicon,
    dump_lexicon,
    find_mentions,
    load_lexicon,
    phrase_key,
)
from speckit.tokenizer import TokenKind, tokenize
from support import clear_intern_tables, reference_tokenize


class TestLoadLexicon:
    def test_alias_entry_counts(self, a2_lexicon):
        assert len(a2_lexicon) == 1
        # canonical plus two aliases: three reverse keys
        assert len(a2_lexicon.reverse) == 3
        assert a2_lexicon.canonical_of("A2 measurement for Handover") == "A2 measurement"
        assert a2_lexicon.canonical_of("A2 measurement") == "A2 measurement"

    def test_empty_file(self):
        lex = load_lexicon("")
        assert len(lex) == 0
        assert lex.canonical_of("anything") is None

    def test_conflicting_alias(self):
        with pytest.raises(ConflictingAliasError) as exc:
            build_lexicon(
                {
                    "handover preparation": ["the shared alias"],
                    "cell reselection": ["the shared alias"],
                }
            )
        message = str(exc.value)
        assert "handover preparation" in message and "cell reselection" in message

    def test_conflicting_alias_with_warm_keys(self):
        phrase_key("the shared alias")
        phrase_key("The Shared Alias")
        with pytest.raises(ConflictingAliasError):
            build_lexicon({"a": ["the shared alias"], "b": ["The Shared Alias"]})

    @pytest.mark.parametrize("alias", ["", " ", "\t\n"])
    def test_alias_without_tokens_is_refused(self, alias):
        with pytest.raises(ValueError) as exc:
            load_lexicon(json.dumps({"A": [alias]}))
        assert str(exc.value) == f"alias {alias!r} of 'A' has no tokens"
        assert not isinstance(exc.value, ConflictingAliasError)

    @given(st.text(alphabet="aA2 .\u0308\u00fc", max_size=12))
    def test_phrase_key_equals_reference_cold_then_warm(self, text):
        clear_intern_tables()
        want = tuple(t.key for t in reference_tokenize(text))
        assert phrase_key(text) == want
        assert phrase_key(text) == want

    def test_case_insensitive_word_keys(self):
        lex = build_lexicon({"cell reselection": []})
        assert lex.canonical_of("Cell Reselection") == "cell reselection"

    def test_identifier_tokens_case_sensitive(self):
        lex = build_lexicon({"A2 measurement": []})
        assert lex.canonical_of("a2 measurement") is None
        assert lex.canonical_of("A2 Measurement") == "A2 measurement"

    def test_json_round_trip(self, a2_lexicon):
        text = dump_lexicon(a2_lexicon)
        again = load_lexicon(text)
        assert again.entries == a2_lexicon.entries
        assert json.loads(text)  # the dump is plain JSON

    def test_malformed_json_object(self):
        with pytest.raises(ValueError):
            load_lexicon('["not", "an", "object"]')
        with pytest.raises(ValueError):
            load_lexicon('{"canonical": "not-a-list"}')


class TestFindMentions:
    def test_full_alias_phrase_match(self, a2_lexicon):
        tokens = tokenize("the A2 measurement for Handover shall be configured")
        mentions = find_mentions(tokens, a2_lexicon)
        assert len(mentions) == 1
        assert mentions[0].canonical == "A2 measurement"
        assert mentions[0].surface == "A2 measurement for Handover"

    def test_no_aliases_present(self, a2_lexicon):
        tokens = tokenize("the timer shall be configured")
        assert find_mentions(tokens, a2_lexicon) == []

    def test_leftmost_longest(self, a2_lexicon):
        # the longer alias starting at the same token wins
        tokens = tokenize(
            "A2 measurement for the activation of Inter-frequency measurements applies"
        )
        mentions = find_mentions(tokens, a2_lexicon)
        assert len(mentions) == 1
        assert (
            mentions[0].surface
            == "A2 measurement for the activation of Inter - frequency measurements"
        )

    def test_canonical_fallback_when_longer_alias_absent(self, a2_lexicon):
        tokens = tokenize("the A2 measurement for the timer applies")
        mentions = find_mentions(tokens, a2_lexicon)
        assert len(mentions) == 1
        assert mentions[0].surface == "A2 measurement"

    def test_no_match_inside_identifier(self, a2_lexicon):
        # "A2" buried in a parameter name must not produce a mention
        tokens = tokenize("the A2measurement parameter applies")
        assert find_mentions(tokens, a2_lexicon) == []

    def test_token_span_indices(self, a2_lexicon):
        tokens = tokenize("see A2 measurement here")
        (mention,) = find_mentions(tokens, a2_lexicon)
        assert mention.token_span == (1, 3)
        assert [t.text for t in tokens[1:3]] == ["A2", "measurement"]

    def test_concatenation_property(self, a2_lexicon):
        a = "the A2 measurement shall run"
        b = "then A2 measurement for Handover follows"
        tokens_a, tokens_b = tokenize(a), tokenize(b)
        joined = find_mentions(tokens_a + tokens_b, a2_lexicon)
        separate = find_mentions(tokens_a, a2_lexicon)
        shifted = [
            m.token_span for m in find_mentions(tokens_b, a2_lexicon)
        ]
        offset = len(tokens_a)
        assert [m.token_span for m in joined] == [
            m.token_span for m in separate
        ] + [(s + offset, e + offset) for s, e in shifted]

    def test_canonicalization_idempotent(self, a2_lexicon):
        text = "the A2 measurement for Handover shall run"
        mentions = find_mentions(tokenize(text), a2_lexicon)
        replaced = text.replace(mentions[0].surface, mentions[0].canonical)
        again = find_mentions(tokenize(replaced), a2_lexicon)
        assert [m.surface for m in again] == [m.canonical for m in again]

    def test_empty_lexicon_finds_nothing(self):
        lex = build_lexicon({})
        assert find_mentions(tokenize("any text at all"), lex) == []

    def test_match_key_is_the_token_key(self):
        tokens = tokenize("The A2 Measurement, activateMeasurementSA [SA] REQ_0001")
        assert [t.key for t in tokens] == [
            "the", "A2", "measurement", ",", "activateMeasurementSA", "[SA]", "REQ_0001"
        ]


def reference_find_mentions(tokens, lexicon) -> list[Mention]:
    """Leftmost-longest matching that tries every alias length at every position."""
    longest = max((len(key) for key in lexicon.reverse), default=0)
    keys = [t.text.lower() if t.kind is TokenKind.WORD else t.text for t in tokens]
    mentions = []
    i = 0
    while i < len(tokens):
        for length in range(min(longest, len(tokens) - i), 0, -1):
            canonical = lexicon.reverse.get(tuple(keys[i : i + length]))
            if canonical is not None:
                surface = " ".join(t.text for t in tokens[i : i + length])
                mentions.append(Mention(canonical, surface, (i, i + length)))
                i += length
                break
        else:
            i += 1
    return mentions


# Alias words in two cases, an identifier whose case matters, and noise that
# starts no alias.
ALIAS_WORDS = ("cell", "Cell", "beam", "A2", "a2", "for", "the", "-")
NOISE = ("zz", "Q9", ",", "CB00XXXX")


@st.composite
def lexicons_and_streams(draw):
    """Overlapping aliases of one to four words, and token streams over them."""
    phrases = draw(
        st.lists(
            st.lists(st.sampled_from(ALIAS_WORDS), min_size=1, max_size=4).map(" ".join),
            min_size=1,
            max_size=8,
            unique_by=phrase_key,
        )
    )
    entries: dict[str, list[str]] = {}
    canonical = phrases[0]
    for phrase in phrases:
        if phrase is phrases[0] or draw(st.booleans()):
            canonical = phrase
            entries[canonical] = []
        else:
            entries[canonical].append(phrase)
    stream = draw(st.lists(st.sampled_from(ALIAS_WORDS + NOISE), max_size=30))
    return build_lexicon(entries), tokenize(" ".join(stream))


class TestFindMentionsProperties:
    @settings(max_examples=300)
    @given(lexicons_and_streams())
    def test_equals_all_lengths_reference(self, case):
        lexicon, tokens = case
        assert find_mentions(tokens, lexicon) == reference_find_mentions(tokens, lexicon)
