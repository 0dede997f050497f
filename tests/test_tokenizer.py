import random
import re
import unicodedata
from collections import Counter
from itertools import islice, product
from string import ascii_lowercase

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speckit.model import DEVELOPMENT_ID_RE, RELEASE_ID_RE, REQUIREMENT_ID_RE
from speckit.tokenizer import (
    _CHUNK_MAXLEN,
    Token,
    TokenKind,
    _chunk_tokens,
    _classify_chunk,
    _token,
    has_tokens,
    normalize,
    tokenize,
)
from support import clear_intern_tables, reference_normalize, reference_tokenize

# Tags, ids, numbers, words in each case, punctuation and whitespace.
TECHNICAL_TEXT = st.text(alphabet="ab 1.[]CBSA\t,", max_size=30)
# Bracket-free text, so `tokenize` reads it chunk by chunk: words, ids,
# numbers, punctuation, a combining mark, and every class of whitespace.
CHUNKED_TEXT = st.lists(
    st.sampled_from(
        (
            "timer", "Timer", "TIMER", "A2", "activateMeasurementSA", "CB00ABCD",
            "01R1", "REQ_0001", "42", "1.5", "1.", ".", ",", "-", "_", "u", "\u0308",
            " ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
            "\x85", "\xa0", "\u1680", "\u2028", "\u3000",
        )
    ),
    max_size=30,
).map("".join)
# Letters with combining marks that compose with some of them (and one,
# U+20DD, that composes with none), in either order.
MARKED_TEXT = st.text(alphabet="aeuAUcq1 .\u0308\u0301\u0327\u20dd\u00fc\u00c4", max_size=20)
# Words in each case (some decomposed), ids, tags, numbers and punctuation,
# joined with and without spaces.
KEYED_TEXT = st.lists(
    st.sampled_from(
        (
            "timer", "Timer", "TIMER", "UE", "Ue", "U\u0308ber", "A\u0308NDERN",
            "Zeitu\u0308berschreitung", "activateMeasurementSA", "A2", "REQ_0001",
            "CB00ABCD", "01R1", "42", "3.5", "[SA]", "[End SA]", "[Before CB00ABCD]",
            ".", ",", ";", "(", ")", "-", " ", " ",
        )
    ),
    max_size=30,
).map("".join)


def kinds(text: str) -> list[tuple[str, TokenKind]]:
    return [(t.text, t.kind) for t in tokenize(text)]


class TestClassification:
    def test_camel_case_identifier_is_one_token(self):
        assert kinds("activateMeasurementSA") == [
            ("activateMeasurementSA", TokenKind.IDENTIFIER)
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_tag_is_one_token(self):
        assert kinds("[Before CB00XXXX]") == [("[Before CB00XXXX]", TokenKind.TAG)]

    def test_development_id(self):
        assert kinds("CB00XXXX") == [("CB00XXXX", TokenKind.DEVELOPMENT_ID)]

    def test_release_id(self):
        assert kinds("01R1") == [("01R1", TokenKind.RELEASE_ID)]

    def test_release_id_with_other_digits_is_identifier(self):
        # Arabic-Indic digits are `\w` but not a release id's ASCII digits.
        assert kinds("\u0660\u0661R\u0661") == [("\u0660\u0661R\u0661", TokenKind.IDENTIFIER)]

    def test_requirement_id(self):
        assert kinds("REQ_0042") == [("REQ_0042", TokenKind.REQUIREMENT_ID)]

    def test_number_and_decimal(self):
        assert kinds("42") == [("42", TokenKind.NUMBER)]
        assert kinds("3.5") == [("3.5", TokenKind.NUMBER)]

    def test_words_and_punct(self):
        assert kinds("The timer expires.") == [
            ("The", TokenKind.WORD),
            ("timer", TokenKind.WORD),
            ("expires", TokenKind.WORD),
            (".", TokenKind.PUNCT),
        ]

    def test_letter_digit_mix_is_identifier(self):
        assert kinds("A2") == [("A2", TokenKind.IDENTIFIER)]

    def test_underscore_mix_is_identifier(self):
        assert kinds("max_count") == [("max_count", TokenKind.IDENTIFIER)]

    def test_all_tag_forms(self):
        for tag in (
            "[Before CB000001]",
            "[CB000001]",
            "[End CB000001]",
            "[SA]",
            "[NSA]",
            "[End SA]",
            "[End NSA]",
        ):
            assert kinds(tag) == [(tag, TokenKind.TAG)]

    def test_non_ascii_word_is_one_token(self):
        assert kinds("Die Zeitüberschreitung tritt ein.") == [
            ("Die", TokenKind.WORD),
            ("Zeitüberschreitung", TokenKind.WORD),
            ("tritt", TokenKind.WORD),
            ("ein", TokenKind.WORD),
            (".", TokenKind.PUNCT),
        ]

    def test_decomposed_word_is_one_token(self):
        assert kinds("Zeitu\u0308berschreitung tritt") == [
            ("Zeit\u00fcberschreitung", TokenKind.WORD),
            ("tritt", TokenKind.WORD),
        ]

    def test_non_ascii_camel_case_identifier_is_one_token(self):
        assert kinds("messungÄndernSA") == [("messungÄndernSA", TokenKind.IDENTIFIER)]

    def test_non_canonical_tag_is_not_a_tag(self):
        toks = tokenize("[before CB00XXXX]")
        assert all(t.kind is not TokenKind.TAG for t in toks)

    def test_tag_with_extra_spaces_is_not_a_tag(self):
        toks = tokenize("[ SA ]")
        assert all(t.kind is not TokenKind.TAG for t in toks)


def reference_classify_chunk(text: str) -> TokenKind:
    """The regex-precedence classifier, with no lowercase fast path."""
    if DEVELOPMENT_ID_RE.fullmatch(text):
        return TokenKind.DEVELOPMENT_ID
    if RELEASE_ID_RE.fullmatch(text):
        return TokenKind.RELEASE_ID
    if REQUIREMENT_ID_RE.fullmatch(text):
        return TokenKind.REQUIREMENT_ID
    if text.isdigit():
        return TokenKind.NUMBER
    if text.isalpha():
        if (
            text.islower()
            or text.isupper()
            or (text[0].isupper() and text[1:].islower())
        ):
            return TokenKind.WORD
        return TokenKind.IDENTIFIER
    return TokenKind.IDENTIFIER


class TestProperties:
    def _fuzz_text(self, rng: random.Random, n_chars: int) -> str:
        alphabet = (
            "abcdefghij ABCDE 0123456789 _.,;[]() CB00XXAAZZ 01R2 "
            "activateMeasurementSA requirement shall timer\n\t"
        )
        return "".join(rng.choice(alphabet) for _ in range(n_chars))

    def test_determinism(self):
        rng = random.Random(3)
        text = self._fuzz_text(rng, 2000)
        assert tokenize(text) == tokenize(text)

    def test_digit_multiset_preserved_on_fuzz(self):
        rng = random.Random(11)
        text = self._fuzz_text(rng, 10_000)
        in_digits = Counter(c for c in text if c.isdigit())
        out_digits = Counter(c for t in tokenize(text) for c in t.text if c.isdigit())
        assert in_digits == out_digits

    @given(st.text())
    def test_unicode_text_keeps_digits_and_characters(self, text):
        joined = "".join(t.text for t in tokenize(text))
        composed = unicodedata.normalize("NFC", text)
        assert Counter(c for c in joined if c.isdigit()) == Counter(
            c for c in composed if c.isdigit()
        )
        assert joined == "".join(composed.split())

    @given(st.one_of(st.text(), MARKED_TEXT))
    def test_canonically_equivalent_texts_tokenize_equal(self, text):
        nfd = unicodedata.normalize("NFD", text)
        assert tokenize(nfd) == tokenize(unicodedata.normalize("NFC", text))

    @given(st.one_of(st.text(), MARKED_TEXT), st.integers(-1, 8))
    def test_has_tokens_counts_like_tokenize_on_decomposed_text(self, text, count):
        for form in (text, unicodedata.normalize("NFD", text)):
            assert has_tokens(form, count) == (len(tokenize(form)) >= count)

    @given(
        st.sampled_from(("", "CB", "cb", "Cb", "01R", "99r", "12R3", "REQ_", "req_", "A")),
        st.one_of(st.text(), st.text(alphabet="abzABZ019_éÄßǅ٣", max_size=10)),
    )
    def test_classify_chunk_equals_reference(self, prefix, text):
        for chunk in re.findall(r"\w+", prefix + text):
            assert _classify_chunk(chunk) == reference_classify_chunk(chunk)

    @given(
        st.one_of(st.text(), TECHNICAL_TEXT, CHUNKED_TEXT),
        st.integers(-1, 8),
    )
    def test_has_tokens_counts_like_tokenize(self, text, count):
        assert has_tokens(text, count) == (len(tokenize(text)) >= count)

    def test_no_character_lost(self):
        rng = random.Random(13)
        text = self._fuzz_text(rng, 3000)
        joined = "".join(t.text for t in tokenize(text))
        assert joined == "".join(text.split())

    def test_space_join_reproduces_normalized_input(self):
        # for inputs whose punctuation already stands alone
        text = "The  activateMeasurementSA parameter [SA] shall apply . See 01R2"
        assert " ".join(t.text for t in tokenize(text)) == " ".join(text.split())

    def test_concatenation_stability(self):
        rng = random.Random(17)
        for _ in range(50):
            a = self._fuzz_text(rng, 80).strip() or "x"
            b = self._fuzz_text(rng, 80).strip() or "y"
            assert tokenize(a + " " + b) == tokenize(a) + tokenize(b)


class TestNormalize:
    def test_words_lowercased_identifiers_kept(self):
        tokens = [
            Token("The", TokenKind.WORD),
            Token("activateMeasurement", TokenKind.IDENTIFIER),
        ]
        assert normalize(tokens) == [
            Token("the", TokenKind.WORD),
            Token("activateMeasurement", TokenKind.IDENTIFIER),
        ]

    def test_empty(self):
        assert normalize([]) == []

    def test_tags_survive_verbatim(self):
        tokens = [Token("[SA]", TokenKind.TAG)]
        assert normalize(tokens) == tokens

    def test_punct_dropped(self):
        tokens = tokenize("a, b.")
        assert all(t.kind is not TokenKind.PUNCT for t in normalize(tokens))

    def test_technical_kinds_verbatim(self):
        tokens = tokenize("REQ_0001 CB00XXXX 01R2 42")
        assert normalize(tokens) == tokens

    @given(st.one_of(st.text(), KEYED_TEXT))
    def test_keys_of_non_punct_tokens_are_the_normalized_texts(self, text):
        # The L1 lint rule reads these keys in place of `normalize`.
        tokens = tokenize(text)
        assert [t.key for t in tokens if t.kind is not TokenKind.PUNCT] == [
            t.text for t in normalize(tokens)
        ]


class TestChunks:
    @pytest.mark.parametrize(
        "text", ["x[End SA]y", "a [Before CB00ABCD] b", "see [1]", "[SA]\u3000[End\u3000SA]"]
    )
    def test_text_with_a_bracket_equals_reference(self, text):
        clear_intern_tables()
        assert tokenize(text) == reference_tokenize(text)

    def test_chunk_over_the_cap_is_not_memoized(self):
        clear_intern_tables()
        text = "A2" * _CHUNK_MAXLEN + ", timer"
        assert tokenize(text) == reference_tokenize(text)
        assert _chunk_tokens.cache_info().currsize == 0

    def test_long_blank_text_has_no_tokens(self):
        assert tokenize(" " * (2 * _CHUNK_MAXLEN)) == []

    def test_chunk_at_the_cap_is_memoized(self):
        clear_intern_tables()
        text = "a" * _CHUNK_MAXLEN + "\ttimer"
        assert tokenize(text) == reference_tokenize(text)
        assert _chunk_tokens.cache_info().currsize == 2


class TestInterning:
    @given(st.one_of(st.text(), TECHNICAL_TEXT, CHUNKED_TEXT))
    def test_tokenize_equals_reference_cold_then_warm(self, text):
        clear_intern_tables()
        want = reference_tokenize(text)
        assert tokenize(text) == want
        assert tokenize(text) == want

    @given(st.one_of(st.text(), TECHNICAL_TEXT, CHUNKED_TEXT))
    def test_normalize_equals_reference(self, text):
        clear_intern_tables()
        want = reference_normalize(reference_tokenize(text))
        assert normalize(tokenize(text)) == want
        assert normalize(tokenize(text)) == want

    @given(st.one_of(st.text(), TECHNICAL_TEXT, CHUNKED_TEXT))
    def test_one_entry_per_distinct_token_string(self, text):
        # A memoized chunk hands out its tokens without a `_token` lookup.
        _token.cache_clear()
        _chunk_tokens.cache_clear()
        tokens = tokenize(text)
        assert _token.cache_info().currsize == len({t.text for t in tokens})

    def test_equal_chunks_share_one_token(self):
        assert tokenize("the timer expires")[1] is tokenize("timer again")[0]

    def test_tables_stay_bounded_and_exact_after_eviction(self):
        maxsize = _token.cache_info().maxsize
        words = ["X" + "".join(p) for p in islice(product(ascii_lowercase, repeat=4), maxsize + 100)]
        text = " ".join(words)
        assert tokenize(text) == reference_tokenize(text)
        assert normalize(tokenize(text)) == reference_normalize(reference_tokenize(text))
        for table in (_token, _chunk_tokens):
            info = table.cache_info()
            assert info.currsize == info.maxsize == maxsize
        # The first word was evicted; it is built again, equal.
        first = words[0]
        assert normalize(tokenize(first)) == reference_normalize(reference_tokenize(first))


def expected_key(token: Token) -> str:
    return token.text.lower() if token.kind is TokenKind.WORD else token.text


class TestMatchKey:
    @given(st.one_of(st.text(), TECHNICAL_TEXT, MARKED_TEXT))
    def test_scanned_tokens_carry_their_key(self, text):
        for t in tokenize(text):
            assert t.key == expected_key(t)

    @given(st.text(min_size=1), st.sampled_from(TokenKind))
    def test_hand_built_tokens_carry_their_key(self, text, kind):
        t = Token(text, kind)
        assert t.key == expected_key(t)

    def test_key_changes_no_equality_hash_or_repr(self):
        t = Token("a", TokenKind.WORD)
        assert t == Token("a", TokenKind.WORD) == Token(text="a", kind=TokenKind.WORD)
        assert t != Token("a", TokenKind.IDENTIFIER)
        assert Token("A", TokenKind.WORD) != Token("a", TokenKind.WORD)
        assert hash(t) == hash(("a", TokenKind.WORD))
        assert repr(t) == "Token(text='a', kind=<TokenKind.WORD: 'word'>)"

    def test_key_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Token("a", TokenKind.WORD, "a")
