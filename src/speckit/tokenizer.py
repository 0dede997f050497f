"""Technical tokenizer that keeps identifiers, ids, release codes and tags whole.

Generic word tokenizers split "activateMeasurementSA" or "[Before CB00XXXX]"
into meaningless pieces and often drop digits.  This tokenizer classifies each
token with a fixed precedence (Tag > DevelopmentId > ReleaseId > RequirementId
> Identifier > Number > Word > Punct) so token counts are reproducible, and it
never discards a digit.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain, islice

from .model import DEVELOPMENT_ID_RE, RELEASE_ID_RE, REQUIREMENT_ID_RE, TAG_PATTERN


class TokenKind(Enum):
    WORD = "word"
    IDENTIFIER = "identifier"
    REQUIREMENT_ID = "requirement_id"
    DEVELOPMENT_ID = "development_id"
    RELEASE_ID = "release_id"
    NUMBER = "number"
    TAG = "tag"
    PUNCT = "punct"


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind
    # What the lexicon compares: a Word lowercased, any other kind verbatim.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("token text must be non-empty")
        key = self.text.lower() if self.kind is TokenKind.WORD else self.text
        object.__setattr__(self, "key", key)


# Scan alternatives in precedence order; none matches whitespace, so a scan
# steps over it.  `_TOKEN_RE` has no groups, so `findall` returns the token
# strings.  `_SCAN_RE` names the alternatives: `fullmatch(value).lastgroup` is
# the one the scan matched `value` with, since an earlier one that matched all
# of `value` would have matched it there first.
_ALTERNATIVES = {"tag": TAG_PATTERN, "number": r"\d+\.\d+", "chunk": r"\w+", "punct": r"\S"}
_TOKEN_RE = re.compile("|".join(f"(?:{p})" for p in _ALTERNATIVES.values()))
_SCAN_RE = re.compile("|".join(f"(?P<{name}>{p})" for name, p in _ALTERNATIVES.items()))

_GROUP_KIND = {"tag": TokenKind.TAG, "number": TokenKind.NUMBER, "punct": TokenKind.PUNCT}

# Entries kept by each memo table.  Specification text repeats a small
# vocabulary (191 distinct whitespace chunks over the 1,200 requirements of
# gen-corpus seed 1), so each chunk is scanned once and equal tokens share one
# object.  The bound keeps a long-lived process from holding every chunk it
# has seen.
_INTERN_MAXSIZE = 16384

# Longest whitespace chunk that `tokenize` memoizes; a text with a longer one
# is scanned whole, so one long run cannot pin megabytes in the chunk table.
_CHUNK_MAXLEN = 64


def _classify_chunk(text: str) -> TokenKind:
    # Every id pattern needs an uppercase ASCII letter, which a chunk with no
    # uppercase cased character cannot hold.
    if text.islower():
        return TokenKind.WORD if text.isalpha() else TokenKind.IDENTIFIER
    if DEVELOPMENT_ID_RE.fullmatch(text):
        return TokenKind.DEVELOPMENT_ID
    if RELEASE_ID_RE.fullmatch(text):
        return TokenKind.RELEASE_ID
    if REQUIREMENT_ID_RE.fullmatch(text):
        return TokenKind.REQUIREMENT_ID
    if text.isdigit():
        return TokenKind.NUMBER
    if text.isalpha():
        # Camel case ("activateMeasurementSA", "messungÄndern") is neither one
        # case throughout nor capitalized.
        if text.isupper() or (text[0].isupper() and text[1:].islower()):
            return TokenKind.WORD
        return TokenKind.IDENTIFIER
    # Mixed letters/digits or underscores: a technical identifier.
    return TokenKind.IDENTIFIER


@lru_cache(maxsize=_INTERN_MAXSIZE)
def _token(value: str) -> Token:
    """The one shared token for the scanned token string `value`."""
    group = _SCAN_RE.fullmatch(value).lastgroup
    return Token(value, _GROUP_KIND.get(group) or _classify_chunk(value))


@lru_cache(maxsize=_INTERN_MAXSIZE)
def _chunk_tokens(chunk: str) -> tuple[Token, ...]:
    """The tokens of the whitespace-free, tag-free `chunk`."""
    return tuple(map(_token, _TOKEN_RE.findall(chunk)))


def _composed(text: str) -> str:
    """`text` in NFC, the form the scan reads.

    `\\w` matches no combining mark, so a decomposed "u" + U+0308 would split
    the word around it; composed, it is the one letter "ü".  Most text is
    already NFC, and the check costs far less than normalizing.
    """
    if unicodedata.is_normalized("NFC", text):
        return text
    return unicodedata.normalize("NFC", text)


def tokenize(text: str) -> list[Token]:
    """Split text into classified tokens; pure, deterministic, digit-preserving.

    The text is read in NFC, so canonically equivalent texts give equal
    tokens.  Tokens are immutable and interned: equal tokens from any call
    may be the same object.

    No token spans whitespace except a tag, so a text without "[" is the
    concatenation of its whitespace chunks' tokens, and a chunk is scanned
    once while the chunk table holds it.  (`str.split` and `\\s` agree on
    every code point.)
    """
    text = _composed(text)
    if "[" not in text:
        chunks = text.split()
        # A text within the cap holds no longer chunk, and skips the `max`.
        if len(text) <= _CHUNK_MAXLEN or max(map(len, chunks), default=0) <= _CHUNK_MAXLEN:
            return list(chain.from_iterable(map(_chunk_tokens, chunks)))
    return list(map(_token, _TOKEN_RE.findall(text)))


def has_tokens(text: str, count: int) -> bool:
    """Whether `tokenize(text)` has at least `count` tokens, scanning no further."""
    if count <= 0:
        return True
    matches = _TOKEN_RE.finditer(_composed(text))
    return next(islice(matches, count - 1, None), None) is not None


def normalize(tokens: list[Token]) -> list[Token]:
    """Lowercase Word tokens, drop Punct; everything technical stays verbatim."""
    # Each `TokenKind.X` is a descriptor call; read the two members once.
    word, punct = TokenKind.WORD, TokenKind.PUNCT
    return [
        Token(tok.key, word) if tok.kind is word else tok
        for tok in tokens
        if tok.kind is not punct
    ]
