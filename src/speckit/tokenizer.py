"""Technical tokenizer that keeps identifiers, ids, release codes and tags whole.

Generic word tokenizers split "activateMeasurementSA" or "[Before CB00XXXX]"
into meaningless pieces and often drop digits.  This tokenizer classifies each
token with a fixed precedence (Tag > DevelopmentId > ReleaseId > RequirementId
> Identifier > Number > Word > Punct) so token counts are reproducible, and it
never discards a digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .model import DEVELOPMENT_ID_RE, RELEASE_ID_RE, REQUIREMENT_ID_RE


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

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("token text must be non-empty")


# Canonical tag grammar: exact case, single internal space.
TAG_PATTERN = (
    r"\[Before CB[0-9A-Za-z]{6}\]"
    r"|\[End CB[0-9A-Za-z]{6}\]"
    r"|\[CB[0-9A-Za-z]{6}\]"
    r"|\[End (?:SA|NSA)\]"
    r"|\[(?:SA|NSA)\]"
)
TAG_RE = re.compile(TAG_PATTERN)

_SCAN_RE = re.compile(
    rf"(?P<tag>{TAG_PATTERN})"
    r"|(?P<number>\d+\.\d+)"
    r"|(?P<chunk>\w+)"
    r"|(?P<space>\s+)"
    r"|(?P<punct>\S)"
)


def _classify_chunk(text: str) -> TokenKind:
    # Every id pattern needs an uppercase ASCII letter, which a chunk with no
    # uppercase cased character cannot hold.
    if text.islower():
        return TokenKind.WORD if text.isalpha() else TokenKind.IDENTIFIER
    if DEVELOPMENT_ID_RE.match(text):
        return TokenKind.DEVELOPMENT_ID
    if RELEASE_ID_RE.match(text):
        return TokenKind.RELEASE_ID
    if REQUIREMENT_ID_RE.match(text):
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


def tokenize(text: str) -> list[Token]:
    """Split text into classified tokens; pure, deterministic, digit-preserving."""
    tokens: list[Token] = []
    for m in _SCAN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        value = m.group()
        if kind == "tag":
            tokens.append(Token(value, TokenKind.TAG))
        elif kind == "number":
            tokens.append(Token(value, TokenKind.NUMBER))
        elif kind == "chunk":
            tokens.append(Token(value, _classify_chunk(value)))
        else:
            tokens.append(Token(value, TokenKind.PUNCT))
    return tokens


def has_tokens(text: str, count: int) -> bool:
    """Whether `tokenize(text)` has at least `count` tokens, scanning no further."""
    if count <= 0:
        return True
    for m in _SCAN_RE.finditer(text):
        if m.lastgroup != "space":
            count -= 1
            if not count:
                return True
    return False


def normalize(tokens: list[Token]) -> list[Token]:
    """Lowercase Word tokens, drop Punct; everything technical stays verbatim."""
    out: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.PUNCT:
            continue
        if tok.kind is TokenKind.WORD:
            out.append(Token(tok.text.lower(), TokenKind.WORD))
        else:
            out.append(tok)
    return out
