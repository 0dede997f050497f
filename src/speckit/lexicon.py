"""Internal procedure dictionary: alias phrases mapped to canonical names.

Procedure names appear under many surface forms ("A2 measurement", "A2
measurement for Handover", ...).  The lexicon resolves every known surface
form to one canonical name.  Matching is token-based: Word tokens compare
case-insensitively, everything technical (identifiers, ids, punctuation)
compares verbatim, so an alias never matches inside a parameter name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count

from .errors import ConflictingAliasError
from .tokenizer import Token, tokenize

AliasKey = tuple[str, ...]

# Entries kept by the phrase-key memo.  A long-lived process asks for the few
# phrases of its queries again and again; the bound keeps one that is asked
# for ever new phrases from holding all of them.
_PHRASE_MAXSIZE = 4096


@lru_cache(maxsize=_PHRASE_MAXSIZE)
def phrase_key(text: str) -> AliasKey:
    """The match key of `text`: its tokens' keys, in order."""
    return tuple(t.key for t in tokenize(text))


@dataclass(frozen=True)
class Mention:
    """One alias occurrence: canonical name, surface form, token span [start, end)."""

    canonical: str
    surface: str
    token_span: tuple[int, int]


@dataclass(frozen=True)
class Lexicon:
    entries: dict[str, tuple[str, ...]]  # canonical -> alias phrases
    reverse: dict[AliasKey, str]  # alias match key -> canonical
    # first match key of an alias -> the lengths of the aliases it starts, longest first
    lengths: dict[str, tuple[int, ...]]

    def canonical_of(self, phrase: str) -> str | None:
        """Resolve a free-form phrase (canonical or alias) to its canonical name."""
        return self.reverse.get(phrase_key(phrase))

    def __len__(self) -> int:
        return len(self.entries)


def build_lexicon(entries: dict[str, list[str]]) -> Lexicon:
    reverse: dict[AliasKey, str] = {}
    stored: dict[str, tuple[str, ...]] = {}
    for canonical, aliases in entries.items():
        # The canonical name is always one of its own aliases.
        phrases = [canonical] + [a for a in aliases if a != canonical]
        stored[canonical] = tuple(phrases)
        for phrase in phrases:
            key = phrase_key(phrase)
            if not key:
                raise ValueError(f"alias {phrase!r} of {canonical!r} has no tokens")
            existing = reverse.get(key)
            if existing is not None and existing != canonical:
                raise ConflictingAliasError(phrase, existing, canonical)
            reverse[key] = canonical
    starts: dict[str, set[int]] = {}
    for key in reverse:
        starts.setdefault(key[0], set()).add(len(key))
    lengths = {
        first: tuple(sorted(sizes, reverse=True)) for first, sizes in starts.items()
    }
    return Lexicon(entries=stored, reverse=reverse, lengths=lengths)


def load_lexicon(source: str) -> Lexicon:
    """Load a lexicon file: a JSON object {canonical: [alias, ...]}."""
    if not source.strip():
        return build_lexicon({})
    data = json.loads(source)
    if not isinstance(data, dict):
        raise ValueError("lexicon file must contain a JSON object")
    entries: dict[str, list[str]] = {}
    for canonical, aliases in data.items():
        if not isinstance(aliases, list) or not all(
            isinstance(a, str) for a in aliases
        ):
            raise ValueError(f"aliases of {canonical!r} must be a list of strings")
        entries[canonical] = aliases
    return build_lexicon(entries)


def dump_lexicon(lexicon: Lexicon) -> str:
    data = {canonical: list(phrases[1:]) for canonical, phrases in lexicon.entries.items()}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def find_mentions(tokens: list[Token], lexicon: Lexicon) -> list[Mention]:
    """Leftmost-longest alias matching over a token stream.

    Only the positions whose token starts an alias are visited, and there
    only the lengths of the aliases it starts, longest first.  A position
    inside the last mention is skipped, as a left-to-right scan would.
    """
    mentions: list[Mention] = []
    if not lexicon.reverse:
        return mentions
    n = len(tokens)
    keys = [t.key for t in tokens]
    reverse, lengths = lexicon.reverse, lexicon.lengths
    end = 0
    for i in compress(count(), map(lengths.__contains__, keys)):
        if i < end:
            continue
        for length in lengths[keys[i]]:
            if length <= n - i:
                canonical = reverse.get(tuple(keys[i : i + length]))
                if canonical is not None:
                    end = i + length
                    surface = " ".join(t.text for t in tokens[i:end])
                    mentions.append(Mention(canonical, surface, (i, end)))
                    break
    return mentions
