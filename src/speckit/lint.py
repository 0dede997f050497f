"""Corpus lint rules with fixed severities.

Rules:
    L1 duplication      (High)   near-copied requirement text, shingle Jaccard
    L2 length           (High)   over-long or multi-procedure/mixed-deployment versions
    L3 standardization  (High)   non-canonical procedure names and tag styles
    L4 grammar          (Medium) id/tag grammar slips, missing terminal punctuation
    L5 dispersion       (Low)    one procedure scattered across many sections
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain
from typing import AbstractSet, Iterator, Optional

from .lexicon import Lexicon, Mention, find_mentions
from .model import (
    DEVELOPMENT_ID_PATTERN,
    TAG_RE,
    ContentSegment,
    DeploymentSpan,
    DeploymentType,
    DevBlock,
    DevelopmentRegistry,
    PlainText,
    ReleaseId,
    Requirement,
    RequirementVersion,
    SpecDocument,
    is_valid_requirement_id,
    iter_dev_ids,
    iter_segments,
    release_universe,
)
from .parser import render_segments
from .resolver import materialize
# `normalize` is unused here; perfbench/tracer.py wraps it by name as a
# speckit.lint attribute.
from .tokenizer import Token, TokenKind, normalize, tokenize


class LintRule(Enum):
    L1_DUPLICATION = "L1_Duplication"
    L2_LENGTH = "L2_Length"
    L3_STANDARDIZATION = "L3_Standardization"
    L4_GRAMMAR = "L4_Grammar"
    L5_DISPERSION = "L5_Dispersion"


class Severity(Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.LOW: 0, Severity.MEDIUM: 1, Severity.HIGH: 2}

SEVERITY_BY_RULE = {
    LintRule.L1_DUPLICATION: Severity.HIGH,
    LintRule.L2_LENGTH: Severity.HIGH,
    LintRule.L3_STANDARDIZATION: Severity.HIGH,
    LintRule.L4_GRAMMAR: Severity.MEDIUM,
    LintRule.L5_DISPERSION: Severity.LOW,
}

_RULE_SHORT = {rule.value[:2]: rule for rule in LintRule}  # "L1" -> L1_DUPLICATION


@dataclass(frozen=True)
class Location:
    document: str
    requirement: str
    version: str = ""


@dataclass(frozen=True)
class LintFinding:
    rule: LintRule
    location: Location
    message: str
    related: Optional[Location] = None
    score: Optional[float] = None

    @property
    def severity(self) -> Severity:
        return SEVERITY_BY_RULE[self.rule]

    def to_dict(self) -> dict:
        data = {
            "rule": self.rule.value,
            "severity": self.severity.value,
            **asdict(self.location),
            "message": self.message,
        }
        if self.related is not None:
            data["related"] = asdict(self.related)
        if self.score is not None:
            data["score"] = self.score
        return data


# The integer settings of LintConfig, as JSON config keys.
_INT_KEYS = ("shingle_k", "max_tokens", "max_procedures", "max_sections")


@dataclass(frozen=True)
class LintConfig:
    shingle_k: int = 5
    dup_threshold: float = 0.7
    max_tokens: int = 250
    max_procedures: int = 3
    max_sections: int = 2
    enabled: frozenset[LintRule] = frozenset(LintRule)

    def __post_init__(self) -> None:
        for key in _INT_KEYS:
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer")
        threshold = self.dup_threshold
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise ValueError("dup_threshold must be a number")
        if type(self.enabled) is not frozenset or not self.enabled <= frozenset(LintRule):
            raise ValueError(f"enabled {self.enabled!r} is not a frozenset of LintRule")
        if self.shingle_k < 2:
            raise ValueError("shingle_k must be >= 2")
        if not 0 < threshold <= 1:
            raise ValueError("dup_threshold must be in (0, 1]")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.max_procedures < 1:
            raise ValueError("max_procedures must be >= 1")
        if self.max_sections < 1:
            raise ValueError("max_sections must be >= 1")

    @classmethod
    def from_json(cls, source: str) -> "LintConfig":
        data = json.loads(source)
        if not isinstance(data, dict):
            raise ValueError("lint config must be a JSON object")
        unknown = set(data) - {*_INT_KEYS, "dup_threshold", "rules"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        rules = data.pop("rules", {})
        if not isinstance(rules, dict):
            raise ValueError("rules must be an object of rule: bool")
        for name, flag in rules.items():
            if name not in _RULE_SHORT:
                raise ValueError(f"unknown rule {name!r}")
            if not isinstance(flag, bool):
                raise ValueError(f"rule {name!r} flag must be a boolean")
        off = {_RULE_SHORT[name] for name, flag in rules.items() if not flag}
        return cls(**data, enabled=frozenset(LintRule) - off)


# ---------------------------------------------------------------------------
# Shared walks
# ---------------------------------------------------------------------------


def _plain_texts(segments: tuple[ContentSegment, ...]) -> list[str]:
    return [seg.text for seg in iter_segments(segments) if isinstance(seg, PlainText)]


def _iter_versions(
    docs: list[SpecDocument],
) -> Iterator[tuple[SpecDocument, Requirement, RequirementVersion]]:
    for doc in docs:
        for req in doc.iter_requirements():
            for version in req.versions:
                yield doc, req, version


def _version_label(version: RequirementVersion) -> str:
    return str(version.first_release)


@dataclass(frozen=True)
class VersionAnalysis:
    """What L2, L3 and L5 read of one version's full written content."""

    token_count: int  # non-tag tokens
    mentions: tuple[Mention, ...]


def analyse_versions(
    docs: list[SpecDocument], lexicon: Lexicon
) -> dict[RequirementVersion, VersionAnalysis]:
    """Tokenize and alias-match every version's written text once.

    Only the token count and the mentions are kept: holding every version's
    token list at once would raise the lint call's peak memory.
    """
    analyses: dict[RequirementVersion, VersionAnalysis] = {}
    tag = TokenKind.TAG
    for _doc, _req, version in _iter_versions(docs):
        text = " ".join(_plain_texts(version.content))
        tokens = [t for t in tokenize(text) if t.kind is not tag]
        analyses[version] = VersionAnalysis(
            len(tokens), tuple(find_mentions(tokens, lexicon))
        )
    return analyses


# ---------------------------------------------------------------------------
# L1: duplication
# ---------------------------------------------------------------------------


def shingle_set(tokens: list[Token], k: int) -> frozenset[tuple[str, ...]]:
    texts = [t.text for t in tokens]
    if len(texts) < k:
        return frozenset({tuple(texts)} if texts else ())
    return frozenset(zip(*(texts[i:] for i in range(k))))


def jaccard(a: AbstractSet, b: AbstractSet) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _identifiers(req: Requirement, r: ReleaseId, registry: DevelopmentRegistry) -> set[str]:
    """The identifier tokens of `req`'s text at release `r`."""
    tokens = tokenize(materialize(req, r, None, registry).text)
    return {t.text for t in tokens if t.kind is TokenKind.IDENTIFIER}


def _prefix_renames(ids_a: set[str], ids_b: set[str]) -> list[tuple[str, str]]:
    """Pair up identifiers unique to each side where one is a prefix of the other."""
    only_a = sorted(ids_a - ids_b)
    only_b = sorted(ids_b - ids_a)
    if not only_a or not only_b:
        return []
    pairs: list[tuple[str, str]] = []
    remaining = list(only_b)
    for ident in only_a:
        match = next(
            (
                other
                for other in remaining
                if (other.startswith(ident) or ident.startswith(other))
                and other != ident
            ),
            None,
        )
        if match is None:
            return []
        remaining.remove(match)
        pairs.append((ident, match))
    if remaining:
        return []
    return pairs


def _min_overlap(size: int, threshold: float) -> int:
    """Fewest shared shingles with which a set of `size` can pass the L1 test.

    `jaccard` divides the overlap by a union of at least `size`, and float
    division is monotone, so a passing overlap also passes `overlap / size`.
    The smallest such overlap is found with that same float test, because
    `ceil(threshold * size)` can round one too high (0.28 * 25 is
    7.000000000000001) and would shorten the prefix below the exact bound.
    """
    overlap = math.ceil(threshold * size)
    while (overlap - 1) / size >= threshold:
        overlap -= 1
    while overlap / size < threshold:
        overlap += 1
    return overlap


def _rarest_first(shingles: AbstractSet, frequency: Counter) -> list:
    """`shingles` by (frequency, shingle): a set's members are distinct, so a
    stable sort of the sorted set by frequency gives that order."""
    ranked = sorted(shingles)
    ranked.sort(key=frequency.__getitem__)
    return ranked


# Code points per position of an L1 shingle code: each token key becomes a
# fixed-width string of digits in this radix.  ASCII digits keep every
# shingle in CPython's compact ASCII form, which is the smallest even at two
# code points per key: a 5-key shingle takes 59 bytes as ten ASCII code
# points, 78 as five with one above 127, 84 with one above 255
# (`sys.getsizeof`, CPython 3.11).
_RADIX = 0x80


def _codes(vocabulary: list[str]) -> tuple[dict[str, str], int]:
    """A fixed-width code per key of the sorted `vocabulary`, and its width.

    Codes are the keys' ranks written big-endian in `_RADIX` digits, so two
    code strings compare as the key sequences they spell out: a shingle
    string sorts where its token tuple would.
    """
    width = 1
    while _RADIX**width < len(vocabulary):
        width += 1
    codes = {}
    for rank, key in enumerate(vocabulary):
        digits = []
        for _ in range(width):
            rank, digit = divmod(rank, _RADIX)
            digits.append(chr(digit))
        codes[key] = "".join(reversed(digits))
    return codes, width


def detect_duplication(
    docs: list[SpecDocument],
    registry: DevelopmentRegistry,
    config: LintConfig,
) -> list[LintFinding]:
    """Near-duplicate detection over materialized version texts.

    An exact prefix-filtered self-join (Bayardo et al., "Scaling Up All Pairs
    Similarity Search", WWW 2007): it reports the same pairs as comparing
    every pair, but only pairs whose rarest-first shingle prefixes meet are
    checked with `jaccard`.

    A shingle is `shingle_k` consecutive non-punctuation token keys (a word
    lowercased, as `normalize` gives it), or all of a record's keys when it
    has fewer.  Each record spells its keys as one string of per-call codes
    (`_codes`), and a shingle is a slice of `shingle_k` codes: a `str`, whose
    hash is computed once, where `shingle_set` builds a tuple.  The map is
    one-to-one and keeps the tuples' order, so every Jaccard value and every
    candidate pair stay the same.
    """
    universe = release_universe(docs, registry)

    records = []  # (location, requirement, reference release)
    keyed = []  # each record's non-punctuation token keys
    punct = TokenKind.PUNCT
    for doc, req, version in _iter_versions(docs):
        # A closed version holds its last release, an open one the latest.
        ref = version.last_release if version.last_release is not None else universe[-1]
        tokens = tokenize(materialize(req, ref, None, registry).text)
        records.append((Location(doc.name, req.id, _version_label(version)), req, ref))
        keyed.append([t.key for t in tokens if t.kind is not punct])

    codes, width = _codes(sorted(set(chain.from_iterable(keyed))))
    span = config.shingle_k * width
    shingle_sets = []
    for keys in keyed:
        text = "".join(map(codes.__getitem__, keys))
        if len(text) < span:
            shingle_sets.append({text} if text else set())
        else:
            shingle_sets.append(
                {text[i : i + span] for i in range(0, len(text) - span + 1, width)}
            )
    del codes, keyed

    # Two sets with Jaccard >= t share at least _min_overlap(|S|, t) shingles
    # of each set S, so under one global order their prefixes of
    # |S| - overlap + 1 shingles meet.  Rarest first keeps the postings short.
    # A shingle seen once sorts first in every prefix and pairs with nothing,
    # so only the rest of a prefix is posted, and a record whose prefix is
    # all unique shingles gets no postings.  Empty sets pair with each other
    # at Jaccard 1.0; no shingle is empty, so "" keys them alone.
    frequency = Counter(chain.from_iterable(shingle_sets))
    repeated = {shingle for shingle, count in frequency.items() if count > 1}
    prefixes = []
    for shingles in shingle_sets:
        size = len(shingles)
        if not size:
            prefixes.append([""])
            continue
        shared = shingles & repeated
        posted = len(shared) - _min_overlap(size, config.dup_threshold) + 1
        prefixes.append(_rarest_first(shared, frequency)[:posted] if posted > 0 else [])
    del frequency, repeated

    postings: dict[str, list[int]] = {}
    for j, prefix in enumerate(prefixes):
        for shingle in prefix:
            postings.setdefault(shingle, []).append(j)

    findings: list[LintFinding] = []
    identifiers: dict[int, set[str]] = {}  # record position -> identifier set
    for i, prefix in enumerate(prefixes):
        candidates = {j for shingle in prefix for j in postings[shingle] if j > i}
        for j in sorted(candidates):
            loc_a, req_a, ref_a = records[i]
            loc_b, req_b, ref_b = records[j]
            if req_a.id == req_b.id:
                continue
            similarity = jaccard(shingle_sets[i], shingle_sets[j])
            if similarity < config.dup_threshold:
                continue
            score = round(similarity, 4)
            findings.append(
                LintFinding(
                    LintRule.L1_DUPLICATION,
                    loc_a,
                    f"near-duplicate of {req_b.id} (shingle Jaccard {score})",
                    related=loc_b,
                    score=score,
                )
            )
            # Few records reach this point, so only theirs are tokenized for
            # identifiers, each once.
            for k, req, ref in ((i, req_a, ref_a), (j, req_b, ref_b)):
                if k not in identifiers:
                    identifiers[k] = _identifiers(req, ref, registry)
            renames = _prefix_renames(identifiers[i], identifiers[j])
            if renames:
                detail = ", ".join(f"{x} / {y}" for x, y in renames)
                findings.append(
                    LintFinding(
                        LintRule.L1_DUPLICATION,
                        loc_a,
                        f"renamed-parameter duplication of {req_b.id}: {detail}",
                        related=loc_b,
                        score=score,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# L2: requirement length
# ---------------------------------------------------------------------------


def check_length(
    doc_name: str,
    req: Requirement,
    config: LintConfig,
    analyses: dict[RequirementVersion, VersionAnalysis],
) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for version in req.versions:
        loc = Location(doc_name, req.id, _version_label(version))
        analysis = analyses[version]
        if analysis.token_count > config.max_tokens:
            findings.append(
                LintFinding(
                    LintRule.L2_LENGTH,
                    loc,
                    f"version has {analysis.token_count} tokens "
                    f"(limit {config.max_tokens})",
                    score=float(analysis.token_count),
                )
            )
        procedures = {m.canonical for m in analysis.mentions}
        if len(procedures) > config.max_procedures:
            findings.append(
                LintFinding(
                    LintRule.L2_LENGTH,
                    loc,
                    f"version covers {len(procedures)} procedures "
                    f"(limit {config.max_procedures}): "
                    + ", ".join(sorted(procedures)),
                    score=float(len(procedures)),
                )
            )
        spans = [
            seg.dep
            for seg in iter_segments(version.content)
            if isinstance(seg, DeploymentSpan)
        ]
        if DeploymentType.SA in spans and DeploymentType.NSA in spans:
            findings.append(
                LintFinding(
                    LintRule.L2_LENGTH,
                    loc,
                    "version mixes SA and NSA deployment behavior",
                )
            )
            alternations = sum(
                1 for x, y in zip(spans, spans[1:]) if x is not y
            )
            if alternations > 1:
                findings.append(
                    LintFinding(
                        LintRule.L2_LENGTH,
                        loc,
                        f"deployment behavior alternates {alternations} times "
                        "between SA and NSA",
                        score=float(alternations),
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# L3: standardization
# ---------------------------------------------------------------------------

_BRACKET_RE = re.compile(r"\[[^\[\]]{1,40}\]")
# A tag in any case or spacing: [Before CBxxxxxx], [CBxxxxxx], [End CBxxxxxx],
# [SA], [NSA], [End SA] or [End NSA].
_VARIANT_RE = re.compile(
    rf"(?:(?:before|end)\s+)?{DEVELOPMENT_ID_PATTERN}|(?:end\s+)?n?sa", re.IGNORECASE
)
_VARIANT_DEV_RE = re.compile(DEVELOPMENT_ID_PATTERN, re.IGNORECASE)


def _recognizable_variant(candidate: str) -> bool:
    return _VARIANT_RE.fullmatch(candidate[1:-1].strip()) is not None


def canonical_phrase(canonical: str) -> str:
    """The surface form a mention of `canonical` has when written canonically."""
    return " ".join(t.text for t in tokenize(canonical))


def check_standardization(
    docs: list[SpecDocument], analyses: dict[RequirementVersion, VersionAnalysis]
) -> list[LintFinding]:
    findings: list[LintFinding] = []
    phrases: dict[str, str] = {}  # canonical name -> canonical_phrase
    for doc in docs:
        for req in doc.iter_requirements():
            # tag style variants seen per development id, across all versions
            styles: dict[str, set[str]] = {}
            for version in req.versions:
                loc = Location(doc.name, req.id, _version_label(version))
                for mention in analyses[version].mentions:
                    phrase = phrases.get(mention.canonical)
                    if phrase is None:
                        phrase = phrases[mention.canonical] = canonical_phrase(
                            mention.canonical
                        )
                    if mention.surface != phrase:
                        findings.append(
                            LintFinding(
                                LintRule.L3_STANDARDIZATION,
                                loc,
                                f"non-canonical name {mention.surface!r}; "
                                f"use {mention.canonical!r}",
                            )
                        )
                raw = render_segments(version.content)
                for m in _BRACKET_RE.finditer(raw):
                    candidate = m.group()
                    if TAG_RE.fullmatch(candidate):
                        continue
                    if _recognizable_variant(candidate):
                        findings.append(
                            LintFinding(
                                LintRule.L3_STANDARDIZATION,
                                loc,
                                f"non-canonical tag style {candidate!r}",
                            )
                        )
                        dev_match = _VARIANT_DEV_RE.search(candidate)
                        if dev_match:
                            styles.setdefault(
                                dev_match.group().upper(), set()
                            ).add(candidate)
                for dev in iter_dev_ids(version.content):
                    styles.setdefault(dev.upper(), set()).add("canonical")
            for dev, forms in sorted(styles.items()):
                if len(forms) > 1:
                    findings.append(
                        LintFinding(
                            LintRule.L3_STANDARDIZATION,
                            Location(doc.name, req.id),
                            f"development {dev} tagged in {len(forms)} styles "
                            "within one requirement",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# L4: grammar
# ---------------------------------------------------------------------------

_TERMINAL_PUNCT = (".", "!", "?")


def check_grammar(doc_name: str, req: Requirement) -> list[LintFinding]:
    findings: list[LintFinding] = []
    if not is_valid_requirement_id(req.id):
        findings.append(
            LintFinding(
                LintRule.L4_GRAMMAR,
                Location(doc_name, req.id),
                f"requirement id {req.id!r} violates the id grammar (3-64 uppercase "
                "ASCII letters, digits and underscores, at least one a letter)",
            )
        )
    for version in req.versions:
        loc = Location(doc_name, req.id, _version_label(version))
        flagged_devs = set()
        blocks = [s for s in iter_segments(version.content) if isinstance(s, DevBlock)]
        for block in blocks:
            if block.dev not in flagged_devs and any(
                c.islower() for c in block.dev
            ):
                flagged_devs.add(block.dev)
                findings.append(
                    LintFinding(
                        LintRule.L4_GRAMMAR,
                        loc,
                        f"development id {block.dev} contains lowercase letters",
                    )
                )
            if not block.before:
                findings.append(
                    LintFinding(
                        LintRule.L4_GRAMMAR,
                        loc,
                        f"development block {block.dev} has an empty before-part",
                    )
                )
            if not block.after:
                findings.append(
                    LintFinding(
                        LintRule.L4_GRAMMAR,
                        loc,
                        f"development block {block.dev} has an empty after-part",
                    )
                )
        leaves = _plain_texts(version.content)
        if leaves and not leaves[-1].rstrip().endswith(_TERMINAL_PUNCT):
            findings.append(
                LintFinding(
                    LintRule.L4_GRAMMAR,
                    loc,
                    "version content does not end with terminal punctuation",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# L5: dispersion
# ---------------------------------------------------------------------------


def check_dispersion(
    docs: list[SpecDocument],
    analyses: dict[RequirementVersion, VersionAnalysis],
    config: LintConfig,
) -> list[LintFinding]:
    sections: dict[str, dict[tuple[str, tuple[str, ...]], Location]] = {}
    first_seen: dict[str, Location] = {}
    for doc, req, version in _iter_versions(docs):
        for mention in analyses[version].mentions:
            key = (doc.name, req.section_path)
            loc = Location(doc.name, req.id, _version_label(version))
            per_proc = sections.setdefault(mention.canonical, {})
            per_proc.setdefault(key, loc)
            first_seen.setdefault(mention.canonical, loc)

    findings: list[LintFinding] = []
    for canonical in sorted(sections):
        spots = sections[canonical]
        if len(spots) <= config.max_sections:
            continue
        places = "; ".join(
            f"{doc}:{'/'.join(path) or '(root)'}" for doc, path in sorted(spots)
        )
        findings.append(
            LintFinding(
                LintRule.L5_DISPERSION,
                first_seen[canonical],
                f"procedure {canonical!r} is mentioned in {len(spots)} sections "
                f"(limit {config.max_sections}): {places}",
                score=float(len(spots)),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


# The rules that read `analyse_versions`.
_ANALYSED_RULES = frozenset(
    {LintRule.L2_LENGTH, LintRule.L3_STANDARDIZATION, LintRule.L5_DISPERSION}
)


def lint_corpus(
    docs: list[SpecDocument],
    registry: DevelopmentRegistry,
    lexicon: Lexicon,
    config: LintConfig,
) -> list[LintFinding]:
    """Run every enabled rule, deterministically ordered."""
    findings: list[LintFinding] = []
    if LintRule.L1_DUPLICATION in config.enabled:
        findings.extend(detect_duplication(docs, registry, config))
    # After L1, so that L1's records are freed before the analyses are built.
    analyses = (
        analyse_versions(docs, lexicon)
        if config.enabled & _ANALYSED_RULES
        else {}
    )
    for doc in docs:
        for req in doc.iter_requirements():
            if LintRule.L2_LENGTH in config.enabled:
                findings.extend(check_length(doc.name, req, config, analyses))
            if LintRule.L4_GRAMMAR in config.enabled:
                findings.extend(check_grammar(doc.name, req))
    if LintRule.L3_STANDARDIZATION in config.enabled:
        findings.extend(check_standardization(docs, analyses))
    if LintRule.L5_DISPERSION in config.enabled:
        findings.extend(check_dispersion(docs, analyses, config))
    findings.sort(
        key=lambda f: (
            f.location.document,
            f.location.requirement,
            f.rule.value,
            f.location.version,
            f.message,
        )
    )
    return findings
