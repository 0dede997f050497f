"""Release resolution: effective requirement text at a release and deployment.

A development block reads as its `after` text from the release that
introduces the development onward, and as its `before` text earlier.
Deployment spans are kept or dropped depending on the requested deployment.
`baseline` performs the editorial equivalent: it deletes a development's
tags while keeping the behavior the development introduced, splitting the
requirement into a closed and a new open version.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import DevelopmentNotPresentError, UnknownDevelopmentError
from .model import (
    ContentSegment,
    DeploymentSpan,
    DeploymentType,
    DevBlock,
    DevelopmentRegistry,
    PlainText,
    ReleaseId,
    Requirement,
    RequirementVersion,
    iter_dev_ids,
    merge_adjacent_plain,
    previous_release,
    version_at,
)

# A '.' or ';' and the whitespace after it.  The mark is captured, so the
# split keeps it and `_sentences` joins it back onto its sentence: a
# look-behind split gives the same sentences, but no prefix scan can skip to
# a look-behind, so the engine tries it at every character.
_SENTENCE_SPLIT_RE = re.compile(r"([.;])\s+")
# Entries kept by each sentence table.  Most diffs compare texts that repeat
# across releases and requirements (about 3,700 distinct texts over the
# 15,000 diffs of the long-history benchmark), so each is split once.  The
# bound keeps a long-lived process from holding every text it has diffed.
_SENTENCE_MAXSIZE = 4096
# (text, reachable devs) where no version is valid: stands in for
# resolve_details' answer, and for an index record at a release with none.
_UNRESOLVED: tuple[None, frozenset[str]] = (None, frozenset())


@dataclass(frozen=True)
class ResolvedRequirement:
    """Tag-free effective text of one requirement at one release."""

    id: str
    release: ReleaseId
    deployment: Optional[DeploymentType]  # None means both deployments
    text: str
    contributing_devs: frozenset[str]


class DiffKind(Enum):
    ADDED = "added"
    REMOVED = "removed"
    UNCHANGED = "unchanged"


class DiffSegment(NamedTuple):
    kind: DiffKind
    text: str


class BehaviorDiff(NamedTuple):
    id: str
    release_a: ReleaseId
    release_b: ReleaseId
    segments: tuple[DiffSegment, ...]
    causes: frozenset[str]

    @property
    def has_changes(self) -> bool:
        return any(s.kind is not DiffKind.UNCHANGED for s in self.segments)

    def added(self) -> list[str]:
        return [s.text for s in self.segments if s.kind is DiffKind.ADDED]

    def removed(self) -> list[str]:
        return [s.text for s in self.segments if s.kind is DiffKind.REMOVED]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "release_a": str(self.release_a),
            "release_b": str(self.release_b),
            "segments": [[s.kind.value, s.text] for s in self.segments],
            "causes": sorted(self.causes),
        }


def _resolve_segments(
    segments: tuple[ContentSegment, ...],
    r: ReleaseId,
    dep: Optional[DeploymentType],
    registry: DevelopmentRegistry,
    seen: set[str],
) -> str:
    parts: list[str] = []
    for seg in segments:
        if isinstance(seg, PlainText):
            parts.append(seg.text)
            continue
        if isinstance(seg, DevBlock):
            if seg.dev not in registry:
                raise UnknownDevelopmentError(seg.dev)
            seen.add(seg.dev)
            chosen = seg.after if registry.release_of(seg.dev) <= r else seg.before
        elif dep is None or seg.dep is dep:
            chosen = seg.body
        else:
            continue
        text = _resolve_segments(chosen, r, dep, registry, seen)
        if text:
            parts.append(text)
    return " ".join(parts)


def resolve_details(
    req: Requirement,
    r: ReleaseId,
    dep: Optional[DeploymentType],
    registry: DevelopmentRegistry,
) -> Optional[tuple[str, set[str]]]:
    """(text, reachable devs) of `req` at release `r`, as an index record holds them.

    None when no version is valid at `r`.  A development is reachable when
    its block was visited; the walk took its after-part exactly when it is
    also in force at `r`.
    """
    version = version_at(req, r)
    if version is None:
        return None
    seen: set[str] = set()
    return _resolve_segments(version.content, r, dep, registry, seen), seen


def resolve_runs(
    req: Requirement,
    universe: list[ReleaseId],
    dep: Optional[DeploymentType],
    registry: DevelopmentRegistry,
) -> Iterator[tuple[ReleaseId, ReleaseId, str, set[str]]]:
    """(first, last, text, seen) per run of `universe` with one text, `seen`
    the reachable devs.

    `universe` is ordered.  A run starts at a release where a version of `req`
    is valid.  It ends before the next release outside that version, and
    before the earliest later release that introduces a dev in `seen`.
    DevBlocks never nest, so under one version and deployment the blocks
    visited do not depend on the release: only such an introduction changes
    the text.  Each run costs one `resolve_details`, at its first release.
    """
    i = 0
    while i < len(universe):
        first = universe[i]
        version = version_at(req, first)
        if version is None:
            i += 1
            continue
        text, seen = resolve_details(req, first, dep, registry)
        stop = min(
            (r for r in map(registry.release_of, seen) if r > first), default=None
        )
        i += 1
        while (
            i < len(universe)
            and version.contains(universe[i])
            and (stop is None or universe[i] < stop)
        ):
            i += 1
        yield first, universe[i - 1], text, seen


def materialize(
    req: Requirement,
    r: ReleaseId,
    dep: Optional[DeploymentType],
    registry: DevelopmentRegistry,
) -> Optional[ResolvedRequirement]:
    """Effective text of `req` at release `r`, or None when no version is valid.

    The contributing devs are the reachable ones in force at `r`: those
    whose after-part the walk took.
    """
    details = resolve_details(req, r, dep, registry)
    if details is None:
        return None
    text, seen = details
    return ResolvedRequirement(
        id=req.id,
        release=r,
        deployment=dep,
        text=text,
        contributing_devs=frozenset(d for d in seen if registry.release_of(d) <= r),
    )


def _inline_dev(
    segments: tuple[ContentSegment, ...], dev: str
) -> tuple[ContentSegment, ...]:
    out: list[ContentSegment] = []
    for seg in segments:
        if isinstance(seg, DevBlock) and seg.dev == dev:
            out.extend(seg.after)
        elif isinstance(seg, DeploymentSpan):
            out.append(DeploymentSpan(seg.dep, _inline_dev(seg.body, dev)))
        else:
            out.append(seg)
    return merge_adjacent_plain(out)


def baseline(
    req: Requirement,
    dev: str,
    registry: DevelopmentRegistry,
    universe: list[ReleaseId],
) -> Requirement:
    """Delete `dev`'s tags from the open version, keeping the introduced behavior.

    The open version is closed at the release preceding the development's
    introducing release in `universe` (the corpus release universe), and a
    new open version starting at that release carries the development's
    after-text inline.
    """
    if dev not in registry:
        raise UnknownDevelopmentError(dev)
    open_version = req.open_version()
    if open_version is None or dev not in set(iter_dev_ids(open_version.content)):
        raise DevelopmentNotPresentError(req.id, dev)

    introduced = registry.release_of(dev)
    prev = previous_release(universe, introduced)
    if prev is None or prev < open_version.first_release:
        raise ValueError(
            f"cannot close open version of {req.id}: no release in the universe "
            f"lies between {open_version.first_release} and {introduced}"
        )

    closed = RequirementVersion(
        first_release=open_version.first_release,
        last_release=prev,
        content=open_version.content,
    )
    fresh = RequirementVersion(
        first_release=introduced,
        last_release=None,
        content=_inline_dev(open_version.content, dev),
    )
    versions = tuple(closed if v is open_version else v for v in req.versions) + (fresh,)
    return Requirement(
        id=req.id,
        versions=versions,
        section_path=req.section_path,
        source_line=req.source_line,
    )


@lru_cache(maxsize=_SENTENCE_MAXSIZE)
def _sentences(text: str) -> tuple[str, ...]:
    """`text`'s sentences, as `split_sentences` gives them."""
    parts = _SENTENCE_SPLIT_RE.split(text)  # sentence, mark, sentence, ..., rest
    rest = parts.pop()
    pairs = iter(parts)
    sentences = [sentence + mark for sentence, mark in zip(pairs, pairs)]
    if rest:
        sentences.append(rest)
    return tuple(sentences)


def _sentences_of(text: Optional[str]) -> tuple[str, ...]:
    """`_sentences(text)`, and no sentence for no text."""
    return _sentences(text) if text is not None else ()


@lru_cache(maxsize=_SENTENCE_MAXSIZE)
def _unchanged(text: str) -> tuple[DiffSegment, ...]:
    """`text`'s sentences as unchanged segments: the diff of `text` with itself."""
    return tuple(map(DiffSegment, repeat(DiffKind.UNCHANGED), _sentences(text)))


def split_sentences(text: str) -> list[str]:
    """Sentence-ish segments: split after '.'/';' followed by whitespace."""
    return list(_sentences(text))


def lcs_diff(
    a: Sequence[str],
    b: Sequence[str],
    unchanged_a: Optional[Sequence[DiffSegment]] = None,
) -> list[DiffSegment]:
    """LCS-aligned diff with a swap-symmetric tie break.

    At DP ties the lexicographically larger element is dropped, which makes
    the alignment invariant under swapping the inputs: the added segments of
    diff(a, b) equal the removed segments of diff(b, a) in order.

    Equal ends are peeled first, with the same result: the backtrack matches
    a common suffix first.  When no sentence repeats on either side, each
    common leading sentence occurs nowhere else on either side, so it adds one
    to every inner cell and can pair with nothing else.  So does each sentence
    both middles hold, if they hold them in one order: those sentences are
    then the whole LCS, and between two of them the middles share nothing, so
    each gap is diffed alone.  An input with a repeated sentence has only its
    common suffix peeled, and its middle is diffed by the table.  Unchanged
    sentences are items of `unchanged_a`, `a`'s diff with itself, when it is
    given.
    """
    end_a, end_b = len(a), len(b)
    while end_a and end_b and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    start = 0
    anchors: list[tuple[int, int]] = []  # positions in a and b of paired middle sentences
    in_a, in_b = set(a), set(b)
    if len(in_a) == len(a) and len(in_b) == len(b):
        limit = min(end_a, end_b)
        while start < limit and a[start] == b[start]:
            start += 1
        shared = in_b.intersection(a[start:end_a])
        if shared:
            shared_a = [i for i in range(start, end_a) if a[i] in shared]
            shared_b = [j for j in range(start, end_b) if b[j] in shared]
            if [a[i] for i in shared_a] == [b[j] for j in shared_b]:
                anchors = list(zip(shared_a, shared_b))

    def unchanged(lo: int, hi: int) -> Iterable[DiffSegment]:
        """`a[lo:hi]` as unchanged segments, sliced from `unchanged_a` if given."""
        if unchanged_a is not None:
            return unchanged_a[lo:hi]
        return map(DiffSegment, repeat(DiffKind.UNCHANGED), a[lo:hi])

    ops = list(unchanged(0, start))
    i0 = j0 = start
    for i, j in anchors:
        if i > i0 or j > j0:
            ops += _table_diff(a[i0:i], b[j0:j])
        ops += unchanged(i, i + 1)
        i0, j0 = i + 1, j + 1
    ops += _table_diff(a[i0:end_a], b[j0:end_b])
    ops += unchanged(end_a, len(a))
    return ops


def _table_diff(a: Sequence[str], b: Sequence[str]) -> list[DiffSegment]:
    """`lcs_diff` by the (len(a) + 1) x (len(b) + 1) LCS table, nothing peeled.

    When `a` and `b` share no sentence every cell is 0, so the backtrack only
    applies the tie rule: no table is filled, and each step compares the
    last sentences left.
    """
    n, m = len(a), len(b)
    table = None
    if not set(a).isdisjoint(b):
        table = [[0] * (m + 1) for _ in range(n + 1)]
        for i in range(1, n + 1):
            row = table[i]
            prev = table[i - 1]
            ai = a[i - 1]
            for j in range(1, m + 1):
                if ai == b[j - 1]:
                    row[j] = prev[j - 1] + 1
                else:
                    row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]

    ops: list[DiffSegment] = []
    i, j = n, m
    while i > 0 and j > 0:
        ai, bj = a[i - 1], b[j - 1]
        if ai == bj:
            ops.append(DiffSegment(DiffKind.UNCHANGED, ai))
            i -= 1
            j -= 1
            continue
        # > 0 when dropping a's sentence keeps the longer common subsequence
        lead = 0 if table is None else table[i - 1][j] - table[i][j - 1]
        if lead > 0 or (lead == 0 and ai > bj):
            ops.append(DiffSegment(DiffKind.REMOVED, ai))
            i -= 1
        else:
            ops.append(DiffSegment(DiffKind.ADDED, bj))
            j -= 1
    while i > 0:
        ops.append(DiffSegment(DiffKind.REMOVED, a[i - 1]))
        i -= 1
    while j > 0:
        ops.append(DiffSegment(DiffKind.ADDED, b[j - 1]))
        j -= 1
    ops.reverse()
    return ops


def diff_texts(
    req_id: str,
    release_a: ReleaseId,
    release_b: ReleaseId,
    text_a: Optional[str],
    text_b: Optional[str],
    devs_a: AbstractSet[str],
    devs_b: AbstractSet[str],
    dev_releases: Mapping[str, ReleaseId],
    *,
    memo: bool = False,
) -> BehaviorDiff:
    """Build a BehaviorDiff from two already-resolved texts.

    With `memo`, unchanged sentences are items of `_unchanged(text_a)`, so a
    text diffed again builds no new unchanged segments.  That pays for a
    caller that asks for the same pairs again, such as a stream of queries;
    for a caller that diffs each pair once, the table would only hold memory.
    """
    if text_b == text_a:
        # The LCS backtrack over equal inputs only moves diagonally.
        segments = _unchanged(text_a) if text_a is not None else ()
        return BehaviorDiff(req_id, release_a, release_b, segments, frozenset())
    sentences_a = _sentences_of(text_a)
    sentences_b = _sentences_of(text_b)
    unchanged_a = _unchanged(text_a) if memo and text_a is not None else None
    segments = tuple(lcs_diff(sentences_a, sentences_b, unchanged_a))
    causes: frozenset[str] = frozenset()
    if sentences_a != sentences_b:  # exactly when some segment is not unchanged
        causes = diff_causes(release_a, release_b, devs_a, devs_b, dev_releases)
    return BehaviorDiff(req_id, release_a, release_b, segments, causes)


def diff_causes(
    release_a: ReleaseId,
    release_b: ReleaseId,
    devs_a: AbstractSet[str],
    devs_b: AbstractSet[str],
    dev_releases: Mapping[str, ReleaseId],
) -> frozenset[str]:
    """The devs of `devs_a | devs_b` in force at exactly one of the two releases.

    These are the causes `diff_texts` gives a diff that has changes.
    """
    causes: set[str] = set()
    for dev in devs_a | devs_b:
        introduced = dev_releases[dev]
        if (introduced <= release_a) != (introduced <= release_b):
            causes.add(dev)
    return frozenset(causes)


def diff_behavior(
    req: Requirement,
    a: ReleaseId,
    b: ReleaseId,
    dep: Optional[DeploymentType],
    registry: DevelopmentRegistry,
) -> BehaviorDiff:
    """Sentence-level behavior diff of one requirement between two releases."""
    text_a, devs_a = resolve_details(req, a, dep, registry) or _UNRESOLVED
    text_b, devs_b = resolve_details(req, b, dep, registry) or _UNRESOLVED
    return diff_texts(req.id, a, b, text_a, text_b, devs_a, devs_b, registry.entries)
