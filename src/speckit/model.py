"""Domain model for versioned, release-tagged specification requirements."""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Union

# Each id is ASCII and matched whole (`fullmatch`): `\d` would take any
# Unicode digit, and `$` would also match before a final "\n".  A revision
# has no leading zero, so each release has one spelling.
RELEASE_ID_RE = re.compile(r"([0-9]{2})R([1-9][0-9]*)")
DEVELOPMENT_ID_PATTERN = r"CB[0-9A-Za-z]{6}"
DEVELOPMENT_ID_RE = re.compile(DEVELOPMENT_ID_PATTERN)
# The canonical inline tag, in exact case with one inner space:
# [Before CBxxxxxx], [CBxxxxxx], [End CBxxxxxx], [SA], [NSA], [End SA], [End NSA].
TAG_PATTERN = rf"\[(?:(?:Before |End )?{DEVELOPMENT_ID_PATTERN}|(?:End )?N?SA)\]"
TAG_RE = re.compile(TAG_PATTERN)
REQUIREMENT_ID_RE = re.compile(r"(?=.*[A-Z])[A-Z0-9_]{3,64}")


class ReleaseId(tuple):
    """Software release identifier, rendered as "NNRk" (e.g. "01R1").

    An immutable (major, revision) tuple: order, equality and hashing are
    tuple's own, on the integers, so "02R1" > "01R9".
    """

    __slots__ = ()

    def __new__(cls, major: int, revision: int) -> "ReleaseId":
        if major < 0 or major > 99:
            raise ValueError(f"release major out of range: {major}")
        if revision < 1:
            raise ValueError(f"release revision must be positive: {revision}")
        return tuple.__new__(cls, (major, revision))

    def __getnewargs__(self) -> tuple[int, int]:  # copy and pickle call __new__ with these
        return tuple(self)

    major = property(itemgetter(0))
    revision = property(itemgetter(1))

    @classmethod
    def parse(cls, text: str) -> "ReleaseId":
        m = RELEASE_ID_RE.fullmatch(text)
        if not m:
            raise ValueError(f"malformed release id: {text!r}")
        return cls(major=int(m.group(1)), revision=int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.major:02d}R{self.revision}"

    def __repr__(self) -> str:
        return f"ReleaseId(major={self.major}, revision={self.revision})"


def compare_releases(a: ReleaseId, b: ReleaseId) -> int:
    """Total order on releases: -1 if a < b, 0 if equal, 1 if a > b."""
    return (a > b) - (a < b)


def is_valid_development_id(text: str) -> bool:
    return bool(DEVELOPMENT_ID_RE.fullmatch(text))


def is_valid_requirement_id(text: str) -> bool:
    return bool(REQUIREMENT_ID_RE.fullmatch(text))


class DeploymentType(Enum):
    SA = "SA"
    NSA = "NSA"


@dataclass(frozen=True)
class PlainText:
    """Untagged requirement text; never empty after trimming."""

    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("PlainText must be non-empty after trimming")


@dataclass(frozen=True)
class DevBlock:
    """A development-change block: replaced behavior and its replacement.

    `before` holds the behavior valid until the development's release,
    `after` the behavior valid from it.  Neither part may contain another
    DevBlock.
    """

    dev: str
    before: tuple["ContentSegment", ...]
    after: tuple["ContentSegment", ...]

    def __post_init__(self) -> None:
        if not is_valid_development_id(self.dev):
            raise ValueError(f"malformed development id: {self.dev!r}")
        for seg in iter_segments(self.before + self.after):
            if isinstance(seg, DevBlock):
                raise ValueError("DevBlock parts must not nest DevBlocks")


@dataclass(frozen=True)
class DeploymentSpan:
    """Content valid only for one deployment type (SA or NSA)."""

    dep: DeploymentType
    body: tuple["ContentSegment", ...]

    def __post_init__(self) -> None:
        for seg in iter_segments(self.body):
            if isinstance(seg, DeploymentSpan) and seg.dep is self.dep:
                raise ValueError(f"nested [{self.dep.value}] span")


ContentSegment = Union[PlainText, DevBlock, DeploymentSpan]


def iter_segments(segments: tuple[ContentSegment, ...]) -> Iterator[ContentSegment]:
    """Yield every segment of the tree in document order, each before its parts.

    A DevBlock is followed by its `before` part, then its `after` part; a
    DeploymentSpan by its body.
    """
    for seg in segments:
        yield seg
        if isinstance(seg, DevBlock):
            yield from iter_segments(seg.before)
            yield from iter_segments(seg.after)
        elif isinstance(seg, DeploymentSpan):
            yield from iter_segments(seg.body)


def iter_dev_ids(segments: tuple[ContentSegment, ...]) -> Iterator[str]:
    """Yield every development id tagged anywhere in `segments`, in order."""
    return (seg.dev for seg in iter_segments(segments) if isinstance(seg, DevBlock))


def merge_adjacent_plain(segments: list[ContentSegment]) -> tuple[ContentSegment, ...]:
    """Join each run of adjacent PlainText segments into one, space-separated."""
    merged: list[ContentSegment] = []
    for seg in segments:
        if isinstance(seg, PlainText) and merged and isinstance(merged[-1], PlainText):
            merged[-1] = PlainText(merged[-1].text + " " + seg.text)
        else:
            merged.append(seg)
    return tuple(merged)


@dataclass(frozen=True)
class RequirementVersion:
    """One release-scoped version of a requirement.

    `last_release` is None while the version is still valid (open-ended).
    """

    first_release: ReleaseId
    last_release: Optional[ReleaseId]
    content: tuple[ContentSegment, ...]

    def __post_init__(self) -> None:
        if self.last_release is not None and self.last_release < self.first_release:
            raise ValueError(
                f"version range inverted: {self.first_release} > {self.last_release}"
            )

    def contains(self, r: ReleaseId) -> bool:
        if self.last_release is None:
            return self.first_release <= r
        return self.first_release <= r <= self.last_release

    def overlaps(self, other: "RequirementVersion") -> bool:
        a_last = self.last_release
        b_last = other.last_release
        if a_last is not None and a_last < other.first_release:
            return False
        if b_last is not None and b_last < self.first_release:
            return False
        return True


@dataclass(frozen=True)
class Requirement:
    """Uniquely identified unit with release-scoped versions of tagged content."""

    id: str
    versions: tuple[RequirementVersion, ...]
    section_path: tuple[str, ...] = ()
    source_line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.versions:
            raise ValueError(f"requirement {self.id!r} has no versions")
        open_count = sum(1 for v in self.versions if v.last_release is None)
        if open_count > 1:
            raise ValueError(f"requirement {self.id!r} has {open_count} open versions")
        ordered = sorted(self.versions, key=lambda v: v.first_release)
        for a, b in zip(ordered, ordered[1:]):
            if a.overlaps(b):
                raise ValueError(
                    f"requirement {self.id!r} versions overlap at {b.first_release}"
                )

    def open_version(self) -> Optional[RequirementVersion]:
        for v in self.versions:
            if v.last_release is None:
                return v
        return None


def version_at(req: Requirement, r: ReleaseId) -> Optional[RequirementVersion]:
    """Return the unique version valid at release `r`, or None."""
    for v in req.versions:
        if v.contains(r):
            return v
    return None


@dataclass(frozen=True)
class Section:
    """A titled document section holding requirements and subsections."""

    title: str
    requirements: tuple[Requirement, ...] = ()
    subsections: tuple["Section", ...] = ()

    def __post_init__(self) -> None:
        if not self.title.strip():
            raise ValueError("section title must be non-empty")


@dataclass(frozen=True)
class SpecDocument:
    """A named specification document: a tree of sections with requirements."""

    name: str
    sections: tuple[Section, ...] = ()

    def iter_requirements(self) -> Iterator[Requirement]:
        def walk(sections: tuple[Section, ...]) -> Iterator[Requirement]:
            for sec in sections:
                yield from sec.requirements
                yield from walk(sec.subsections)

        yield from walk(self.sections)


@dataclass(frozen=True)
class DevelopmentRegistry:
    """Maps each development id to the release that introduces it."""

    entries: Mapping[str, ReleaseId]

    def __contains__(self, dev: str) -> bool:
        return dev in self.entries

    def release_of(self, dev: str) -> ReleaseId:
        return self.entries[dev]

    def releases(self) -> set[ReleaseId]:
        return set(self.entries.values())


def release_universe(
    docs: list[SpecDocument], registry: DevelopmentRegistry
) -> list[ReleaseId]:
    """Ordered list of every release known to the corpus or the registry."""
    releases = registry.releases()
    for doc in docs:
        for req in doc.iter_requirements():
            for v in req.versions:
                releases.add(v.first_release)
                if v.last_release is not None:
                    releases.add(v.last_release)
    return sorted(releases)


def previous_release(universe: list[ReleaseId], r: ReleaseId) -> Optional[ReleaseId]:
    """The release immediately before `r` in the ordered universe, if any."""
    i = bisect_left(universe, r)
    return universe[i - 1] if i else None
