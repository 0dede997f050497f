"""Parser and serializer for the `.spec` text format.

A document is line-oriented:

    === SPEC FORMAT 1 ===
    # Section title
    ## Subsection title
    === REQ <ID> ===
    --- VERSION first=<release> last=<release|open> ---
    content lines with inline tags
    === END ===

Inline content tags:

    [Before CBxxxxxx] old text [CBxxxxxx] new text [End CBxxxxxx]
    [SA] standalone-only text [End SA]     (likewise [NSA])

A deployment span with no matching end tag extends to the end of its
enclosing part.  Tags are matched by `model.TAG_RE`, the grammar the tokenizer
and lint also read: case-sensitive and exact, so case or spacing variants are
left in plain text for the lint stage to flag.  Parsing recovers per
requirement block: a malformed block is reported and dropped, and parsing
continues with the next block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional

from .errors import RegistryError
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
    Section,
    SpecDocument,
    TAG_RE,
    is_valid_development_id,
    iter_dev_ids,
)

FORMAT_HEADER = "=== SPEC FORMAT 1 ==="

_FORMAT_RE = re.compile(r"^=== SPEC FORMAT \d+ ===$")
_REQ_OPEN_RE = re.compile(r"^=== REQ (\S+) ===$")
_END_RE = re.compile(r"^=== END ===$")
_VERSION_RE = re.compile(r"^--- VERSION first=(\S+) last=(\S+) ---$")
_HEADING_RE = re.compile(r"^(#+)\s+(\S.*)$")
_MARKERISH_RE = re.compile(r"^(===.*===|---.*---)$")


class ParseErrorKind(Enum):
    UNBALANCED_TAG = "UnbalancedTag"
    NESTED_DEV_BLOCK = "NestedDevBlock"
    BAD_RELEASE_ID = "BadReleaseId"
    BAD_REQUIREMENT_HEADER = "BadRequirementHeader"
    DUPLICATE_ID = "DuplicateId"
    DANGLING_END = "DanglingEnd"
    UNKNOWN_DEVELOPMENT = "UnknownDevelopment"


# Error for a line outside any requirement block that is not blank, a format
# header, a heading or a block opener: the first pattern that matches wins,
# and "{line}" in the message stands for the line.
_STRAY_LINE_ERRORS: tuple[tuple[re.Pattern[str], ParseErrorKind, str], ...] = (
    (_END_RE, ParseErrorKind.DANGLING_END, "=== END === without open block"),
    (_VERSION_RE, ParseErrorKind.BAD_REQUIREMENT_HEADER, "version header outside requirement block"),
    (_MARKERISH_RE, ParseErrorKind.BAD_REQUIREMENT_HEADER, "malformed block marker: {line}"),
    (re.compile(""), ParseErrorKind.BAD_REQUIREMENT_HEADER, "unexpected text outside requirement block"),
)


@dataclass(frozen=True)
class ParseError:
    kind: ParseErrorKind
    line: int
    message: str
    document: str = ""

    def __str__(self) -> str:
        where = f"{self.document}:{self.line}" if self.document else f"line {self.line}"
        return f"{where}: {self.kind.value}: {self.message}"


@dataclass
class ParseResult:
    """Outcome of parsing one document: the well-formed blocks plus all errors."""

    document: SpecDocument
    errors: list[ParseError]

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# Content (inline tag) parsing
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    kind: str  # "root" | "dev" | "span"
    # One part, or a dev frame's before-part and, from its [CBxxxxxx] tag on,
    # its after-part; new segments go to the last part.
    parts: list[list[ContentSegment]] = field(default_factory=lambda: [[]])
    dev: str = ""
    dep: Optional[DeploymentType] = None
    open_line: int = 0
    # a mistyped [End CBxxxxxx] already reported this unclosed dev frame
    misclosed: bool = False


class _ContentParser:
    """State machine over the inline tag grammar, tracking source lines.

    After the first error, tags are still matched so that every error is
    found, but no segment is built: the caller drops the block anyway.
    """

    def __init__(self) -> None:
        self.stack: list[_Frame] = [_Frame(kind="root")]
        self.errors: list[ParseError] = []
        self.buffer: list[str] = []

    def _error(self, kind: ParseErrorKind, line: int, message: str) -> None:
        self.errors.append(ParseError(kind=kind, line=line, message=message))

    def _flush_text(self) -> None:
        text = "".join(self.buffer).strip()
        self.buffer.clear()
        if text and not self.errors:
            self.stack[-1].parts[-1].append(PlainText(text))

    def _pop_frame(self) -> None:
        frame = self.stack.pop()
        if self.errors:
            return
        if frame.kind == "span":
            assert frame.dep is not None
            seg: ContentSegment = DeploymentSpan(frame.dep, tuple(frame.parts[0]))
        else:  # a dev frame closed without error has both parts
            before, after = frame.parts
            seg = DevBlock(frame.dev, tuple(before), tuple(after))
        self.stack[-1].parts[-1].append(seg)

    def _close_spans_in_part(self) -> None:
        # Unclosed deployment spans extend to the end of the enclosing part.
        while self.stack[-1].kind == "span":
            self._pop_frame()

    def feed_line(self, line_no: int, line: str) -> None:
        text = line.strip()
        if not text:
            return
        if self.buffer:
            self.buffer.append(" ")
        pos = 0
        for m in TAG_RE.finditer(text):
            self.buffer.append(text[pos : m.start()])
            pos = m.end()
            self._handle_tag(line_no, m.group())
        self.buffer.append(text[pos:])

    def _handle_tag(self, line: int, tag: str) -> None:
        self._flush_text()
        # "Before", "End" or nothing, then a development id, SA or NSA.
        keyword, _, name = tag[1:-1].rpartition(" ")
        dev = name if name.startswith("CB") else None
        if dev and keyword == "Before":
            if any(f.kind == "dev" for f in self.stack):
                self._error(
                    ParseErrorKind.NESTED_DEV_BLOCK,
                    line,
                    f"{tag} opened inside another development block",
                )
            self.stack.append(_Frame(kind="dev", dev=dev, open_line=line))
        elif dev and not keyword:
            self._close_spans_in_part()
            top = self.stack[-1]
            if top.kind == "dev" and top.dev == dev and len(top.parts) == 1:
                top.parts.append([])
            elif top.kind == "dev" and top.dev == dev:
                self._error(
                    ParseErrorKind.UNBALANCED_TAG, line, f"duplicate {tag} tag"
                )
            else:
                self._error(
                    ParseErrorKind.UNBALANCED_TAG,
                    line,
                    f"{tag} without matching [Before {dev}]",
                )
        elif dev:
            self._close_spans_in_part()
            for opener in reversed(self.stack):
                if opener.kind == "dev" and opener.dev == dev:
                    break
            else:
                opener = None
            top = self.stack[-1]
            if opener is not None:
                # Frames opened after the matching one were left unclosed.
                while self.stack[-1] is not opener:
                    self._abandon_frame()
                if len(opener.parts) == 1:
                    self._error(
                        ParseErrorKind.UNBALANCED_TAG,
                        line,
                        f"{tag} before the [{dev}] tag",
                    )
                self._pop_frame()
            elif top.kind == "dev":
                self._error(
                    ParseErrorKind.UNBALANCED_TAG,
                    line,
                    f"{tag} does not close open block [Before {top.dev}]",
                )
                top.misclosed = True
            else:
                self._error(
                    ParseErrorKind.DANGLING_END, line, f"{tag} without opener"
                )
        elif not keyword:
            dep = DeploymentType(name)
            if any(f.kind == "span" and f.dep is dep for f in self.stack):
                self._error(
                    ParseErrorKind.UNBALANCED_TAG,
                    line,
                    f"{tag} opened inside another {tag} span",
                )
            self.stack.append(_Frame(kind="span", dep=dep, open_line=line))
        else:
            dep = DeploymentType(name)
            top = self.stack[-1]
            if top.kind == "span" and top.dep is dep:
                self._pop_frame()
                return
            # The innermost frame that is a dev frame or a `dep` span decides:
            # a `dep` span open in the current part is improperly nested.
            in_part = next(
                (f.kind == "span" for f in reversed(self.stack)
                 if f.kind == "dev" or f.dep is dep),
                False,
            )
            if in_part:
                self._error(
                    ParseErrorKind.UNBALANCED_TAG,
                    line,
                    f"{tag} closes an improperly nested span",
                )
            else:
                self._error(
                    ParseErrorKind.DANGLING_END, line, f"{tag} without opener"
                )

    def _abandon_frame(self) -> None:
        """Pop the innermost frame, reporting a dev frame left unclosed once."""
        top = self.stack[-1]
        if top.kind == "dev" and not top.misclosed:
            missing = f"[{top.dev}]" if len(top.parts) == 1 else f"[End {top.dev}]"
            self._error(
                ParseErrorKind.UNBALANCED_TAG,
                top.open_line,
                f"[Before {top.dev}] never closed: missing {missing}",
            )
        self._pop_frame()

    def finish(self) -> list[ContentSegment]:
        self._flush_text()
        while len(self.stack) > 1:
            self._abandon_frame()
        return self.stack[0].parts[0]


def _parse_lines(
    numbered_lines: Iterable[tuple[int, str]],
) -> tuple[list[ContentSegment], list[ParseError]]:
    """Run the tag state machine over (line number, line) pairs."""
    machine = _ContentParser()
    for line_no, line in numbered_lines:
        machine.feed_line(line_no, line)
    return machine.finish(), machine.errors


def _lines(text: str) -> list[str]:
    r"""`text` split at "\n", "\r\n" and "\r" only, as `open()` in text mode
    splits it.  `str.splitlines` also splits at \v, \f, \x1c-\x1e, \x85, U+2028
    and U+2029, which sit inside a line: Word writes a manual line break as \v."""
    if "\r" in text:  # a fast scan: most text has none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_content(text: str) -> tuple[list[ContentSegment], list[ParseError]]:
    """Parse one version's content body into segments; errors use 1-based lines."""
    return _parse_lines(enumerate(_lines(text), start=1))


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


@dataclass
class _VersionDraft:
    first: Optional[ReleaseId]
    last: Optional[ReleaseId]
    content_lines: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class _BlockDraft:
    line: int
    req_id: str
    versions: list[_VersionDraft] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


@dataclass
class _SectionDraft:
    level: int
    title: str
    requirements: list[Requirement] = field(default_factory=list)
    subsections: list["_SectionDraft"] = field(default_factory=list)

    def build(self) -> Section:
        return Section(
            title=self.title,
            requirements=tuple(self.requirements),
            subsections=tuple(s.build() for s in self.subsections),
        )


def parse_document(source: str, name: str = "") -> ParseResult:
    """Parse a `.spec` document; collects every error found in one pass."""
    errors: list[ParseError] = []
    roots: list[_SectionDraft] = []
    stack: list[_SectionDraft] = []
    seen_ids: dict[str, int] = {}
    block: Optional[_BlockDraft] = None

    def close_block(b: _BlockDraft) -> None:
        """Assemble a requirement from a finished block; drop it on any error."""
        block_errors = b.errors
        contents: list[list[ContentSegment]] = []
        for draft in b.versions:
            segments, content_errors = _parse_lines(draft.content_lines)
            block_errors.extend(content_errors)
            contents.append(segments)
        if not b.versions:
            block_errors.append(
                ParseError(
                    ParseErrorKind.BAD_REQUIREMENT_HEADER,
                    b.line,
                    f"requirement {b.req_id} has no versions",
                )
            )
        if b.req_id in seen_ids:
            block_errors.append(
                ParseError(
                    ParseErrorKind.DUPLICATE_ID,
                    b.line,
                    f"duplicate requirement id {b.req_id} "
                    f"(first defined at line {seen_ids[b.req_id]})",
                )
            )
        if not stack:
            block_errors.append(
                ParseError(
                    ParseErrorKind.BAD_REQUIREMENT_HEADER,
                    b.line,
                    f"requirement {b.req_id} appears outside any section",
                )
            )
        errors.extend(block_errors)
        # The model's range checks need every release id (a bad one is None, as
        # an open last one is); they run even beside the block's other errors.
        if block_errors and (
            not b.versions or any(e.kind is ParseErrorKind.BAD_RELEASE_ID for e in block_errors)
        ):
            return
        try:
            req = Requirement(
                id=b.req_id,
                versions=tuple(
                    RequirementVersion(draft.first, draft.last, tuple(segments))
                    for draft, segments in zip(b.versions, contents)
                ),
                section_path=tuple(s.title for s in stack),
                source_line=b.line,
            )
        except ValueError as exc:
            errors.append(
                ParseError(ParseErrorKind.BAD_RELEASE_ID, b.line, str(exc))
            )
            return
        if block_errors:
            return
        seen_ids[b.req_id] = b.line
        stack[-1].requirements.append(req)

    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()

        if block is not None:
            if _END_RE.match(line):
                close_block(block)
                block = None
                continue
            m = _VERSION_RE.match(line)
            if m:
                # first=, then last= (which may be "open"); a bad id stays None
                releases: list[Optional[ReleaseId]] = [None, None]
                for i, text in enumerate(m.groups()):
                    if i == 1 and text == "open":
                        continue
                    try:
                        releases[i] = ReleaseId.parse(text)
                    except ValueError as exc:
                        block.errors.append(
                            ParseError(ParseErrorKind.BAD_RELEASE_ID, line_no, str(exc))
                        )
                block.versions.append(_VersionDraft(*releases))
                continue
            m = _REQ_OPEN_RE.match(line)
            if m:
                block.errors.append(
                    ParseError(
                        ParseErrorKind.BAD_REQUIREMENT_HEADER,
                        line_no,
                        f"requirement {block.req_id} not closed before next block",
                    )
                )
                close_block(block)
                block = _BlockDraft(line=line_no, req_id=m.group(1))
                continue
            if line and not block.versions:
                block.errors.append(
                    ParseError(
                        ParseErrorKind.BAD_REQUIREMENT_HEADER,
                        line_no,
                        "content before the first version header",
                    )
                )
            elif line:
                block.versions[-1].content_lines.append((line_no, line))
            continue

        # Outside any requirement block.
        if not line or _FORMAT_RE.match(line):
            continue
        m = _HEADING_RE.match(line)
        if m:
            level = len(m.group(1))
            title = m.group(2).strip()
            while stack and stack[-1].level >= level:
                stack.pop()
            draft = _SectionDraft(level=level, title=title)
            if stack:
                stack[-1].subsections.append(draft)
            else:
                roots.append(draft)
            stack.append(draft)
            continue
        m = _REQ_OPEN_RE.match(line)
        if m:
            block = _BlockDraft(line=line_no, req_id=m.group(1))
            continue
        kind, message = next(
            (kind, message)
            for pattern, kind, message in _STRAY_LINE_ERRORS
            if pattern.match(line)
        )
        errors.append(ParseError(kind, line_no, message.format(line=line)))

    if block is not None:
        block.errors.append(
            ParseError(
                ParseErrorKind.BAD_REQUIREMENT_HEADER,
                block.line,
                f"requirement {block.req_id} not closed at end of document",
            )
        )
        close_block(block)

    doc = SpecDocument(name=name, sections=tuple(s.build() for s in roots))
    return ParseResult(doc, [replace(err, document=name) for err in errors])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def render_segments(segments: tuple[ContentSegment, ...]) -> str:
    parts: list[str] = []
    for seg in segments:
        if isinstance(seg, PlainText):
            parts.append(seg.text)
        elif isinstance(seg, DevBlock):
            inner = [f"[Before {seg.dev}]"]
            before = render_segments(seg.before)
            if before:
                inner.append(before)
            inner.append(f"[{seg.dev}]")
            after = render_segments(seg.after)
            if after:
                inner.append(after)
            inner.append(f"[End {seg.dev}]")
            parts.append(" ".join(inner))
        else:
            body = render_segments(seg.body)
            if body:
                parts.append(f"[{seg.dep.value}] {body} [End {seg.dep.value}]")
            else:
                parts.append(f"[{seg.dep.value}] [End {seg.dep.value}]")
    return " ".join(parts)


def serialize(doc: SpecDocument) -> str:
    """Render a document in canonical form: LF lines, one content line per version."""
    lines: list[str] = [FORMAT_HEADER]

    def emit_requirement(req: Requirement) -> None:
        lines.append("")
        lines.append(f"=== REQ {req.id} ===")
        for v in req.versions:
            last = "open" if v.last_release is None else str(v.last_release)
            lines.append(f"--- VERSION first={v.first_release} last={last} ---")
            content = render_segments(v.content)
            if content:
                lines.append(content)
        lines.append("=== END ===")

    def emit_section(sec: Section, level: int) -> None:
        lines.append("")
        lines.append("#" * level + " " + sec.title)
        for req in sec.requirements:
            emit_requirement(req)
        for sub in sec.subsections:
            emit_section(sub, level + 1)

    for sec in doc.sections:
        emit_section(sec, 1)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus-level validation and registry loading
# ---------------------------------------------------------------------------


def validate_corpus(
    docs: list[SpecDocument], registry: DevelopmentRegistry
) -> list[ParseError]:
    """Cross-document checks: id uniqueness and development registration."""
    findings: list[ParseError] = []
    seen: dict[str, str] = {}
    for doc in docs:
        for req in doc.iter_requirements():
            if req.id in seen:
                findings.append(
                    ParseError(
                        ParseErrorKind.DUPLICATE_ID,
                        req.source_line or 1,
                        f"requirement id {req.id} already defined in {seen[req.id]}",
                        document=doc.name,
                    )
                )
            else:
                seen[req.id] = doc.name
            for version in req.versions:
                for dev in dict.fromkeys(iter_dev_ids(version.content)):
                    if dev not in registry:
                        findings.append(
                            ParseError(
                                ParseErrorKind.UNKNOWN_DEVELOPMENT,
                                req.source_line or 1,
                                f"requirement {req.id} references unregistered "
                                f"development {dev}",
                                document=doc.name,
                            )
                        )
                    elif registry.release_of(dev) < version.first_release:
                        findings.append(
                            ParseError(
                                ParseErrorKind.BAD_RELEASE_ID,
                                req.source_line or 1,
                                f"development {dev} ({registry.release_of(dev)}) "
                                f"predates first release {version.first_release} "
                                f"of requirement {req.id}",
                                document=doc.name,
                            )
                        )
    return findings


def load_registry(source: str) -> DevelopmentRegistry:
    """Parse a registry file: `<DevelopmentId> <ReleaseId>` lines, `#` comments."""
    entries: dict[str, ReleaseId] = {}
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise RegistryError(f"line {line_no}: expected '<dev> <release>', got {raw!r}")
        dev, release_text = fields
        if not is_valid_development_id(dev):
            raise RegistryError(f"line {line_no}: malformed development id {dev!r}")
        try:
            release = ReleaseId.parse(release_text)
        except ValueError as exc:
            raise RegistryError(f"line {line_no}: {exc}") from exc
        if dev in entries and entries[dev] != release:
            raise RegistryError(
                f"line {line_no}: development {dev} registered twice with "
                f"different releases"
            )
        entries[dev] = release
    return DevelopmentRegistry(entries=entries)


def dump_registry(registry: DevelopmentRegistry) -> str:
    lines = [f"{dev} {release}" for dev, release in sorted(registry.entries.items())]
    return "\n".join(lines) + ("\n" if lines else "")
