"""Helpers shared by several test modules: a nested-tree strategy, reference
implementations and seeded document generators."""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
import random
import re
import unicodedata
from functools import lru_cache
from typing import AbstractSet, Mapping, Optional, Sequence

from hypothesis import strategies as st

import speckit
from speckit import generator
from speckit.dataset import DEFAULT_MIN_TOKENS, DatasetStats, ReleaseDataset
from speckit.generator import _sentence
from speckit.index import FORMAT_VERSION, UNMAPPED, SpecIndex
from speckit.lexicon import Lexicon, find_mentions
from speckit.model import (
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
    merge_adjacent_plain,
    release_universe,
)
from speckit.parser import parse_document, render_segments
from speckit.resolver import BehaviorDiff, DiffKind, DiffSegment, materialize, resolve_details
from speckit.tokenizer import (
    TAG_PATTERN,
    Token,
    TokenKind,
    _classify_chunk,
    has_tokens,
    tokenize,
)

DEV_IDS = ("CB000001", "CB00XXXX")
RELEASES = tuple(ReleaseId.parse(r) for r in ("01R1", "01R2", "02R1", "02R2"))

_PLAIN = st.lists(
    st.sampled_from(["timer", "Starts", "value;", "x1", "REQ_0002", "again."]),
    min_size=1,
    max_size=3,
).map(lambda words: PlainText(" ".join(words)))


@lru_cache(maxsize=None)
def segment_trees(
    deps: frozenset[DeploymentType] = frozenset(), in_dev: bool = False, depth: int = 0
):
    """Valid segment tuples: no DevBlock in a DevBlock, no span inside its own type.

    DevBlocks use the ids in DEV_IDS.  Adjacent plain text is merged, as the
    parser produces it.
    """
    options = [_PLAIN]
    if depth < 3:
        if not in_dev:
            part = segment_trees(deps, True, depth + 1)
            options.append(st.builds(DevBlock, st.sampled_from(DEV_IDS), part, part))
        for dep in DeploymentType:
            if dep not in deps:
                body = segment_trees(deps | {dep}, in_dev, depth + 1)
                options.append(st.builds(DeploymentSpan, st.just(dep), body))
    return st.lists(st.one_of(options), max_size=3).map(merge_adjacent_plain)


# Six releases: version bounds, universes and dev introductions draw from them.
RELEASE_POOL = tuple(
    ReleaseId.parse(r) for r in ("01R1", "01R2", "01R3", "02R1", "02R2", "03R1")
)


@st.composite
def universes(draw):
    """An ordered, non-empty subset of RELEASE_POOL."""
    return sorted(draw(st.sets(st.sampled_from(RELEASE_POOL), min_size=1)))


@st.composite
def registries(draw):
    """Every id in DEV_IDS introduced at a release of RELEASE_POOL."""
    return DevelopmentRegistry(
        {dev: draw(st.sampled_from(RELEASE_POOL)) for dev in DEV_IDS}
    )


@st.composite
def versioned_requirements(draw):
    """A requirement with 1-3 versions over RELEASE_POOL, gaps between them allowed.

    Each release of the pool is skipped, continues the current version or
    starts a new one; the last version may be open.
    """
    steps = draw(
        st.lists(
            st.sampled_from(("gap", "continue", "new")),
            min_size=len(RELEASE_POOL),
            max_size=len(RELEASE_POOL),
        )
    )
    bounds: list[list[int]] = []
    current = False
    for i, step in enumerate(steps):
        if step == "gap":
            current = False
        elif step == "continue" and current:
            bounds[-1][1] = i
        elif len(bounds) < 3:
            bounds.append([i, i])
            current = True
        else:
            current = False
    if not bounds:
        bounds = [[0, 0]]
    open_last = draw(st.booleans())
    versions = tuple(
        RequirementVersion(
            RELEASE_POOL[first],
            None if open_last and k == len(bounds) - 1 else RELEASE_POOL[last],
            tuple(draw(segment_trees())),
        )
        for k, (first, last) in enumerate(bounds)
    )
    return Requirement(id="REQ_0001", versions=versions, section_path=("S",))


# Texts that split into few, often repeated, sentences.  None, empty and blank
# texts are listed: a blank text is the only one that splits into a blank sentence.
_TEXTS = st.one_of(
    st.sampled_from([None, "", " ", "a."]),
    st.text(alphabet="ab.; ", max_size=12),
    st.lists(st.sampled_from(["a.", "b;", "a", " ", ""]), max_size=6).map(" ".join),
)


@st.composite
def diff_inputs(draw):
    """Arguments for `diff_texts`: equal or unrelated texts, random devs and releases."""
    dev_releases = draw(
        st.dictionaries(
            st.sampled_from(DEV_IDS + ("CB000002",)), st.sampled_from(RELEASES), min_size=1
        )
    )
    devs = st.frozensets(st.sampled_from(sorted(dev_releases)))
    text_a = draw(_TEXTS)
    text_b = draw(st.one_of(st.just(text_a), _TEXTS))
    release_a, release_b = draw(st.sampled_from(RELEASES)), draw(st.sampled_from(RELEASES))
    return ("REQ_0001", release_a, release_b, text_a, text_b, draw(devs), draw(devs), dev_releases)


def reference_sentences(text: str) -> list[str]:
    """`resolver.split_sentences` by a look-behind split: after each '.' or ';'
    that whitespace follows, dropping empty pieces."""
    return [s for s in re.split(r"(?<=[.;])\s+", text) if s]


def reference_lcs_diff(a: Sequence[str], b: Sequence[str]) -> list[DiffSegment]:
    """`resolver.lcs_diff` without peeling equal ends: always the full table."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])

    ops: list[DiffSegment] = []
    i, j = n, m
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            ops.append(DiffSegment(DiffKind.UNCHANGED, a[i - 1]))
            i -= 1
            j -= 1
        elif table[i - 1][j] > table[i][j - 1]:
            ops.append(DiffSegment(DiffKind.REMOVED, a[i - 1]))
            i -= 1
        elif table[i - 1][j] < table[i][j - 1]:
            ops.append(DiffSegment(DiffKind.ADDED, b[j - 1]))
            j -= 1
        elif a[i - 1] > b[j - 1]:  # at a tie the larger sentence is dropped
            ops.append(DiffSegment(DiffKind.REMOVED, a[i - 1]))
            i -= 1
        else:
            ops.append(DiffSegment(DiffKind.ADDED, b[j - 1]))
            j -= 1
    ops += (DiffSegment(DiffKind.REMOVED, a[k]) for k in reversed(range(i)))
    ops += (DiffSegment(DiffKind.ADDED, b[k]) for k in reversed(range(j)))
    ops.reverse()
    return ops


def reference_diff_texts(
    req_id: str,
    release_a: ReleaseId,
    release_b: ReleaseId,
    text_a: Optional[str],
    text_b: Optional[str],
    devs_a: AbstractSet[str],
    devs_b: AbstractSet[str],
    dev_releases: Mapping[str, ReleaseId],
) -> BehaviorDiff:
    """`resolver.diff_texts` without its equal-text path: always the full LCS table.

    It splits sentences itself and finds changes by scanning the segments, so
    no memo or shortcut of the resolver feeds both sides.
    """
    sentences_a = reference_sentences(text_a) if text_a is not None else []
    sentences_b = reference_sentences(text_b) if text_b is not None else []
    segments = tuple(reference_lcs_diff(sentences_a, sentences_b))
    causes: set[str] = set()
    if any(s.kind is not DiffKind.UNCHANGED for s in segments):
        for dev in devs_a | devs_b:
            introduced = dev_releases[dev]
            if (introduced <= release_a) != (introduced <= release_b):
                causes.add(dev)
    return BehaviorDiff(
        id=req_id,
        release_a=release_a,
        release_b=release_b,
        segments=segments,
        causes=frozenset(causes),
    )


@st.composite
def index_corpora(draw):
    """(documents, registry): 1-4 `versioned_requirements` over one or two documents.

    Their words hold the procedures of INDEX_LEXICON, so a DevBlock or a new
    version can swap the procedure a text mentions.
    """
    drawn = draw(st.lists(versioned_requirements(), min_size=1, max_size=4))
    reqs = [dataclasses.replace(req, id=f"REQ_{i:04d}") for i, req in enumerate(drawn, 1)]
    split = draw(st.integers(0, len(reqs)))
    docs = [
        SpecDocument(name, (Section("S", tuple(part)),))
        for name, part in (("a", reqs[:split]), ("b", reqs[split:]))
        if part
    ]
    return docs, draw(registries())


INDEX_LEXICON = {"timer": [], "value": [], "restart": ["Starts again"]}

# Each case the build's shortcuts must get right: a span only inside a
# DevBlock part (REQ_0001), a DevBlock inside a span (REQ_0002), a version
# gap at 01R3 and 02R1 (REQ_0001), a development that swaps the procedure
# (CB000001 at 01R2), a version switch with no cause that swaps it too
# (REQ_0002 at 02R1), a development that changes the text but no sentence
# (REQ_0003: only the spacing between its sentences), and a requirement that
# first appears at the release that introduces its development (REQ_0004 at
# 03R1), so its one diff has no text at release a and a cause.
INDEX_CASES_SOURCE = """# S

=== REQ REQ_0001 ===
--- VERSION first=01R1 last=01R2 ---
[Before CB000001] The timer runs. [CB000001] The value is set. [SA] Standalone timer step. [End SA] [End CB000001]
--- VERSION first=02R2 last=open ---
The timer stops.
=== END ===

=== REQ REQ_0002 ===
--- VERSION first=01R1 last=01R3 ---
The value holds.
--- VERSION first=02R1 last=open ---
[NSA] Starts again. [Before CB00XXXX] The old value. [CB00XXXX] The new value. [End CB00XXXX] [End NSA] The timer holds.
=== END ===

=== REQ REQ_0003 ===
--- VERSION first=01R1 last=open ---
[Before CB000001] The value holds. The timer runs. [CB000001] The value holds.  The timer runs. [End CB000001]
=== END ===

=== REQ REQ_0004 ===
--- VERSION first=03R1 last=open ---
[Before CB00XXXX] The value waits. [CB00XXXX] The value is new. The timer restarts. [End CB00XXXX]
=== END ===
"""


def index_cases() -> tuple[list[SpecDocument], DevelopmentRegistry]:
    """INDEX_CASES_SOURCE's one document, and its registry."""
    result = parse_document(INDEX_CASES_SOURCE, name="doc")
    assert result.ok, result.errors
    registry = {"CB000001": ReleaseId.parse("01R2"), "CB00XXXX": ReleaseId.parse("03R1")}
    return [result.document], DevelopmentRegistry(registry)


def reference_build_index(
    docs: list[SpecDocument], registry: DevelopmentRegistry, lexicon: Lexicon
) -> SpecIndex:
    """`index.build_index` the direct way: every requirement resolved at every
    release for both deployments and for each one, and every changed
    adjacent-release pair diffed by `reference_diff_texts`."""
    universe = release_universe(docs, registry)
    index = SpecIndex(
        release_universe=universe,
        registry=dict(registry.entries),
        aliases={" ".join(key): canonical for key, canonical in lexicon.reverse.items()},
        req_release={},
        proc_release={},
        proc_dev={},
        proc_req={},
        proc_dep={},
    )
    procs_at: dict[tuple[str, str], set[str]] = {}  # (requirement id, release) -> procedures
    for doc in docs:
        for req in doc.iter_requirements():
            for r in universe:
                details = resolve_details(req, r, None, registry)
                if details is None:
                    continue
                text, _contributing, seen = details
                r_key = str(r)
                index.req_release.setdefault(req.id, {})[r_key] = (text, frozenset(seen))
                mentions = find_mentions(tokenize(text), lexicon)
                procs = procs_at[req.id, r_key] = {m.canonical for m in mentions} or {UNMAPPED}
                for proc in procs:
                    index.proc_release.setdefault(proc, {}).setdefault(r_key, []).append(
                        (req.id, text)
                    )
                    index.proc_req.setdefault(proc, set()).add(req.id)
                for dep in DeploymentType:
                    dep_text = resolve_details(req, r, dep, registry)[0]
                    for proc in procs:
                        index.proc_dep.setdefault(proc, {}).setdefault(
                            dep.value, {}
                        ).setdefault(r_key, []).append((req.id, dep_text))

    for a, b in zip(universe, universe[1:]):
        for req_id, records in index.req_release.items():
            (text_a, devs_a), (text_b, devs_b) = (
                records.get(str(r), (None, frozenset())) for r in (a, b)
            )
            if text_a == text_b:
                continue
            diff = reference_diff_texts(
                req_id, a, b, text_a, text_b, devs_a, devs_b, index.registry
            )
            if not diff.has_changes:
                continue
            procs = procs_at.get((req_id, str(a)), set()) | procs_at.get((req_id, str(b)), set())
            for dev in sorted(diff.causes):
                for proc in sorted(procs):
                    index.proc_dev.setdefault(proc, {}).setdefault(dev, []).append(diff)
    return index


def reference_query_release_diff(
    index: SpecIndex, procedure: str, a: ReleaseId, b: ReleaseId
) -> list[BehaviorDiff]:
    """`index.query_release_diff` over every id the procedure holds at either
    release, each diffed by `reference_diff_texts` and kept if it has changes."""
    index._require_release(a)
    index._require_release(b)
    by_release = index.proc_release.get(index.canonical_of(procedure), {})
    ids = {req_id for r in (a, b) for req_id, _ in by_release.get(str(r), [])}
    diffs = []
    for req_id in sorted(ids):
        records = index.req_release.get(req_id, {})
        (text_a, devs_a), (text_b, devs_b) = (
            records.get(str(r), (None, frozenset())) for r in (a, b)
        )
        diff = reference_diff_texts(req_id, a, b, text_a, text_b, devs_a, devs_b, index.registry)
        if diff.has_changes:
            diffs.append(diff)
    return diffs


def reference_index_to_json(index: SpecIndex) -> str:
    """`index.index_to_json` the direct way: the nested sections built whole,
    then one `json.dumps` with sorted keys.  Each `proc_dep` list must hold
    the ids of the `proc_release` list at its procedure and release, and each
    `proc_release` entry its requirement's `req_release` text there."""
    entry_lists = [
        *(entries for by_release in index.proc_release.values() for entries in by_release.values()),
        *(
            entries
            for by_dep in index.proc_dep.values()
            for by_release in by_dep.values()
            for entries in by_release.values()
        ),
    ]
    texts = sorted(
        {text for by_release in index.req_release.values() for text, _ in by_release.values()}
        | {text for entries in entry_lists for _, text in entries}
    )
    position = {text: i for i, text in enumerate(texts)}
    # Each text is its pieces between the ". "s; each distinct piece is kept
    # once, in the order the sorted texts first hold it.
    sentences = list(dict.fromkeys(piece for text in texts for piece in text.split(". ")))
    sentence_at = {piece: i for i, piece in enumerate(sentences)}

    def refs(entries: list[tuple[str, str]]) -> list[tuple[str, int]]:
        return [(req_id, position[text]) for req_id, text in entries]

    # proc_dep holds each entry whose text is not that of the proc_release
    # entry with its id at the same procedure and release.
    overrides: dict[str, dict[str, dict[str, list[tuple[str, int]]]]] = {}
    for proc, by_dep in index.proc_dep.items():
        for dep, by_release in by_dep.items():
            for r, entries in by_release.items():
                text_of = dict(index.proc_release[proc][r])
                changed = [(req_id, text) for req_id, text in entries if text != text_of[req_id]]
                if changed:
                    overrides.setdefault(proc, {}).setdefault(dep, {})[r] = refs(changed)

    data = {
        "format_version": FORMAT_VERSION,
        "release_universe": [str(r) for r in index.release_universe],
        "registry": {dev: str(r) for dev, r in index.registry.items()},
        "aliases": index.aliases,
        "sentences": sentences,
        "texts": [
            " ".join(str(sentence_at[piece]) for piece in text.split(". ")) for text in texts
        ],
        "req_release": {
            req_id: {
                r: (position[text], sorted(devs)) for r, (text, devs) in by_release.items()
            }
            for req_id, by_release in index.req_release.items()
        },
        "proc_release": {
            proc: {r: refs(entries) for r, entries in by_release.items()}
            for proc, by_release in index.proc_release.items()
        },
        "proc_dev": {
            proc: {dev: [diff.id for diff in diffs] for dev, diffs in by_dev.items()}
            for proc, by_dev in index.proc_dev.items()
        },
        "proc_dep": overrides,
    }
    return json.dumps(data, sort_keys=True, indent=None, separators=(",", ":")) + "\n"


# Characters that JSON escapes: a quote, a backslash, control characters, a
# lone surrogate, and non-ASCII and astral characters, which ensure_ascii
# writes as \u escapes; and a slash, a period, a space and a letter, which it
# does not.  A period and a space end a piece of the sentence table.
_ODD_CHARS = '"\\/. a\x00\x08\t\n\x1f\x7f\xe9\u2028\ud800\ufeff\U0001f600'
_ODD_STRINGS = st.text(
    alphabet=st.one_of(st.sampled_from(_ODD_CHARS), st.characters()), max_size=6
)


@st.composite
def odd_string_indexes(draw):
    """A SpecIndex whose requirement ids, texts, aliases, procedures and
    developments are `_ODD_STRINGS`.  Only the writer reads it, so its diffs
    need not agree with its records.  Each `proc_release` entry holds its
    requirement's record text at its release, as the loader requires, and
    each `proc_dep` list the ids of its `proc_release` list, each with that
    entry's text or another."""
    universe = sorted(draw(st.sets(st.sampled_from(RELEASES), min_size=1)))
    releases = st.sampled_from([str(r) for r in universe])
    ids = draw(st.lists(_ODD_STRINGS, min_size=1, max_size=3, unique=True))
    texts = st.sampled_from(draw(st.lists(_ODD_STRINGS, min_size=1, max_size=4)))
    devs = draw(st.lists(_ODD_STRINGS, max_size=3, unique=True))
    procs = draw(st.lists(_ODD_STRINGS, min_size=1, max_size=3, unique=True))
    dev_sets = st.frozensets(st.sampled_from(devs)) if devs else st.just(frozenset())
    req_release = {
        req_id: draw(st.dictionaries(releases, st.tuples(texts, dev_sets), max_size=3))
        for req_id in ids
    }
    held: dict[str, list[tuple[str, str]]] = {}  # release -> (id, record text) there
    for req_id, records in req_release.items():
        for r, (text, _) in records.items():
            held.setdefault(r, []).append((req_id, text))

    def entry_lists() -> dict[str, list[tuple[str, str]]]:
        if not held:
            return {}
        chosen = draw(st.lists(st.sampled_from(sorted(held)), max_size=3, unique=True))
        return {r: draw(st.lists(st.sampled_from(held[r]), max_size=3, unique=True)) for r in chosen}

    diffs = st.lists(
        st.sampled_from(ids).map(
            lambda req_id: BehaviorDiff(req_id, universe[0], universe[-1], (), frozenset())
        ),
        max_size=2,
    )
    proc_release = {proc: entry_lists() for proc in procs}
    return SpecIndex(
        release_universe=universe,
        registry={dev: draw(st.sampled_from(universe)) for dev in devs},
        aliases=draw(st.dictionaries(_ODD_STRINGS, st.sampled_from(procs), max_size=3)),
        req_release=req_release,
        proc_release=proc_release,
        proc_dev={
            proc: {dev: draw(diffs) for dev in draw(st.lists(st.sampled_from(devs), unique=True))}
            for proc in procs
        } if devs else {},
        proc_dep={
            proc: {
                dep.value: {
                    r: [(req_id, draw(st.one_of(st.just(text), texts))) for req_id, text in entries]
                    for r, entries in by_release.items()
                }
                for dep in DeploymentType
            }
            for proc, by_release in proc_release.items()
        },
    )


def odd_string_index() -> SpecIndex:
    """One index with all of `_ODD_CHARS` in each of its requirement ids,
    texts, aliases, procedures and developments, and in an SA text that
    overrides its entry."""
    req_id, text, proc, dev = (f"{kind}{_ODD_CHARS}" for kind in ("R", "T", "P", "D"))
    r = RELEASES[0]
    entries = {str(r): [(req_id, text)]}
    return SpecIndex(
        release_universe=[r],
        registry={dev: r},
        aliases={f"a{_ODD_CHARS}": proc},
        req_release={req_id: {str(r): (text, frozenset({dev}))}},
        proc_release={proc: entries},
        proc_dev={proc: {dev: [BehaviorDiff(req_id, r, r, (), frozenset())]}},
        proc_dep={proc: {"SA": {str(r): [(req_id, f"S{text}")]}, "NSA": entries}},
    )


def one_diff_index() -> str:
    """A complete format-6 index, as `index_to_json` writes it, with one diff.

    The diff, of requirement "R1" from release "01R1" to "01R2", where
    development "CB00XXXX" is registered, is filed under procedure "P" (alias
    "p") and that development.  R1's sentences are ("One.", "Two.") at 01R1
    and ("One.", "Three.") at 01R2, so the loader derives the segments
    unchanged "One.", added "Three.", removed "Two.".  R1 also has an entry at
    01R1 under "P" in "proc_release", which the SA entry in "proc_dep"
    overrides with the text "One. Three.".  Text 0 is the pieces "One" and
    "Three." joined by ". ", and text 1 "One" and "Two.".
    """
    data = {
        "aliases": {"p": "P"},
        "format_version": FORMAT_VERSION,
        "proc_dep": {"P": {"SA": {"01R1": [["R1", 0]]}}},
        "proc_dev": {"P": {"CB00XXXX": ["R1"]}},
        "proc_release": {"P": {"01R1": [["R1", 1]]}},
        "registry": {"CB00XXXX": "01R2"},
        "release_universe": ["01R1", "01R2"],
        "req_release": {"R1": {"01R1": [1, []], "01R2": [0, ["CB00XXXX"]]}},
        "sentences": ["One", "Three.", "Two."],
        "texts": ["0 1", "0 2"],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


_IDS = ("proc_dev", "P", "CB00XXXX")

# (JSON path, value, what the error names) edits that make `one_diff_index()`
# malformed.  The error names the repr of the new value, or of the bad key in it.
MALFORMED_INDEX_EDITS = {
    case: (path, value, repr(value))
    for case, (path, value) in {
        "diff-id-not-a-string": ((*_IDS, 0), 5),
        "diff-id-without-record": ((*_IDS, 0), "R9"),
        "diff-release-outside-universe": (("registry", "CB00XXXX"), "02R1"),
        "diff-at-first-release": (("registry", "CB00XXXX"), "01R1"),
        "universe-not-increasing": (("release_universe",), ["01R2", "01R1"]),
        "proc-release-id-not-a-string": (("proc_release", "P", "01R1", 0, 0), 5),
        "proc-dep-id-not-a-string": (("proc_dep", "P", "SA", "01R1", 0, 0), 5),
        "record-devs-not-strings": (("req_release", "R1", "01R1", 1), [5]),
        "record-not-a-pair": (("req_release", "R1", "01R1"), {"devs": [], "text": 1}),
        "aliases-a-list-of-pairs": (("aliases",), [["p", "P"]]),
        "universe-bad-release": (("release_universe", 0), "x"),
        "universe-an-object": (("release_universe",), {"01R1": 0, "01R2": 1}),
        "universe-a-string": (("release_universe",), "01R1"),
        "proc-dep-id-without-entry": (("proc_dep", "P", "SA", "01R1", 0, 0), "R9"),
        "registry-bad-release": (("registry", "CB00XXXX"), "x"),
    }.items()
}
MALFORMED_INDEX_EDITS["proc-dep-bad-deployment"] = (
    ("proc_dep", "P"), {"XYZ": {"01R1": [["R1", 1]]}}, repr("XYZ")
)
MALFORMED_INDEX_EDITS["diff-dev-not-registered"] = (
    ("proc_dev", "P"), {"CB_NOPE": ["R1"]}, repr("CB_NOPE")
)
# R1's text changes at 01R2, but no development of its records caused it.
MALFORMED_INDEX_EDITS["diff-not-caused-by-dev"] = (
    ("req_release", "R1", "01R2", 1), [], repr("CB00XXXX")
)
# A record of a requirement that no diff lists names an unregistered development.
MALFORMED_INDEX_EDITS["record-dev-not-registered"] = (
    ("req_release", "R2"), {"01R1": [0, ["CB_NOPE"]]}, repr("CB_NOPE")
)
# R1's entry at 01R1 holds its 01R2 text, or names a requirement with no record.
MALFORMED_INDEX_EDITS["proc-release-text-not-record-text"] = (
    ("proc_release", "P", "01R1", 0, 1), 0, repr("One. Three.")
)
MALFORMED_INDEX_EDITS["proc-release-id-without-record"] = (
    ("proc_release", "P", "01R1", 0, 0), "R9", repr("R9")
)
# An entry that repeats one already loaded, but whose reference is a JSON
# true or 0.0, which equal the positions 1 and 0 and hash alike; and an
# entry whose id is a list, which is unhashable.
MALFORMED_INDEX_EDITS["proc-dep-ref-true-after-1"] = (
    ("proc_dep", "P", "SA", "01R1"), [["R1", 1], ["R1", True]], "reference True "
)
MALFORMED_INDEX_EDITS["proc-dep-ref-0.0-after-0"] = (
    ("proc_dep", "P", "SA"), {"01R2": [["R1", 0], ["R1", 0.0]]}, "reference 0.0 "
)
# A proc_dep override of no proc_release entry: at a release or a procedure
# with none; one with the text of the entry it overrides; and one id twice.
MALFORMED_INDEX_EDITS["proc-dep-release-without-entry"] = (
    ("proc_dep", "P", "SA"), {"01R2": [["R1", 0]]}, "'P' SA at 01R2: 'R1' has no proc_release entry"
)
MALFORMED_INDEX_EDITS["proc-dep-procedure-without-entry"] = (
    ("proc_dep",), {"Q": {"SA": {"01R1": [["R1", 0]]}}}, "'Q' SA at 01R1: 'R1' has no proc_release"
)
MALFORMED_INDEX_EDITS["proc-dep-text-of-proc-release"] = (
    ("proc_dep", "P", "SA", "01R1", 0, 1), 1, "'P' SA at 01R1: 'R1' repeats its entry's text"
)
MALFORMED_INDEX_EDITS["proc-dep-id-twice"] = (
    ("proc_dep", "P", "NSA"),
    {"01R1": [["R1", 0], ["R1", 0]]},
    "'R1' has no proc_release entry left",
)
MALFORMED_INDEX_EDITS["proc-dep-id-a-list"] = (
    ("proc_dep", "P", "SA", "01R1", 0, 0), ["R1"], "requirement id ['R1'] is not a string"
)


# The sentence table not a list of strings, and "texts" rows that are not
# positions in it, each in canonical decimal one space apart: R1's 01R1 text
# (row 1) edited, and a third row that nothing refers to.
MALFORMED_INDEX_EDITS["sentences-an-object"] = (("sentences",), {"0": "One"}, "{'0': 'One'}")
MALFORMED_INDEX_EDITS["sentence-not-a-string"] = (
    ("sentences", 1), 5, "sentences ['One', 5, 'Two.'] is not a list of strings"
)
MALFORMED_INDEX_EDITS["texts-row-not-a-string"] = (
    ("texts", 1), [0, 2], "texts ['0 1', [0, 2]] is not a list of strings"
)
MALFORMED_INDEX_EDITS.update({
    f"texts-row-{case}": (("texts", 1), row, f"texts row {row!r} is not positions")
    for case, row in {
        "negative": "0 -2",
        "out-of-range": "0 3",
        "not-an-integer": "0 two",
        "leading-zero": "0 02",
        "leading-space": " 0 2",
        "double-space": "0  2",
        "empty": "",
        "decimal": "0 2.0",
    }.items()
})
MALFORMED_INDEX_EDITS["texts-row-unreferenced"] = (
    ("texts",), ["0 1", "0 2", "3"], "texts row '3' is not positions"
)


def written_texts(data: dict) -> list[str]:
    """The texts of a parsed index document: each "texts" row's sentences
    joined by ". "."""
    sentences = data["sentences"]
    return [". ".join(sentences[int(k)] for k in row.split(" ")) for row in data["texts"]]


def unregistered_record_dev_index() -> str:
    """`one_diff_index()` with R1's 01R1 record naming the unregistered
    development "CB_NOPE" and no diff listed, so only a query would reach it."""
    no_diffs = json_with(one_diff_index(), ("proc_dev",), {})
    return json_with(no_diffs, ("req_release", "R1", "01R1", 1), ["CB_NOPE"])


# (JSON path, key) edits that file the first release record of the object at
# the path under `key`, a release that `one_diff_index()`'s universe lacks.
UNKNOWN_RELEASE_EDITS = {
    f"{section}-release-{key}": (path, key)
    for section, path in (
        ("req-release", ("req_release", "R1")),
        ("proc-release", ("proc_release", "P")),
        ("proc-dep", ("proc_dep", "P", "SA")),
    )
    for key in ("bogus", "99R9")
}


def json_with(source: str, path: tuple, value: object) -> str:
    """The JSON document `source` with the value at `path` replaced by `value`."""
    data = json.loads(source)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(data)


def json_with_key(source: str, path: tuple, key: str) -> str:
    """The JSON document `source` with the first key of the object at `path` renamed `key`."""
    data = json.loads(source)
    node = data
    for step in path:
        node = node[step]
    node[key] = node.pop(next(iter(node)))
    return json.dumps(data)


def memo_tables() -> dict[str, object]:
    """Every module-level `lru_cache` wrapper of the `speckit` package, by name.

    A wrapper that a module imports from another is listed once, under the
    module that defines it.
    """
    tables = {}
    for info in pkgutil.iter_modules(speckit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"speckit.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                tables[f"{module.__name__}.{name}"] = value
    return tables


def clear_intern_tables() -> None:
    """Empty every memo table of `speckit`, so a test can start cold."""
    for table in memo_tables().values():
        table.cache_clear()


_REFERENCE_SCAN_RE = re.compile(
    rf"(?P<tag>{TAG_PATTERN})"
    r"|(?P<number>\d+\.\d+)"
    r"|(?P<chunk>\w+)"
    r"|(?P<space>\s+)"
    r"|(?P<punct>\S)"
)


def reference_tokenize(text: str) -> list[Token]:
    """`tokenizer.tokenize` without interning: a new `Token` for every match.

    Like `tokenize`, it scans the text in NFC, normalizing unconditionally.
    """
    tokens: list[Token] = []
    for m in _REFERENCE_SCAN_RE.finditer(unicodedata.normalize("NFC", text)):
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


def reference_normalize(tokens: list[Token]) -> list[Token]:
    """`tokenizer.normalize` without interning: a new `Token` for every Word."""
    out: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.PUNCT:
            continue
        if tok.kind is TokenKind.WORD:
            out.append(Token(tok.text.lower(), TokenKind.WORD))
        else:
            out.append(tok)
    return out


# Seeded object-level generators over `speckit.generator`'s sentences and
# releases.  Acceptance criteria 1, 2 and 7 read their exact samples, so the
# order of their `rng` calls is fixed.


def random_tagged_requirement(
    rng: random.Random,
    req_id: str,
    n_devblocks: int,
    dev_start: int = 1,
) -> tuple[Requirement, dict[str, ReleaseId]]:
    """One open-version requirement carrying `n_devblocks` development blocks.

    Returns the requirement plus the registry entries for its developments,
    each introduced at a random release after the first.
    """
    registry: dict[str, ReleaseId] = {}
    segments: list[ContentSegment] = [PlainText(_sentence(rng))]
    for i in range(n_devblocks):
        dev = f"CB{dev_start + i:06d}"
        registry[dev] = rng.choice(generator.RELEASES[1:])
        before: list[ContentSegment] = [PlainText(_sentence(rng))]
        after: list[ContentSegment] = [PlainText(_sentence(rng))]
        if rng.random() < 0.3:
            dep = rng.choice(list(DeploymentType))
            after.append(DeploymentSpan(dep, (PlainText(_sentence(rng)),)))
        segments.append(DevBlock(dev, tuple(before), tuple(after)))
        segments.append(PlainText(_sentence(rng)))
    if rng.random() < 0.3:
        dep = rng.choice(list(DeploymentType))
        segments.append(DeploymentSpan(dep, (PlainText(_sentence(rng)),)))
        segments.append(PlainText(_sentence(rng)))
    version = RequirementVersion(
        first_release=generator.RELEASES[0], last_release=None, content=tuple(segments)
    )
    req = Requirement(id=req_id, versions=(version,), section_path=("Generated",))
    return req, registry


def random_document(rng: random.Random, name: str, req_start: int = 1) -> SpecDocument:
    """A random well-formed document in canonical form, for round-trip testing."""
    counter = req_start

    def _content() -> tuple[ContentSegment, ...]:
        segments: list[ContentSegment] = [PlainText(_sentence(rng))]
        for _ in range(rng.randrange(3)):
            roll = rng.random()
            if roll < 0.4:
                dev = f"CB{rng.randrange(10**6):06d}"
                segments.append(
                    DevBlock(
                        dev,
                        (PlainText(_sentence(rng)),),
                        (PlainText(_sentence(rng)),),
                    )
                )
            elif roll < 0.7:
                dep = rng.choice(list(DeploymentType))
                segments.append(DeploymentSpan(dep, (PlainText(_sentence(rng)),)))
            else:
                segments.append(PlainText(_sentence(rng)))
        if not isinstance(segments[-1], PlainText):
            segments.append(PlainText(_sentence(rng)))
        return merge_adjacent_plain(segments)

    def make_requirement(path: tuple[str, ...]) -> Requirement:
        nonlocal counter
        req_id = f"REQ_{counter:04d}"
        counter += 1
        versions: list[RequirementVersion] = []
        start = 0
        while start < len(generator.RELEASES):
            first = generator.RELEASES[start]
            if rng.random() < 0.6 or start == len(generator.RELEASES) - 1:
                versions.append(
                    RequirementVersion(first_release=first, last_release=None, content=_content())
                )
                break
            end = rng.randrange(start, len(generator.RELEASES) - 1)
            versions.append(
                RequirementVersion(
                    first_release=first, last_release=generator.RELEASES[end], content=_content()
                )
            )
            start = end + 1
            if rng.random() < 0.3:
                break
        return Requirement(id=req_id, versions=tuple(versions), section_path=path)

    def make_section(level: int, prefix: tuple[str, ...]) -> Section:
        title = f"Section {rng.randrange(1000)}"
        path = prefix + (title,)
        requirements = tuple(
            make_requirement(path) for _ in range(rng.randrange(1, 4))
        )
        subsections = ()
        if level < 2 and rng.random() < 0.4:
            subsections = (make_section(level + 1, path),)
        return Section(title=title, requirements=requirements, subsections=subsections)

    sections = tuple(make_section(1, ()) for _ in range(rng.randrange(1, 4)))
    return SpecDocument(name=name, sections=sections)


def naive_dump(docs: list[SpecDocument]) -> str:
    """Every version of every requirement, tags and all: the baseline to beat."""
    lines = []
    for doc in docs:
        for req in doc.iter_requirements():
            for version in req.versions:
                last = "open" if version.last_release is None else str(version.last_release)
                lines.append(
                    json.dumps(
                        {
                            "id": req.id,
                            "first": str(version.first_release),
                            "last": last,
                            "text": render_segments(version.content),
                        },
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                )
    return "\n".join(lines) + ("\n" if lines else "")


def reference_release_dataset(
    docs: list[SpecDocument],
    r: ReleaseId,
    registry: DevelopmentRegistry,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> ReleaseDataset:
    """Release `r`'s dataset the direct way: materialize every requirement at
    `r` in document order, then drop headers and exact duplicates."""
    records: list[tuple[str, str]] = []
    kept: set[str] = set()
    total = headers = duplicates = 0
    for doc in docs:
        for req in doc.iter_requirements():
            resolved = materialize(req, r, None, registry)
            if resolved is None:
                continue
            total += 1
            if not has_tokens(resolved.text, min_tokens):
                headers += 1
            elif resolved.text in kept:
                duplicates += 1
            else:
                kept.add(resolved.text)
                records.append((req.id, resolved.text))
    return ReleaseDataset(r, tuple(records), DatasetStats(total, headers, duplicates))
