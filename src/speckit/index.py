"""Queryable index over a resolved corpus.

Five query mappings are served: procedure behavior at a release, behavior
difference between two releases, changes caused by a development, the
requirements describing a procedure, and behavior per deployment type.
Procedures are lexicon canonical names; requirements mentioning no known
procedure are kept under the reserved "(unmapped)" key.  The index is
rebuilt from scratch on corpus change and persists to a single JSON file.

Format 7 stores each distinct sentence once, and nothing that the loader
can derive but "proc_dev", which it checks.  Each distinct resolved text has
a position in a sorted "texts" table: a "req_release" record is the pair
`[text position, sorted reachable devs]`, and a "proc_dep" entry the pair
`[requirement id, text position]`.  A "proc_release" list holds only
requirement ids: each entry's text is its requirement's "req_release" text
at that release.  A text is stored as its pieces between the literal ". "s
it holds, which `". ".join` puts back exactly: the "sentences" table holds
each distinct piece once, in the order the sorted texts first hold it, and a
"texts" row is the string of the text's piece positions, one space apart
("0 17 4").  "proc_dep" lists, per procedure, deployment and release, only
the entries whose deployment text differs from that requirement's
"proc_release" entry there.  In memory it holds the same entries, each
paired with its position in the "proc_release" list, and `query_deployment`
writes them into a copy of that list.  "proc_dev" lists, per procedure and
development, the ids of the requirements that the development changed, in
requirement-id order.  It is derived, not read: the build and the loader
file each caused adjacent-release diff through one function, from the
records, the registry and each text's procedures, which the loader reads
from "proc_release"; the stored copy must be exactly the derived one.  On
gen-corpus seed 1 (size 2000) the file is 1.27 MB: "sentences" is 801 KB
(16,007 distinct of 24,368 pieces), "texts" 136 KB, "proc_release" 89.8 KB
and "proc_dep" 16.7 KB.

Neither half of persistence holds a second copy of the index.  The writer
builds no nested document: it appends the pieces of the JSON text to one
list, encoding each distinct key, entry and record once, and joins them
once.  The loader pops each raw section from the parsed document and drops
each of its items once converted, and keeps one str per requirement id and
one tuple per distinct entry and record, which every list shares, as a built
index does.  It joins a text when first referred to, and drops the sentence
table before it derives the diffs (on seed 1 its peak was 7.47 MB with the
table alive through them).  On seed 1 the writer's peak is 3.88 MB, 3.04
times the file's length, and the loader's 5.50 MB, 4.32 times, while it
converts the records.

A wrong shape raises ValueError "malformed index: ...": a missing key, a
value of the wrong JSON type, a "sentences" or "texts" that is not a list of
strings, a "texts" row (referred to or not) that is not sentence positions
in decimal without a leading zero, one space apart, a text reference outside
the table, a record or entry that is not a pair, a "release_universe" that
is not a list of strings or not strictly increasing, or a release key or
registry release outside it, a "proc_dep" deployment other than SA or NSA, a
"req_release" record development that is not in the registry, a
"proc_release" id with no "req_release" record at that release or listed
twice in one list, a "proc_dep" entry whose id has no "proc_release" entry
at its procedure and release, is listed twice there, or holds that entry's
own text, and a "proc_dev" that is not exactly the derived `{procedure:
{development: [ids]}}`.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Mapping, Optional

from .errors import UnknownDevelopmentError, UnknownReleaseError
from .lexicon import Lexicon, find_mentions, phrase_key
from .model import (
    DeploymentSpan,
    DeploymentType,
    DevelopmentRegistry,
    ReleaseId,
    SpecDocument,
    iter_segments,
    release_universe,
)
from .resolver import BehaviorDiff, _sentences_of, diff_causes, diff_texts, resolve_details
from .tokenizer import tokenize

FORMAT_VERSION = 7
UNMAPPED = "(unmapped)"
# A "texts" row: sentence positions, each in canonical decimal, one space apart.
_ROW_RE = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*")

Entry = tuple[str, str]  # (requirement id, resolved text)
ByRelease = dict[str, list[Entry]]  # release -> entries
# canonical -> deployment -> release -> (position in the proc_release list, overriding entry)
DepTable = dict[str, dict[str, dict[str, list[tuple[int, Entry]]]]]
_ABSENT: tuple[None, frozenset[str]] = (None, frozenset())  # no text at a release
# Each deployment by its key, read once: iterating the Enum and its `.value`
# property run Python code on every access.
_DEPLOYMENTS = {dep.value: dep for dep in DeploymentType}


@dataclass
class SpecIndex:
    release_universe: list[ReleaseId]
    registry: dict[str, ReleaseId]
    aliases: dict[str, str]  # space-joined alias match key -> canonical
    # requirement id -> release -> (text, reachable devs)
    req_release: dict[str, dict[str, tuple[str, AbstractSet[str]]]]
    # canonical -> release -> entries
    proc_release: dict[str, ByRelease]
    # canonical -> development -> diffs
    proc_dev: dict[str, dict[str, list[BehaviorDiff]]]
    proc_req: dict[str, set[str]] = field(default_factory=dict)
    # canonical -> deployment -> release -> the entries whose text differs
    # from the proc_release entry with their id, each with that entry's
    # position, in position order
    proc_dep: DepTable = field(default_factory=dict)

    def canonical_of(self, procedure: str) -> Optional[str]:
        if procedure == UNMAPPED:
            return UNMAPPED
        return self.aliases.get(" ".join(phrase_key(procedure)))

    def latest_release(self) -> ReleaseId:
        if not self.release_universe:
            raise UnknownReleaseError("(empty universe)")
        return self.release_universe[-1]

    def _require_release(self, r: ReleaseId) -> None:
        if r not in self.release_universe:
            raise UnknownReleaseError(str(r))


def build_index(
    docs: list[SpecDocument],
    registry: DevelopmentRegistry,
    lexicon: Lexicon,
) -> SpecIndex:
    """Materialize every requirement at every release and index by procedure."""
    universe = release_universe(docs, registry)
    index = SpecIndex(
        release_universe=universe,
        registry=dict(registry.entries),
        aliases={" ".join(key): canonical for key, canonical in lexicon.reverse.items()},
        req_release={},
        proc_release={},
        proc_dev={},
    )

    # Most resolved texts repeat across releases and deployments.  `shared`
    # holds one object per distinct text, devs set, record and entry, which
    # every holder of an equal value stores, as in a loaded index, and
    # `procs_of` each text's canonical procedures, so each text is tokenized
    # and alias-matched once.
    shared: dict[Any, Any] = {}
    procs_of: dict[str, set[str]] = {}
    # (canonical, deployment, release) -> entries whose text differs
    overrides: dict[tuple[str, str, str], list[Entry]] = {}

    for doc in docs:
        for req in doc.iter_requirements():
            # Only a DeploymentSpan reads the deployment: without one, SA and
            # NSA resolve to the text of both, and override no entry.
            has_span = any(
                isinstance(seg, DeploymentSpan)
                for version in req.versions
                for seg in iter_segments(version.content)
            )
            for r in universe:
                details = resolve_details(req, r, None, registry)
                if details is None:
                    continue
                text, _contributing, seen = details
                text = _one(shared, text)
                r_key = str(r)
                record = _one(shared, (text, _one(shared, frozenset(seen))))
                index.req_release.setdefault(req.id, {})[r_key] = record

                procs = procs_of.get(text)
                if procs is None:
                    mentions = find_mentions(tokenize(text), lexicon)
                    procs = procs_of[text] = {m.canonical for m in mentions} or {UNMAPPED}
                entry = _one(shared, (req.id, text))
                for proc in procs:
                    index.proc_release.setdefault(proc, {}).setdefault(r_key, []).append(entry)

                if not has_span:
                    continue
                for dep_key, dep in _DEPLOYMENTS.items():
                    dep_text = _one(shared, resolve_details(req, r, dep, registry)[0])
                    dep_entry = _one(shared, (req.id, dep_text))
                    if dep_entry is not entry:  # an equal text is the same entry
                        for proc in procs:
                            overrides.setdefault((proc, dep_key, r_key), []).append(dep_entry)

    index.proc_dev = _proc_dev(index, procs_of)
    index.proc_req = _proc_req(index.proc_release)
    index.proc_dep = _proc_dep(index.proc_release, overrides)
    return index


def _one(shared: dict[Any, Any], value: Any) -> Any:
    """The object in `shared` equal to `value`, which is added if none is."""
    return shared.setdefault(value, value)


def _proc_req(proc_release: dict[str, ByRelease]) -> dict[str, set[str]]:
    """The ids of each procedure's entries at any release."""
    return {
        proc: {req_id for entries in by_release.values() for req_id, _ in entries}
        for proc, by_release in proc_release.items()
    }


def _proc_dep(
    proc_release: dict[str, ByRelease], overrides: dict[tuple[str, str, str], list[Entry]]
) -> DepTable:
    """The entries that `overrides` holds for each procedure, deployment and
    release, each paired with the position in its `proc_release` list of the
    entry with its id, which it replaces, in position order.  A deployment
    other than SA or NSA, an override of no entry or of one overridden
    already, and one with that entry's text raise ValueError."""
    proc_dep: DepTable = {}
    for (proc, dep, r), changed in overrides.items():
        if dep not in _DEPLOYMENTS:
            raise ValueError(f"deployment {dep!r} is not one of {sorted(_DEPLOYMENTS)}")
        entries = proc_release.get(proc, {}).get(r, ())
        position = {req_id: k for k, (req_id, _) in enumerate(entries)}
        placed = []
        for entry in changed:
            k = position.pop(entry[0], None)
            if k is None or entries[k] == entry:
                why = "has no proc_release entry left" if k is None else "repeats its entry's text"
                raise ValueError(f"proc_dep {proc!r} {dep} at {r}: {entry[0]!r} {why}")
            placed.append((k, entry))
        if placed:
            proc_dep.setdefault(proc, {}).setdefault(dep, {})[r] = sorted(placed)
    return proc_dep


def _proc_dev(
    index: SpecIndex, procs_of: Mapping[str, Iterable[str]], memo: bool = False
) -> dict[str, dict[str, list[BehaviorDiff]]]:
    """Each changed adjacent-release diff, filed under each of its causes and
    under the procedures that `procs_of` gives either of its texts (a change
    can move the mentions).  A development's diffs all end at its registered
    release, so each list is in requirement-id order.  A change with no
    cause needs no LCS: a diff without changes has none."""
    proc_dev: dict[str, dict[str, list[BehaviorDiff]]] = {}
    universe, registry, req_ids = index.release_universe, index.registry, sorted(index.req_release)
    for a, b in zip(universe, universe[1:]):
        a_key, b_key = str(a), str(b)
        for req_id in req_ids:
            records = index.req_release[req_id]
            text_a, devs_a = records.get(a_key, _ABSENT)
            text_b, devs_b = records.get(b_key, _ABSENT)
            if text_a == text_b or not diff_causes(a, b, devs_a, devs_b, registry):
                continue
            diff = diff_texts(req_id, a, b, text_a, text_b, devs_a, devs_b, registry, memo=memo)
            procs = sorted({proc for text in (text_a, text_b) for proc in procs_of.get(text, ())})
            for dev in sorted(diff.causes):
                for proc in procs:
                    proc_dev.setdefault(proc, {}).setdefault(dev, []).append(diff)
    return proc_dev


def _changed_diffs(
    index: SpecIndex, req_ids: Iterable[str], a: ReleaseId, b: ReleaseId
) -> Iterator[BehaviorDiff]:
    """The diff between releases `a` and `b` of each of `req_ids` that changed."""
    a_key, b_key = str(a), str(b)
    for req_id in req_ids:
        records = index.req_release.get(req_id, {})
        text_a, devs_a = records.get(a_key, _ABSENT)
        text_b, devs_b = records.get(b_key, _ABSENT)
        # equal sentences, or no text at either release: every segment unchanged
        if _sentences_of(text_a) != _sentences_of(text_b):
            yield diff_texts(
                req_id, a, b, text_a, text_b, devs_a, devs_b, index.registry, memo=True
            )


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def _procedure_entry(index: SpecIndex, table: dict[str, Any], procedure: str) -> Any:
    """`procedure`'s entry in a per-procedure table, or {} if it has none.

    An unknown procedure has no canonical name (None), which no table holds.
    """
    return table.get(index.canonical_of(procedure), {})


def query_behavior(
    index: SpecIndex, procedure: str, r: ReleaseId
) -> list[Entry]:
    """Resolved texts describing `procedure` at release `r`."""
    index._require_release(r)
    return list(_procedure_entry(index, index.proc_release, procedure).get(str(r), []))


def query_release_diff(
    index: SpecIndex, procedure: str, a: ReleaseId, b: ReleaseId
) -> list[BehaviorDiff]:
    """Behavior diffs between releases `a` and `b`, all-unchanged ones omitted."""
    index._require_release(a)
    index._require_release(b)
    by_release = _procedure_entry(index, index.proc_release, procedure)
    # An entry holds its requirement's text at that release, so the entry of
    # a requirement whose text did not move is at both releases and cancels.
    moved = set(by_release.get(str(a), ())).symmetric_difference(by_release.get(str(b), ()))
    return list(_changed_diffs(index, sorted({req_id for req_id, _ in moved}), a, b))


def query_dev_changes(
    index: SpecIndex, procedure: str, dev: str
) -> list[BehaviorDiff]:
    """Diffs of `procedure` requirements caused by development `dev`."""
    if dev not in index.registry:
        raise UnknownDevelopmentError(dev)
    return list(_procedure_entry(index, index.proc_dev, procedure).get(dev, []))


def query_requirements(index: SpecIndex, procedure: str) -> set[str]:
    """Ids of every requirement related to `procedure`."""
    return set(_procedure_entry(index, index.proc_req, procedure))


def query_deployment(
    index: SpecIndex,
    procedure: str,
    dep: DeploymentType,
    r: Optional[ReleaseId] = None,
) -> list[Entry]:
    """Resolved texts for one deployment type, at `r` or the latest release."""
    release = r if r is not None else index.latest_release()
    index._require_release(release)
    canonical, r_key = index.canonical_of(procedure), str(release)
    entries = list(index.proc_release.get(canonical, {}).get(r_key, ()))
    for k, entry in index.proc_dep.get(canonical, {}).get(dep.value, {}).get(r_key, ()):
        entries[k] = entry
    return entries


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def index_to_json(index: SpecIndex) -> str:
    """The index as canonical JSON, each distinct sentence stored once.

    The bytes are those of `json.dumps(data, sort_keys=True,
    separators=(",", ":")) + "\n"` over the nested sections, but no such
    `data` is built: the pieces of the document are appended to one list
    and joined once.  Each distinct key, entry, record and string value is
    encoded once, and every place that holds it appends the same piece.
    """
    # A proc_release entry, written as its id, holds its requirement's
    # req_release text there, so the records and the overrides hold every text.
    texts = sorted(
        {text for by_release in index.req_release.values() for text, _ in by_release.values()}
        | {
            text
            for by_dep in index.proc_dep.values()
            for by_release in by_dep.values()
            for placed in by_release.values()
            for _, (_, text) in placed
        }
    )
    # Both table sections are finished strings before any other piece is
    # made: the sentence positions are dropped before the pieces pile up.
    sentences, rows = _sentence_tables(texts)
    position = {text: i for i, text in enumerate(texts)}
    out: list[str] = []
    append = out.append
    keys: dict[str, str] = {}
    # String value, entry or (text, devs) record -> its JSON.  Values of
    # different kinds never compare equal, so they share one table.
    pieces: dict[Any, str] = {}

    def piece(value: Any, encode: Callable[[Any], str]) -> str:
        encoded = pieces.get(value)
        if encoded is None:
            encoded = pieces[value] = encode(value)
        return encoded

    def string(s: str) -> str:
        return piece(s, _encode)

    def override(placed: tuple[int, Entry]) -> str:
        # keyed by the entry, not its position: the pair is made per place
        return piece(placed[1], lambda e: f"[{_encode(e[0])},{position[e[1]]}]")

    def record(pair: tuple[str, AbstractSet[str]]) -> str:
        # keyed by the record itself, which a built or loaded index shares
        return piece(pair, lambda r: f"[{position[r[0]]},[{','.join(map(string, sorted(r[1])))}]]")

    def release(r: ReleaseId) -> str:
        return string(str(r))

    # The top-level keys in sorted order, as sort_keys writes them.
    for key, value, leaf in (
        ('{"aliases":', index.aliases, string),
        (f',"format_version":{FORMAT_VERSION},"proc_dep":', index.proc_dep, override),
        (',"proc_dev":', index.proc_dev, lambda diff: string(diff.id)),
        (',"proc_release":', index.proc_release, lambda e: string(e[0])),
        (',"registry":', index.registry, release),
        (',"release_universe":', index.release_universe, release),
        (',"req_release":', index.req_release, record),
        (',"sentences":', sentences, str),
        (',"texts":', rows, str),
    ):
        append(key)
        _write_json(value, leaf, append, keys)
    append("}\n")
    return "".join(out)


def _sentence_tables(texts: list[str]) -> tuple[str, str]:
    """The JSON of the "sentences" and "texts" sections that hold `texts`.

    Each text is split at every ". ", which `". ".join` undoes exactly, and
    each distinct piece is stored once, in first-seen order; a text's row is
    the space-separated positions of its pieces.  A text is encoded once and
    its JSON body split: JSON escaping neither makes nor breaks a ". ", so
    each encoded piece is the piece's own encoding.
    """
    refs: dict[str, str] = {}  # encoded piece -> its position
    rows = []
    for text in texts:
        split = _encode(text)[1:-1].split(". ")
        for s in split:
            if s not in refs:
                refs[s] = str(len(refs))
        rows.append(" ".join(map(refs.__getitem__, split)))
    if not rows:
        return "[]", "[]"
    # The rows hold the positions: only the pieces' order is left to write.
    sentences = list(refs)
    del refs
    return '["' + '","'.join(sentences) + '"]', '["' + '","'.join(rows) + '"]'


def _write_json(
    value: Any, leaf: Callable[[Any], str], append: Callable[[str], None], keys: dict[str, str]
) -> None:
    """Append `value` as JSON: a dict in key order, a list item by item, and
    anything else, at either level, as `leaf`'s piece.  `keys` holds the
    piece '"key":' of each key already written."""
    if type(value) is dict:
        sep = "{"
        for k in sorted(value):
            append(sep)
            append(keys.get(k) or keys.setdefault(k, _encode(k) + ":"))
            _write_json(value[k], leaf, append, keys)
            sep = ","
        append("}" if value else "{}")
    elif type(value) is list:
        sep = "["
        for item in value:
            append(sep)
            append(leaf(item))
            sep = ","
        append("]" if value else "[]")
    else:
        append(leaf(value))


def index_from_json(source: str) -> SpecIndex:
    """Load a persisted index; a wrong-shaped document raises "malformed index".

    Every entry with the same text holds the same str, taken from the table.
    """
    data = json.loads(source)
    if type(data) is not dict:
        raise ValueError("malformed index: the document is not a JSON object")
    version = data.get("format_version")
    if type(version) is not int:
        raise ValueError(f"malformed index: format_version {version!r} is not an integer")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format version: {version!r} (this speckit reads "
            f"version {FORMAT_VERSION}; rebuild the index with `index build`)"
        )
    try:
        sentences = _strings(data.pop("sentences"), "sentences")
        rows = _strings(data.pop("texts"), "texts")
        # Each text is joined when first referenced, so the joined texts grow
        # as the raw sections that refer to them drain.
        texts: list[Optional[str]] = [None] * len(rows)

        def text_at(ref: Any) -> str:
            # bool is an int subclass and a negative index reads from the end
            if type(ref) is not int or not 0 <= ref < len(rows):
                raise ValueError(
                    f"text reference {ref!r} is not a position "
                    f"in the {len(rows)}-entry text table"
                )
            text = texts[ref]
            if text is None:
                text = texts[ref] = _joined(sentences, rows[ref])
            return text

        # One object per distinct requirement id, record and entry, which
        # every holder of an equal value stores, as in a built index.  Each
        # is looked up only once checked: true == 1 and 0.0 == 0 hash alike,
        # and a list id is unhashable.
        shared: dict[Any, Any] = {}

        def entry(pair: Any) -> Entry:
            req_id, ref = pair
            text = text_at(ref)
            if type(req_id) is not str:
                raise ValueError(f"requirement id {req_id!r} is not a string")
            return _one(shared, (_one(shared, req_id), text))

        # One frozenset per distinct devs list, shared by the records that
        # hold it: most records hold none.
        frozen_devs: dict[tuple[str, ...], frozenset[str]] = {}

        def record(pair: Any) -> tuple[str, frozenset[str]]:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"record {reprlib.repr(pair)} is not a [text, devs] pair")
            ref, devs = pair
            frozen = frozen_devs.get(tuple(devs)) if type(devs) is list else None
            if frozen is None:
                frozen = frozenset(_strings(devs, "devs"))
                unknown = frozen.difference(registry)
                if unknown:
                    raise ValueError(f"record development {min(unknown)!r} is not in the registry")
                frozen_devs[tuple(devs)] = frozen
            return _one(shared, (text_at(ref), frozen))

        universe = list(
            map(ReleaseId.parse, _strings(data.pop("release_universe"), "release_universe"))
        )
        if universe != sorted(set(universe)):
            raise ValueError(f"release_universe {[str(r) for r in universe]} is not increasing")
        parsed = {str(r): r for r in universe}

        def release(key: str) -> str:
            if key not in parsed:
                raise ValueError(f"release {key!r} is not in the release universe")
            return key

        # A build registers each development at a release of its universe.
        registry = {dev: parsed[release(r)] for dev, r in data.pop("registry").items()}

        # Each raw section is popped from `data`, and each of its items dropped
        # once converted, so the document and the index it becomes are never
        # both whole.
        req_release = {
            _one(shared, req_id): {release(r): record(pair) for r, pair in by_release.items()}
            for req_id, by_release in _drain(data.pop("req_release"))
        }
        aliases = data.pop("aliases")
        if type(aliases) is not dict or not all(type(c) is str for c in aliases.values()):
            raise ValueError(f"aliases {reprlib.repr(aliases)} is not an object of strings")

        def release_entries(proc: str, r: str, ids: Any) -> list[Entry]:
            """The entries of `ids`, distinct requirement ids each with a
            record at `r`, each with its requirement's text there."""
            where = f"proc_release {proc!r} at {r}"
            for req_id in _list(ids, "ids"):
                if type(req_id) is not str or r not in req_release.get(req_id, ()):
                    raise ValueError(
                        f"{where}: requirement id {reprlib.repr(req_id)} has no req_release record there"
                    )
            if len(set(ids)) < len(ids):
                twice = next(req_id for k, req_id in enumerate(ids) if req_id in ids[:k])
                raise ValueError(f"{where}: requirement id {twice!r} is listed twice")
            return [_one(shared, (_one(shared, req_id), req_release[req_id][r][0])) for req_id in ids]

        proc_release = {
            proc: {release(r): release_entries(proc, r, ids) for r, ids in by_release.items()}
            for proc, by_release in _drain(data.pop("proc_release"))
        }
        proc_dep = _proc_dep(proc_release, {
            (proc, dep, release(r)): [entry(pair) for pair in _list(refs, "entries")]
            for proc, by_dep in _drain(data.pop("proc_dep"))
            for dep, by_release in by_dep.items()
            for r, refs in by_release.items()
        })
        # A row that nothing refers to must be well formed too.  The sentence
        # table, and then `shared`, are dropped before the diffs are derived.
        for ref, text in enumerate(texts):
            if text is None:
                _joined(sentences, rows[ref])
        del sentences, rows, texts
        # Each text's procedures as "proc_release" files it, one tuple per distinct set.
        procs_of: dict[str, tuple[str, ...]] = {}
        for proc, by_release in proc_release.items():
            for entries in by_release.values():
                for _, text in entries:
                    held = procs_of.get(text, ())
                    if proc not in held:
                        procs_of[text] = _one(shared, (*held, proc))
        del shared
        index = SpecIndex(
            release_universe=universe,
            registry=registry,
            aliases=aliases,
            req_release=req_release,
            proc_release=proc_release,
            proc_dev={},
            proc_req=_proc_req(proc_release),
            proc_dep=proc_dep,
        )
        # memo: the loading process answers queries, which diff these texts again
        index.proc_dev = _proc_dev(index, procs_of, memo=True)
        filed = {
            proc: {dev: [diff.id for diff in diffs] for dev, diffs in by_dev.items()}
            for proc, by_dev in index.proc_dev.items()
        }
        # The stored "proc_dev" must be the derived one, lists in requirement-id order.
        stored = data.pop("proc_dev")
        if stored != filed:
            proc = min(p for p in {*filed, *stored.keys()} if stored.get(p) != filed.get(p))
            raise ValueError(
                f"proc_dev {proc!r} is {reprlib.repr(stored.get(proc))}, "
                f"not the derived {reprlib.repr(filed.get(proc))}"
            )
        return index
    except ValueError as exc:  # a failed check, or a malformed release id
        raise ValueError(f"malformed index: {exc}") from exc
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed index: {type(exc).__name__}: {exc}") from exc


def _drain(mapping: Any) -> Iterator[tuple[str, Any]]:
    """The items of a parsed JSON object, in order, each removed from it as
    it is taken, so the raw value is dropped once the caller converts it.
    A value that is not an object raises as `mapping.items()` does."""
    for key in [key for key, _ in mapping.items()]:
        yield key, mapping.pop(key)


def _joined(sentences: list[str], row: str) -> str:
    """The text whose pieces `row` lists: the positions in `sentences`, each
    in decimal without a leading zero, one space apart, joined by ". "."""
    if _ROW_RE.fullmatch(row):
        try:
            return ". ".join(map(sentences.__getitem__, map(int, row.split(" "))))
        except IndexError:
            pass
    raise ValueError(
        f"texts row {reprlib.repr(row)} is not positions "
        f"in the {len(sentences)}-entry sentence table"
    )


def _list(value: Any, what: str) -> list:
    """`value` if it is a list; anything else raises ValueError naming `what`."""
    if type(value) is list:
        return value
    raise ValueError(f"{what} {reprlib.repr(value)} is not a list")


def _strings(value: Any, what: str) -> list[str]:
    """`value` if it is a list of strings; anything else raises ValueError naming `what`."""
    if type(value) is list and all(type(s) is str for s in value):
        return value
    raise ValueError(f"{what} {reprlib.repr(value)} is not a list of strings")
