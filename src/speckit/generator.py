"""Deterministic synthetic corpus generator with ground truth by construction.

Generates a parse-clean corpus (documents, development registry, lexicon)
plus a ground-truth record naming every injected defect and every
procedure-to-requirement mapping, so lint and query results can be checked
exactly.  All randomness flows from one seeded `random.Random`, so equal
seeds produce byte-identical corpora.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .lexicon import Lexicon, build_lexicon, dump_lexicon
from .lint import jaccard, shingle_set
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
)
from .parser import dump_registry, serialize
from .tokenizer import tokenize, normalize

RELEASES = (
    ReleaseId(1, 1),
    ReleaseId(1, 2),
    ReleaseId(2, 1),
    ReleaseId(2, 2),
)

# Procedure pool: canonical name plus alias surface forms.  None of the
# distinctive words below may appear in the filler vocabulary, so mentions
# only occur where the generator puts them.
PROCEDURES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("A2 measurement", ("A2 measurement for Handover", "A2 measurement for the activation of downlink events")),
    ("A3 measurement", ("A3 measurement for Handover", "A3 measurement comparison")),
    ("handover preparation", ("handover preparation phase", "preparation of handover")),
    ("cell reselection", ("cell reselection evaluation", "idle cell reselection")),
    ("beam management", ("beam management loop", "beam refinement management")),
    ("power ramping", ("power ramping sequence", "preamble power ramping")),
    ("paging monitoring", ("paging monitoring occasion", "idle paging monitoring")),
    ("bearer establishment", ("bearer establishment exchange", "default bearer establishment")),
    ("uplink grant allocation", ("uplink grant allocation loop", "dynamic uplink grant allocation")),
    ("random access", ("random access attempt", "contention random access")),
    ("carrier aggregation", ("carrier aggregation setup", "downlink carrier aggregation")),
    ("admission handling", ("admission handling decision", "admission handling of bearers")),
    ("link adaptation", ("link adaptation loop", "outer link adaptation")),
    ("timing advance", ("timing advance maintenance", "initial timing advance")),
    ("channel sounding", ("channel sounding cycle", "periodic channel sounding")),
    ("interference coordination", ("interference coordination exchange", "inter cell interference coordination")),
    ("mobility anchoring", ("mobility anchoring selection", "anchoring of mobility contexts")),
    ("dual connectivity", ("dual connectivity split", "dual connectivity addition")),
    ("bandwidth part switching", ("bandwidth part switching rule", "active bandwidth part switching")),
    ("neighbor discovery", ("neighbor discovery scan", "automatic neighbor discovery")),
    ("measurement gap coordination", ("measurement gap coordination pattern", "gap coordination for measurement")),
    ("radio bearer teardown", ("radio bearer teardown exchange", "signaling radio bearer teardown")),
    ("session continuity", ("session continuity handling", "continuity of sessions")),
    ("spectrum sharing", ("spectrum sharing arbitration", "dynamic spectrum sharing")),
    ("beam failure detection", ("beam failure detection loop", "detection of beam failure")),
    ("conditional handover", ("conditional handover evaluation", "early conditional handover")),
    ("secondary node addition", ("secondary node addition exchange", "addition of the secondary node")),
    ("buffer status reporting", ("buffer status reporting cycle", "periodic buffer status reporting")),
    ("drx alignment", ("drx alignment procedure", "connected drx alignment")),
    ("prach partitioning", ("prach partitioning scheme", "rach prach partitioning")),
)

_FILLER_NOUNS = (
    "timer", "counter", "value", "state", "trigger", "threshold", "parameter",
    "window", "limit", "request", "response", "indication", "record", "table",
    "entry", "field", "flag", "profile", "policy", "margin", "offset",
    "budget", "quota", "filter", "interval", "duration", "retry",
    "queue", "pool", "slot", "frame", "context", "instance",
)
_FILLER_VERBS = (
    "apply", "configure", "update", "verify", "reset", "start", "stop",
    "monitor", "adjust", "evaluate", "compute", "derive", "select", "assign",
    "enable", "disable", "notify", "validate", "enforce", "restore", "extend",
    "reject", "accept", "suspend", "resume",
)
_FILLER_MODS = (
    "immediately", "periodically", "internally", "strictly", "gradually",
    "temporarily", "accordingly", "once", "twice", "repeatedly",
)
_IDENTIFIERS = (
    "timerValue", "retryCount", "maxWindowSize", "pollLimit", "syncOffset",
    "guardMargin", "probeInterval", "queueDepth", "driftBound", "wakeBudget",
)

_SLOTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("SPEC_A", ("General Requirements",)),
    ("SPEC_A", ("Measurement Procedures",)),
    ("SPEC_A", ("Measurement Procedures", "Event Configuration")),
    ("SPEC_A", ("Mobility Control",)),
    ("SPEC_B", ("Deployment Behavior",)),
    ("SPEC_B", ("Scheduling And Power",)),
    ("SPEC_B", ("Session Management",)),
)

# Four distinct (document, section) homes per dispersed procedure.
_DISPERSED_SLOTS = (
    (0, 1, 4, 5),
    (1, 2, 5, 6),
    (0, 3, 4, 6),
)


def build_generator_lexicon() -> Lexicon:
    return build_lexicon({canonical: list(aliases) for canonical, aliases in PROCEDURES})


# ---------------------------------------------------------------------------
# Sentence and content builders
# ---------------------------------------------------------------------------


def _sentence(rng: random.Random) -> str:
    pattern = rng.randrange(4)
    n1, n2 = rng.choice(_FILLER_NOUNS), rng.choice(_FILLER_NOUNS)
    verb = rng.choice(_FILLER_VERBS)
    mod = rng.choice(_FILLER_MODS)
    if pattern == 0:
        return f"The {n1} shall {verb} the {n2} {mod}."
    if pattern == 1:
        return f"The {rng.choice(_IDENTIFIERS)} {n1} shall {verb} the {n2}."
    if pattern == 2:
        return f"Each {n1} shall {verb} every {n2} {mod}."
    return f"The {n1} and the {n2} shall {verb} {mod}."


def _mention_sentence(rng: random.Random, surface: str) -> str:
    verb = rng.choice(_FILLER_VERBS)
    noun = rng.choice(_FILLER_NOUNS)
    return f"The {surface} shall {verb} the {noun}."


def _token_count(text: str) -> int:
    return len(tokenize(text))


def _filler_sentences(rng: random.Random, min_tokens: int) -> list[str]:
    sentences: list[str] = []
    count = 0
    while count < min_tokens:
        sentence = _sentence(rng)
        sentences.append(sentence)
        count += _token_count(sentence)
    return sentences


def _fresh_sentence(rng: random.Random, avoid: str) -> str:
    sentence = _sentence(rng)
    while sentence == avoid:
        sentence = _sentence(rng)
    return sentence


# ---------------------------------------------------------------------------
# Seeded corpus with injected defects
# ---------------------------------------------------------------------------


@dataclass
class CorpusBundle:
    documents: list[SpecDocument]
    sources: dict[str, str]
    registry: DevelopmentRegistry
    registry_text: str
    lexicon: Lexicon
    lexicon_text: str
    ground_truth: dict


def generate_corpus(
    seed: int,
    size: int = 200,
    dup_pairs: int = 10,
    overlength: int = 8,
    alias_usages: int = 12,
    dispersed_procs: int = 3,
) -> CorpusBundle:
    if min(dup_pairs, overlength, alias_usages, dispersed_procs) < 0:
        raise ValueError("injection counts must not be negative")
    if dispersed_procs > len(_DISPERSED_SLOTS):
        raise ValueError(f"at most {len(_DISPERSED_SLOTS)} dispersed procedures supported")
    n_injected = dup_pairs + overlength + alias_usages + 4 * dispersed_procs
    n_base = size - n_injected
    if n_base < max(dup_pairs, 1) + 6:
        raise ValueError(f"size {size} too small for the requested injections")

    rng = random.Random(seed)
    lexicon = build_generator_lexicon()
    normal_procs = [canonical for canonical, _ in PROCEDURES[: len(PROCEDURES) - len(_DISPERSED_SLOTS)]]
    dispersed_pool = [canonical for canonical, _ in PROCEDURES[len(PROCEDURES) - len(_DISPERSED_SLOTS):]]

    proc_home = {
        canonical: i % len(_SLOTS) for i, canonical in enumerate(normal_procs)
    }
    procs = itertools.cycle(normal_procs)  # each generated requirement's procedure
    registry_entries: dict[str, ReleaseId] = {}
    slot_reqs: list[list[Requirement]] = [[] for _ in _SLOTS]

    truth: dict = {
        "seed": seed,
        "size": size,
        "universe": [str(r) for r in RELEASES],
        "documents": sorted({doc for doc, _ in _SLOTS}),
        "duplicates": [],
        "overlength": [],
        "alias_usages": [],
        "dispersed": {},
        "dev_changes": {},
        "changes": {f"{a}->{b}": {} for a, b in zip(RELEASES, RELEASES[1:])},
        "procedures": {canonical: [] for canonical, _ in PROCEDURES},
        "requirements": {},
    }

    def add(
        procedure: str,
        *content: ContentSegment,
        versions: list[tuple[ReleaseId, ReleaseId | None, tuple[ContentSegment, ...]]] | None = None,
        slot: int | None = None,
        surface: str | None = None,
        devs: dict[str, ReleaseId] | None = None,
        deployment: str | None = None,
        span_sentence: str | None = None,
        overlength: bool = False,
    ) -> str:
        """Number the next requirement, file it under its slot and record its truth.

        `content` is the body of one version open from the first release;
        `versions` gives (first, last, content) triples instead.
        """
        req_id = f"REQ_{len(truth['requirements']) + 1:04d}"
        versions = versions or [(RELEASES[0], None, content)]
        slot = proc_home[procedure] if slot is None else slot
        surface = surface or procedure
        devs = devs or {}
        doc_name, path = _SLOTS[slot]
        slot_reqs[slot].append(
            Requirement(
                id=req_id,
                versions=tuple(
                    RequirementVersion(first_release=f, last_release=l, content=c)
                    for f, l, c in versions
                ),
                section_path=path,
            )
        )
        truth["procedures"][procedure].append(req_id)
        truth["requirements"][req_id] = {
            "document": doc_name,
            "section_path": list(path),
            "procedure": procedure,
            "surface": surface,
            "versions": [
                {"first": str(f), "last": None if l is None else str(l)}
                for f, l, _ in versions
            ],
            "devs": sorted(devs),
            "deployment": deployment,
            "span_sentence": span_sentence,
            "overlength": overlength,
        }
        if overlength:
            truth["overlength"].append(req_id)
        if surface != procedure:
            truth["alias_usages"].append(
                {"requirement": req_id, "surface": surface, "canonical": procedure}
            )
        for dev, introduced in devs.items():
            truth["dev_changes"][dev] = {
                "requirement": req_id,
                "release": str(introduced),
                "procedure": procedure,
            }
        # A change between adjacent releases a -> b: a development introduced
        # at b, or a new version starting at b.
        starts = {f for f, _, _ in versions}
        for a, b in zip(RELEASES, RELEASES[1:]):
            causes = sorted(d for d, r in devs.items() if r == b)
            if causes or b in starts:
                truth["changes"][f"{a}->{b}"][req_id] = causes
        return req_id

    def plain_body(surface: str, min_tokens: int) -> list[str]:
        lead = _mention_sentence(rng, surface)
        return [lead] + _filler_sentences(rng, min_tokens - _token_count(lead))

    def lead_text(canonical: str, min_tokens: int) -> str:
        # unlike plain_body, the filler alone reaches min_tokens
        return _mention_sentence(rng, canonical) + " " + " ".join(_filler_sentences(rng, min_tokens))

    # --- base plain requirements (duplication sources come from these) ----
    n_dev = max(3, n_base // 5)
    n_span = max(2, n_base // 10)
    n_multi = max(2, n_base // 10)
    n_plain = n_base - n_dev - n_span - n_multi

    # (id, procedure, sentences) of each plain requirement
    plain_sources: list[tuple[str, str, list[str]]] = []
    for _ in range(n_plain):
        canonical = next(procs)
        sentences = plain_body(canonical, 60)
        req_id = add(canonical, PlainText(" ".join(sentences)))
        plain_sources.append((req_id, canonical, sentences))

    # --- requirements carrying development blocks ------------------------
    release_cycle = RELEASES[1:]
    for _ in range(n_dev):
        canonical = next(procs)
        segments: list[ContentSegment] = [PlainText(lead_text(canonical, 30))]
        devs: dict[str, ReleaseId] = {}
        for _ in range(rng.randrange(1, 4)):
            n = len(registry_entries) + len(devs)
            dev = f"CB{n + 1:06d}"
            devs[dev] = release_cycle[n % len(release_cycle)]
            replaced = _sentence(rng)
            segments.append(
                DevBlock(
                    dev,
                    (PlainText(replaced),),
                    (PlainText(_fresh_sentence(rng, replaced)),),
                )
            )
            segments.append(PlainText(_sentence(rng)))
        registry_entries.update(devs)
        add(canonical, *segments, devs=devs)

    # --- requirements with one deployment span ---------------------------
    for _ in range(n_span):
        canonical = next(procs)
        dep = rng.choice(list(DeploymentType))
        span_sentence = _sentence(rng)
        add(
            canonical,
            PlainText(lead_text(canonical, 25)),
            DeploymentSpan(dep, (PlainText(span_sentence),)),
            PlainText(_sentence(rng)),
            deployment=dep.value,
            span_sentence=span_sentence,
        )

    # --- requirements with an already-baselined second version -----------
    for _ in range(n_multi):
        canonical = next(procs)
        shared = _mention_sentence(rng, canonical)
        old_tail = _sentence(rng)
        new_tail = _sentence(rng) + " " + _sentence(rng)
        add(
            canonical,
            versions=[
                (RELEASES[0], RELEASES[0], (PlainText(shared + " " + old_tail),)),
                (RELEASES[1], None, (PlainText(shared + " " + new_tail),)),
            ],
        )

    # --- injected: over-length requirements ------------------------------
    for _ in range(overlength):
        canonical = next(procs)
        add(canonical, PlainText(" ".join(plain_body(canonical, 330))), overlength=True)

    # --- injected: non-canonical alias usages -----------------------------
    for i in range(alias_usages):
        canonical, aliases = PROCEDURES[i % len(normal_procs)]
        alias = aliases[i % len(aliases)]
        add(canonical, PlainText(" ".join(plain_body(alias, 45))), surface=alias)

    # --- injected: dispersed procedures -----------------------------------
    for canonical, slots in zip(dispersed_pool[:dispersed_procs], _DISPERSED_SLOTS):
        truth["dispersed"][canonical] = [
            add(canonical, PlainText(" ".join(plain_body(canonical, 35))), slot=slot)
            for slot in slots
        ]

    # --- injected: near-duplicate copies ----------------------------------
    for source_id, canonical, sentences in plain_sources[:dup_pairs]:
        copy_sentences = list(sentences)
        # Swap exactly one filler word; texts of >=50 tokens keep the
        # 5-shingle Jaccard at or above 0.8.
        target = rng.randrange(1, len(copy_sentences))
        words = copy_sentences[target].split()
        swappable = [
            i
            for i, w in enumerate(words)
            if w.rstrip(".").islower() and w.rstrip(".") in _FILLER_NOUNS + _FILLER_VERBS + _FILLER_MODS
        ]
        pick = swappable[rng.randrange(len(swappable))]
        old = words[pick]
        replacement = rng.choice([w for w in _FILLER_NOUNS if w != old.rstrip(".")])
        words[pick] = replacement + ("." if old.endswith(".") else "")
        copy_sentences[target] = " ".join(words)

        copy_text = " ".join(copy_sentences)
        sim = jaccard(
            shingle_set(normalize(tokenize(" ".join(sentences))), 5),
            shingle_set(normalize(tokenize(copy_text)), 5),
        )
        assert sim >= 0.8, f"constructed duplicate below 0.8 Jaccard: {sim}"
        truth["duplicates"].append([source_id, add(canonical, PlainText(copy_text))])

    # --- assemble documents: each top section holds its own requirements
    # followed by its subsections, in slot order ----------------------------
    tops: dict[str, dict[str, tuple[list[Requirement], list[Section]]]] = {
        doc_name: {} for doc_name in truth["documents"]
    }
    for (doc_name, path), reqs in zip(_SLOTS, slot_reqs):
        own, subs = tops[doc_name].setdefault(path[0], ([], []))
        if len(path) == 1:
            own.extend(reqs)
        else:
            subs.append(Section(title=path[1], requirements=tuple(reqs)))
    documents = [
        SpecDocument(
            name=doc_name,
            sections=tuple(
                Section(title=title, requirements=tuple(own), subsections=tuple(subs))
                for title, (own, subs) in top.items()
            ),
        )
        for doc_name, top in tops.items()
    ]

    registry = DevelopmentRegistry(entries=registry_entries)
    return CorpusBundle(
        documents=documents,
        sources={f"{doc.name}.spec": serialize(doc) for doc in documents},
        registry=registry,
        registry_text=dump_registry(registry),
        lexicon=lexicon,
        lexicon_text=dump_lexicon(lexicon),
        ground_truth=truth,
    )


def write_corpus(bundle: CorpusBundle, out_dir: Path) -> list[Path]:
    """Write corpus files, registry, lexicon and ground truth under `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(bundle.sources.items()) + [
        ("registry.txt", bundle.registry_text),
        ("lexicon.json", bundle.lexicon_text),
        ("ground_truth.json", json.dumps(bundle.ground_truth, indent=2, sort_keys=True) + "\n"),
    ]
    written = []
    for filename, text in files:
        path = out_dir / filename
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
