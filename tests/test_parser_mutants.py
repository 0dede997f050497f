"""Seeded mutation differential for the parser over `gen-corpus` documents.

Each mutant edits one requirement block of a generated document.  The parser
must never raise, a mutant with one edit must give at least one error, and
an inverted version range must always be reported as a `BadReleaseId` at
its block's line, whatever else is wrong with the block.
"""

import random
import re

import pytest

from speckit.generator import generate_corpus
from speckit.model import TAG_RE
from speckit.parser import ParseErrorKind, parse_document

INVERTED_HEADER = "--- VERSION first=02R2 last=01R1 ---"
INVERTED_MESSAGE = "version range inverted: 02R2 > 01R1"
_FIRST_RE = re.compile(r"first=\w+")


def _sources() -> list[tuple[str, str]]:
    sources = []
    for seed in (0, 1, 2):
        bundle = generate_corpus(
            seed, size=40, dup_pairs=3, overlength=2, alias_usages=3, dispersed_procs=1
        )
        sources.extend(sorted(bundle.sources.items()))
    return sources


SOURCES = _sources()


def _blocks(lines: list[str]) -> list[tuple[int, int]]:
    """(REQ line, END line) index pairs of every requirement block."""
    starts = [i for i, line in enumerate(lines) if line.startswith("=== REQ ")]
    return [(s, lines.index("=== END ===", s)) for s in starts]


def _headers(lines: list[str], start: int, end: int) -> list[int]:
    return [i for i in range(start, end) if lines[i].startswith("--- VERSION ")]


# Each edit changes one block in place and must make the document wrong.
def _drop_end(rng, lines, blocks, b):
    del lines[blocks[b][1]]


def _drop_first_header(rng, lines, blocks, b):
    del lines[blocks[b][0] + 1]


def _bad_release(rng, lines, blocks, b):
    i = rng.choice(_headers(lines, *blocks[b]))
    lines[i] = _FIRST_RE.sub("first=1R1", lines[i])


def _drop_tag(rng, lines, blocks, b):
    start, end = blocks[b]
    spots = [(i, m) for i in range(start, end) for m in TAG_RE.finditer(lines[i])]
    if not spots:  # a block without tags loses its end line instead
        return _drop_end(rng, lines, blocks, b)
    i, m = rng.choice(spots)
    lines[i] = lines[i][: m.start()] + lines[i][m.end() :]


def _duplicate_id(rng, lines, blocks, b):
    start = blocks[b][0]
    other = rng.choice([k for k in range(len(blocks)) if k != b])
    lines[start] = lines[blocks[other][0]]


def _invert(rng, lines, blocks, b):
    lines[rng.choice(_headers(lines, *blocks[b]))] = INVERTED_HEADER


EDITS = (_drop_end, _drop_first_header, _bad_release, _drop_tag, _duplicate_id, _invert)
# Edits that leave an inverted header and every release id of its block intact.
BESIDE_INVERSION = (_drop_end, _drop_tag, _duplicate_id)


def _mutants(count: int):
    """(name, source, REQ line of the edited block, edits) for seeded mutants."""
    rng = random.Random(20240612)
    for k in range(count):
        name, source = SOURCES[k % len(SOURCES)]
        lines = source.split("\n")
        blocks = _blocks(lines)
        b = rng.randrange(len(blocks))
        if k % 2:
            edits = [_invert] + rng.sample(BESIDE_INVERSION, rng.randrange(3))
        else:
            edits = [rng.choice(EDITS)]
        # No edit moves a REQ line; the one that deletes a line goes last,
        # so every edit before it finds its block where it was.
        edits.sort(key=lambda edit: edit is _drop_end)
        for edit in edits:
            edit(rng, lines, _blocks(lines), b)
        yield name, "\n".join(lines), blocks[b][0] + 1, edits


MUTANTS = list(_mutants(240))


def test_sources_parse_clean():
    for name, source in SOURCES:
        assert parse_document(source, name).ok


def test_mutants_cover_every_edit_and_pairing():
    singles = {edits[0] for _, _, _, edits in MUTANTS if len(edits) == 1}
    assert singles == set(EDITS)
    assert sum(len(edits) > 1 for _, _, _, edits in MUTANTS) >= 60


@pytest.mark.parametrize("chunk", range(4))
def test_one_edit_gives_an_error_and_inversion_is_always_reported(chunk):
    for name, source, req_line, edits in MUTANTS[chunk::4]:
        result = parse_document(source, name)
        assert result.errors, (name, [e.__name__ for e in edits])
        assert all(e.document == name for e in result.errors)
        if _invert in edits:
            assert (ParseErrorKind.BAD_RELEASE_ID, req_line, INVERTED_MESSAGE) in [
                (e.kind, e.line, e.message) for e in result.errors
            ], (name, [e.__name__ for e in edits], result.errors)


STRAY_LINES = ("[SA]", "[End CB000001]", "=== END ===", "--- VERSION first=01R2 last=open ---")


def test_random_line_edits_never_raise():
    rng = random.Random(7)
    for k in range(300):
        name, source = SOURCES[k % len(SOURCES)]
        lines = source.split("\n")
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(lines) - 1)
            op = rng.randrange(4)
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[i])
            elif op == 2:
                lines[i], lines[i + 1] = lines[i + 1], lines[i]
            else:
                lines.insert(i, rng.choice(STRAY_LINES))
        result = parse_document("\n".join(lines), name)
        assert all(e.document == name for e in result.errors)
