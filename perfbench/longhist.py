"""Seeded long-history corpus generator for the `long-history` workload.

`gen-corpus` fixes four releases, which hides the release dimension of
resolution and extraction cost.  This generator writes a corpus with many
releases, multi-version requirements, development blocks and SA/NSA spans
spread across releases, and records as it builds each requirement the text
every (requirement, release, deployment) must resolve to.  That record is the
workload's oracle, so it never comes from `speckit.resolver`.

It writes the `.spec` text directly instead of using `speckit.parser`, so the
inputs do not depend on the serializer under test either.  All randomness
flows from one `random.Random(seed)`: the same seed gives byte-identical files.

    python3 perfbench/longhist.py --seed 7 --out DIR

writes DIR/history.spec, DIR/registry.txt and DIR/expected.json.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

REQUIREMENTS = 1000
RELEASES = 16
SECTIONS = 10
DEPLOYMENTS = ("SA", "NSA")
# Expected-text columns per release: both deployments, SA only, NSA only.
DEP_COLUMNS = (None, "SA", "NSA")

_WORDS = (
    "timer counter value state trigger threshold parameter window limit request "
    "response indication record table offset margin budget cycle period slot "
    "frame symbol carrier channel report event entry context profile policy "
    "weight priority quota level class group index pattern sequence interval "
    "starts stops resets updates stores selects applies holds checks raises "
    "clears sends receives keeps marks releases reserves tracks validates "
    "shortly strictly again first later only twice always never partially"
).split()


def release_names(count: int) -> list[str]:
    """`count` release ids in order, four revisions per major: 01R1 .. 01R4, 02R1 .."""
    return [f"{i // 4 + 1:02d}R{i % 4 + 1}" for i in range(count)]


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randrange(7, 13))]
    return " ".join(words).capitalize() + "."


class _VersionWriter:
    """Builds requirements piece by piece; pieces are what the parser will see.

    A piece is ("text", str), ("dev", dev_id, before, after) or
    ("span", dep, [pieces]); span bodies hold text and dev pieces only.
    """

    def __init__(self, rng: random.Random, n_releases: int):
        self.rng = rng
        self.n_releases = n_releases
        self.registry: dict[str, int] = {}  # dev id -> release index

    def new_dev(self, lo: int, hi: int) -> tuple:
        dev = f"CB{len(self.registry) + 1:06d}"
        self.registry[dev] = self.rng.randint(lo, hi)
        before = _sentence(self.rng)
        after = _sentence(self.rng)
        while after == before:
            after = _sentence(self.rng)
        return ("dev", dev, before, after)

    def version_pieces(self, first: int, last: int) -> list:
        rng = self.rng
        pieces: list = [("text", " ".join(_sentence(rng) for _ in range(rng.randint(2, 3))))]
        # A dev must not predate the version's first release; one introduced
        # after `first` switches the text inside the version.
        can_switch = last > first
        if can_switch and rng.random() < 0.45:
            pieces.append(self.new_dev(first + 1, last))
            pieces.append(("text", _sentence(rng)))
        if rng.random() < 0.35:
            body: list = [("text", _sentence(rng))]
            if can_switch and rng.random() < 0.35:
                body.append(self.new_dev(first + 1, last))
            pieces.append(("span", rng.choice(DEPLOYMENTS), body))
            pieces.append(("text", _sentence(rng)))
        return pieces


def render(pieces: list) -> str:
    """The content line the `.spec` format carries for these pieces."""
    parts = []
    for piece in pieces:
        if piece[0] == "text":
            parts.append(piece[1])
        elif piece[0] == "dev":
            _, dev, before, after = piece
            parts.append(f"[Before {dev}] {before} [{dev}] {after} [End {dev}]")
        else:
            _, dep, body = piece
            parts.append(f"[{dep}] {render(body)} [End {dep}]")
    return " ".join(parts)


def expected_text(pieces: list, release: int, dep, registry: dict[str, int]) -> str:
    """Text at release index `release` for deployment `dep` (None: both)."""
    parts = []
    for piece in pieces:
        if piece[0] == "text":
            parts.append(piece[1])
        elif piece[0] == "dev":
            _, dev, before, after = piece
            parts.append(after if registry[dev] <= release else before)
        elif dep is None or piece[1] == dep:
            parts.append(expected_text(piece[2], release, dep, registry))
    return " ".join(parts)


def reachable_devs(pieces: list) -> list[list]:
    """[dev, enclosing deployment or None] for every dev block in the pieces."""
    found = []
    for piece in pieces:
        if piece[0] == "dev":
            found.append([piece[1], None])
        elif piece[0] == "span":
            found.extend([dev, piece[1]] for dev, _ in reachable_devs(piece[2]))
    return found


def _pool(rng: random.Random, n: int, shares: list[tuple]) -> list:
    """n values in exactly the given (value, share) proportions, shuffled.

    Fixed proportions keep the corpus shape, and so the work per run, the
    same for every seed; only which requirement gets which shape varies.
    """
    pool = [value for value, share in shares for _ in range(round(n * share))]
    pool = (pool + [shares[0][0]] * n)[:n]
    rng.shuffle(pool)
    return pool


def _version_bounds(
    rng: random.Random, n_releases: int, start: int, n_versions: int, closed: bool
) -> list[tuple[int, int | None]]:
    """Contiguous (first, last) release-index ranges; last None means open."""
    cuts = sorted(rng.sample(range(start + 1, n_releases), min(n_versions - 1, n_releases - start - 1)))
    firsts = [start] + cuts
    bounds: list[tuple[int, int | None]] = [
        (f, nxt - 1) for f, nxt in zip(firsts, firsts[1:])
    ]
    last_first = firsts[-1]
    if closed and last_first < n_releases - 1:
        bounds.append((last_first, rng.randrange(last_first, n_releases - 1)))
    else:
        bounds.append((last_first, None))
    return bounds


def generate(seed: int, requirements: int = REQUIREMENTS, releases: int = RELEASES) -> dict[str, str]:
    """File name -> file text of one long-history corpus and its oracle.

    The benchmark always uses the default sizes; the tests pass smaller ones.
    """
    rng = random.Random(seed)
    names = release_names(releases)
    writer = _VersionWriter(rng, releases)
    late = releases // 2
    # 70% of requirements exist from the first release, the rest start later.
    starts = _pool(rng, requirements, [(0, 0.7)] + [(r, 0.3 / late) for r in range(1, late + 1)])
    n_versions = _pool(rng, requirements, [(1, 0.4), (2, 0.3), (3, 0.2), (4, 0.1)])
    closed = _pool(rng, requirements, [(False, 0.9), (True, 0.1)])
    copies = _pool(rng, requirements, [(False, 0.98), (True, 0.02)])
    reqs: list[dict] = []
    for i in range(requirements):
        req_id = f"HIST_{i + 1:05d}"
        if reqs and copies[i]:
            # An exact copy of an earlier requirement: extraction must drop it
            # as a duplicate text at every release both are valid.
            source = rng.choice(reqs)
            reqs.append({"id": req_id, "versions": source["versions"]})
            continue
        versions = []
        for first, last in _version_bounds(rng, releases, starts[i], n_versions[i], closed[i]):
            stop = releases - 1 if last is None else last
            versions.append((first, last, writer.version_pieces(first, stop)))
        reqs.append({"id": req_id, "versions": versions})

    # Every release must be in the corpus's release universe (version bounds
    # plus registry releases); register an unused dev for any gap.
    used = set(writer.registry.values())
    for req in reqs:
        for first, last, _ in req["versions"]:
            used.add(first)
            if last is not None:
                used.add(last)
    for missing in sorted(set(range(releases)) - used):
        writer.registry[f"CB{len(writer.registry) + 1:06d}"] = missing

    registry = writer.registry
    texts: list[str] = []
    text_ids: dict[str, int] = {}

    def text_id(text: str) -> int:
        if text not in text_ids:
            text_ids[text] = len(texts)
            texts.append(text)
        return text_ids[text]

    lines = ["=== SPEC FORMAT 1 ==="]
    per_section = -(-requirements // SECTIONS)
    expected: dict[str, list] = {}
    versions_out: dict[str, list] = {}
    for i, req in enumerate(reqs):
        if i % per_section == 0:
            lines += ["", f"# History section {i // per_section + 1}"]
        lines += ["", f"=== REQ {req['id']} ==="]
        row: list = [None] * releases
        for first, last, pieces in req["versions"]:
            last_name = "open" if last is None else names[last]
            lines.append(f"--- VERSION first={names[first]} last={last_name} ---")
            lines.append(render(pieces))
            stop = releases - 1 if last is None else last
            for r in range(first, stop + 1):
                row[r] = [text_id(expected_text(pieces, r, dep, registry)) for dep in DEP_COLUMNS]
        lines.append("=== END ===")
        expected[req["id"]] = row
        versions_out[req["id"]] = [
            [first, last, reachable_devs(pieces)] for first, last, pieces in req["versions"]
        ]

    oracle = {
        "seed": seed,
        "releases": names,
        "deployments": ["both", "SA", "NSA"],
        "order": [req["id"] for req in reqs],
        "texts": texts,
        # requirement -> per release: null, or text ids for [both, SA, NSA]
        "expected": expected,
        # requirement -> [[first, last or null, [[dev, span dep or null], ...]], ...]
        "versions": versions_out,
        "registry": {dev: names[r] for dev, r in sorted(registry.items())},
    }
    return {
        "history.spec": "\n".join(lines) + "\n",
        "registry.txt": "".join(f"{dev} {names[r]}\n" for dev, r in sorted(registry.items())),
        "expected.json": json.dumps(oracle, sort_keys=True, separators=(",", ":")) + "\n",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, metavar="DIR")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in generate(args.seed).items():
        (out / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
