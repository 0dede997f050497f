"""Seeded mutation check for the index loader over a small built index.

Each mutant is the written index of `support.index_cases()` with one edit:
a key dropped at a fixed-schema path (a top-level key, or one half of a
`req_release` record or an entry pair), a value replaced by one of another
JSON type at a seeded sample of paths, or a `proc_dev` requirement id
replaced by a value of every JSON type or by the id of a requirement that
the development did not change, or a string or integer replaced by another
one of its type.  `index_from_json` must load each mutant or raise
ValueError whose message starts "malformed index:", and never raise
anything else; every dropped fixed key and every replaced id must raise.
Every mutant that loads must answer all five query forms, raising nothing
but UnknownReleaseError and UnknownDevelopmentError.

The `proc_dep` overlay has edits of its own.  An override moved to an id
with no entry at its place, given the text of the entry it overrides, or
followed by a second override of its id must raise; an override given another text, or a new override
of another entry at its place, must load, and its SA or NSA answer must be
the `proc_release` answer with that entry's text replaced.

So do the sentence table and the "texts" rows.  A row that is not
canonical positions in the sentence table (negative, out of range, not an
integer, a leading zero or space, a doubled space, empty), and such a row
appended where nothing refers to it, must raise.  A row given other
positions in range, and a sentence given another string, must load or be
refused, and a mutant that loads must answer all five query forms.
"""

import copy
import json
import random

import pytest

from speckit.errors import UnknownDevelopmentError, UnknownReleaseError
from speckit.index import (
    UNMAPPED,
    build_index,
    index_from_json,
    index_to_json,
    query_behavior,
    query_deployment,
    query_dev_changes,
    query_release_diff,
    query_requirements,
)
from speckit.lexicon import build_lexicon
from speckit.model import DeploymentType, ReleaseId
from support import INDEX_LEXICON, index_cases, written_texts

TOP_LEVEL_KEYS = (
    "aliases", "format_version", "proc_dep", "proc_dev", "proc_release",
    "registry", "release_universe", "req_release", "sentences", "texts",
)
# One value of each JSON type; a swap takes one whose type differs.
SWAPS = (None, True, 0, 1.5, "x", [], [0], {}, {"x": 0})


def _base_source() -> str:
    docs, registry = index_cases()
    return index_to_json(build_index(docs, registry, build_lexicon(INDEX_LEXICON)))


BASE_SOURCE = _base_source()
BASE = json.loads(BASE_SOURCE)


def _paths(node, prefix=()):
    """The path of every value under `node`, parents before children."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _fixed_paths() -> list[tuple]:
    """Every path whose key the format fixes, so dropping it must be refused."""
    paths = [(key,) for key in TOP_LEVEL_KEYS]
    for req_id, by_release in BASE["req_release"].items():
        for r in by_release:
            paths += [("req_release", req_id, r, 1), ("req_release", req_id, r, 0)]
    pair_lists = [("proc_release", proc, r) for proc in BASE["proc_release"]
                  for r in BASE["proc_release"][proc]]
    pair_lists += [("proc_dep", proc, dep, r) for proc in BASE["proc_dep"]
                   for dep in BASE["proc_dep"][proc] for r in BASE["proc_dep"][proc][dep]]
    for path in pair_lists:
        for k in range(len(_at(BASE, path))):
            paths += [path + (k, 1), path + (k, 0)]
    return paths


FIXED_PATHS = _fixed_paths()


def _id_swaps() -> list[tuple[tuple, object]]:
    """(path, new value) for each `proc_dev` id and each value it must not hold:
    one of every JSON type, and every requirement the development did not change."""
    changed: dict[str, set[str]] = {}
    for by_dev in BASE["proc_dev"].values():
        for dev, ids in by_dev.items():
            changed.setdefault(dev, set()).update(ids)
    swaps = []
    for proc, by_dev in BASE["proc_dev"].items():
        for dev, ids in by_dev.items():
            unchanged = sorted(set(BASE["req_release"]) - changed[dev])
            for k in range(len(ids)):
                swaps += [(("proc_dev", proc, dev, k), v) for v in (*SWAPS, *unchanged)]
    return swaps


ID_SWAPS = _id_swaps()


def _overlay_edits() -> tuple[list, list]:
    """(refused, loading): (path, new value) edits of the `proc_dep` overlay.

    Refused: each override moved to every id with no entry at its place,
    given its entry's own text, or followed by a second override of its id.
    Loading: each override given a seeded pick of another text, and a new
    override of each entry at its place that none overrides."""
    rng = random.Random(20241021)
    refused, loading = [], []
    for proc, by_dep in BASE["proc_dep"].items():
        for dep, by_release in by_dep.items():
            for r, overrides in by_release.items():
                place = ("proc_dep", proc, dep, r)
                ref_of = dict(BASE["proc_release"][proc][r])
                absent = sorted(set(BASE["req_release"]) - set(ref_of))
                for k, (req_id, ref) in enumerate(overrides):
                    others = [t for t in range(len(BASE["texts"])) if t not in (ref, ref_of[req_id])]
                    refused += [(place + (k, 0), other) for other in absent]
                    refused.append((place + (k, 1), ref_of[req_id]))
                    refused.append((place, overrides + [[req_id, others[0]]]))
                    loading.append((place + (k, 1), rng.choice(others)))
                overridden = {req_id for req_id, _ in overrides}
                for req_id, ref in ref_of.items():
                    if req_id not in overridden:
                        other = rng.choice([t for t in range(len(BASE["texts"])) if t != ref])
                        loading.append((place, overrides + [[req_id, other]]))
    return refused, loading


OVERLAY_REFUSED, OVERLAY_LOADING = _overlay_edits()


def _table_edits() -> tuple[list, list]:
    """(refused, loading): (path, new value) edits of the sentence table and rows.

    Refused: each row with a position made negative, out of range, not an
    integer or not canonical, or emptied; and a bad row appended.  Loading:
    each row given a seeded pick of positions in range, and each sentence a
    seeded pick of another sentence, that sentence with ". " in it, or ""."""
    rng = random.Random(20241022)
    sentences, rows = BASE["sentences"], BASE["texts"]
    n = len(sentences)
    refused, loading = [], []
    for k, row in enumerate(rows):
        head, _, tail = row.partition(" ")
        rest = f" {tail}" if tail else ""
        refused += [(("texts", k), bad) for bad in (
            f"-1{rest}", f"{n}{rest}", f"x{rest}", f"0{head}{rest}", f"{head}.0{rest}",
            f" {row}", f"{row} ", f"{head}  {tail or 0}", "",
        )]
        picks = [str(rng.randrange(n)) for _ in range(rng.randint(1, 4))]
        loading.append((("texts", k), " ".join(picks)))
    refused.append((("texts",), rows + [str(n)]))
    for k in range(n):
        other = rng.choice([s for s in sentences if s != sentences[k]])
        loading += [(("sentences", k), value) for value in (other, f"{other}. {sentences[k]}", "")]
    return refused, loading


TABLE_REFUSED, TABLE_LOADING = _table_edits()


def _dropped(path: tuple) -> str:
    data = copy.deepcopy(BASE)
    del _at(data, path[:-1])[path[-1]]
    return json.dumps(data)


def _swaps(count: int) -> list[tuple[tuple, object]]:
    """(path, new value) for a seeded sample of paths of BASE."""
    rng = random.Random(20241019)
    paths = list(_paths(BASE))
    picks = []
    for path in rng.sample(paths, min(count, len(paths))):
        old = type(_at(BASE, path))
        picks.append((path, rng.choice([v for v in SWAPS if type(v) is not old])))
    return picks


SWAPPED = _swaps(400)


def _swapped(path: tuple, value) -> str:
    data = copy.deepcopy(BASE)
    _at(data, path[:-1])[path[-1]] = value
    return json.dumps(data)


def _same_type_swaps() -> list[tuple[tuple, object]]:
    """(path, new value) for every string and integer of BASE: a seeded pick of
    another string of BASE or an unregistered development, or of another
    integer at or around the ends of the text table."""
    strings = {_at(BASE, path) for path in _paths(BASE) if type(_at(BASE, path)) is str}
    strings = sorted(strings | {"CB_NOPE"})
    integers = (-1, 0, 1, len(BASE["texts"]) - 1, len(BASE["texts"]))
    rng = random.Random(20241020)
    picks = []
    for path in _paths(BASE):
        old = _at(BASE, path)
        pool = strings if type(old) is str else integers if type(old) is int else ()
        choices = [v for v in pool if v != old]
        if choices:
            picks.append((path, rng.choice(choices)))
    return picks


SAME_TYPE_SWAPS = _same_type_swaps()


def _answer_every_query(index) -> None:
    """Each query form over every procedure, alias and unknown name, every
    release and ordered release pair, every development and both deployments
    of the mutant and of BASE; only an unknown release or development may raise."""
    procedures = {*BASE["aliases"], *BASE["aliases"].values(), *index.aliases,
                  *index.aliases.values(), *index.proc_release, UNMAPPED, "unknown"}
    releases = {*index.release_universe, *map(ReleaseId.parse, BASE["release_universe"])}
    devs = {*index.registry, *BASE["registry"], "CB_NOPE"}
    calls = []
    for proc in sorted(procedures):
        calls.append((query_requirements, proc))
        calls += [(query_dev_changes, proc, dev) for dev in sorted(devs)]
        for dep in DeploymentType:
            calls.append((query_deployment, proc, dep))
            calls += [(query_deployment, proc, dep, r) for r in sorted(releases)]
        for a in sorted(releases):
            calls.append((query_behavior, proc, a))
            calls += [(query_release_diff, proc, a, b) for b in sorted(releases)]
    for query, *args in calls:
        try:
            query(index, *args)
        except (UnknownReleaseError, UnknownDevelopmentError):
            pass


def test_base_loads_and_covers_the_schema():
    assert index_to_json(index_from_json(BASE_SOURCE)) == BASE_SOURCE
    assert {type(value) for _, value in SAME_TYPE_SWAPS} == {str, int}
    assert sorted(BASE) == sorted(TOP_LEVEL_KEYS)
    assert len({path for path, _ in ID_SWAPS}) >= 2
    assert sum(type(value) is str for _, value in ID_SWAPS) > len({path for path, _ in ID_SWAPS})
    assert {path[0] for path, _ in SWAPPED} == set(TOP_LEVEL_KEYS)
    assert len({type(value) for _, value in SWAPPED}) == len({type(v) for v in SWAPS})
    assert BASE["proc_dep"] and len(OVERLAY_REFUSED) > len(OVERLAY_LOADING) > 1
    assert any(type(value) is list for _, value in OVERLAY_LOADING)
    assert len(TABLE_REFUSED) > 9 * len(BASE["texts"]) and len(TABLE_LOADING) > len(BASE["texts"])


@pytest.mark.parametrize("chunk", range(4))
def test_every_dropped_fixed_key_is_malformed(chunk):
    for path in FIXED_PATHS[chunk::4]:
        with pytest.raises(ValueError, match="^malformed index: "):
            index_from_json(_dropped(path))


def test_every_swapped_id_is_malformed():
    for path, value in ID_SWAPS:
        with pytest.raises(ValueError, match="^malformed index: "):
            index_from_json(_swapped(path, value))


def test_every_refused_overlay_edit_is_malformed():
    for path, value in OVERLAY_REFUSED:
        with pytest.raises(ValueError, match="^malformed index: proc_dep "):
            index_from_json(_swapped(path, value))


def test_every_refused_table_edit_is_malformed():
    for path, value in TABLE_REFUSED:
        with pytest.raises(ValueError, match="^malformed index: texts row "):
            index_from_json(_swapped(path, value))


def test_every_loading_overlay_edit_overrides_its_entry():
    """At the edited place, the edited deployment's answer is the
    `proc_release` answer with each overridden entry's text replaced, and
    the other deployment's answer is that of BASE."""
    base = index_from_json(BASE_SOURCE)
    for path, value in OVERLAY_LOADING:
        edited = json.loads(_swapped(path, value))
        index = index_from_json(json.dumps(edited))
        proc, dep, r = path[1:4]
        r = ReleaseId.parse(r)
        overrides = dict(_at(edited, path[:4]))
        for deployment in DeploymentType:
            want = query_deployment(base, proc, deployment, r)
            if deployment.value == dep:
                texts = written_texts(edited)
                want = [(req_id, texts[overrides[req_id]] if req_id in overrides else text)
                        for req_id, text in query_behavior(base, proc, r)]
            assert query_deployment(index, proc, deployment, r) == want, (path, value)


@pytest.mark.parametrize("chunk", range(4))
def test_swapped_type_loads_or_is_malformed(chunk):
    for path, value in SWAPPED[chunk::4]:
        try:
            index_from_json(_swapped(path, value))
        except ValueError as exc:
            assert str(exc).startswith("malformed index: "), (path, value, exc)
        except Exception as exc:  # any other exception fails, naming the mutant
            raise AssertionError(f"{path} = {value!r}: {type(exc).__name__}: {exc}") from exc


@pytest.mark.parametrize("chunk", range(4))
def test_loaded_mutant_answers_every_query(chunk):
    mutants = [("base", None)] + SWAPPED + SAME_TYPE_SWAPS + OVERLAY_LOADING + TABLE_LOADING
    loaded = 0
    for path, value in mutants[chunk::4]:
        source = BASE_SOURCE if path == "base" else _swapped(path, value)
        try:
            index = index_from_json(source)
        except ValueError as exc:  # a refused index: a malformed one or another format
            assert str(exc).startswith(("malformed index: ", "unsupported index format")), (
                path, value, exc
            )
            continue
        loaded += 1
        try:
            _answer_every_query(index)
        except Exception as exc:  # any other exception fails, naming the mutant
            raise AssertionError(f"{path} = {value!r}: {type(exc).__name__}: {exc}") from exc
    assert loaded >= 10
