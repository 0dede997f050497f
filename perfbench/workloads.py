"""Workload processes of the speckit benchmark; `run.py` starts them.

    python3 perfbench/workloads.py prepare WORKLOAD SEED DIR
    python3 perfbench/workloads.py measure WORKLOAD DIR ROLE

`prepare` writes a workload's inputs and their properties to DIR.  `measure`
runs one part of the workload, once, in a fresh single-threaded process on
those files, and prints one JSON object of raw samples.  ROLE is

- `batch`: set-up, then the batch stage (`lint_corpus`; index build and
  write; `extract_all` and JSONL);
- `ops`: set-up (on index-query the index load instead, as `query --index`
  does), then one sweep over the workload's operations (each corpus document
  linted alone; the query stream; every adjacent-release diff);
- `pass`: set-up, batch, index load and sweep, once, tracing off;
- `traced`: the same with spans at every module boundary.

Each set-up, batch and load is the first of its kind in its process, and
each operation runs in the process's only sweep, as in one CLI invocation:
a memo that speckit keeps across calls never serves a repeat here.  `batch`
and `ops` processes run calib.Clock while they measure and report
calibrated times next to wall times (see calib.py).

Every operation's output is checked against an oracle that does not come
from the code under test: the generator's ground truth for `gen-corpus`
inputs, and the expected texts `longhist.py` records for `long-history`.
A failed or wrong operation is counted, never fatal.
"""

from __future__ import annotations

import json
import random
import re
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import calib
import longhist
import tracer as tracing
from speckit import dataset as dataset_mod
from speckit import index as index_mod
from speckit import lexicon as lexicon_mod
from speckit import lint as lint_mod
from speckit import parser as parser_mod
from speckit import resolver as resolver_mod
from speckit.generator import generate_corpus, write_corpus
from speckit.model import DeploymentType, ReleaseId

WORKLOADS = ("lint-gate", "index-query", "long-history")
GEN_SIZES = {"lint-gate": 1200, "index-query": 2000}

ROLES = ("batch", "ops", "pass", "traced")
QUERY_STREAM = 2500

QUERY_FORMS = ("behavior", "diff", "dev", "reqs", "deployment")
INDEX_SECTIONS = ("req_release", "proc_release", "proc_dep", "proc_dev")
_ALARM = {signal.SIGALRM}
_TAG_RE = re.compile(r"\[(?:Before |End )?CB[0-9A-Za-z]{6}\]|\[(?:End )?N?SA\]")


# ---------------------------------------------------------------------------
# Preparation (its own process; not timed)
# ---------------------------------------------------------------------------


def _repeat_share(rows: list[list]) -> float:
    """Share of (requirement, release) texts equal to the previous release's.

    `rows` holds, per requirement, its text at each release or None.  The base
    is every (requirement, release) with a text, the first release excluded.
    """
    base = same = 0
    for row in rows:
        for prev, cur in zip(row, row[1:]):
            if cur is not None:
                base += 1
                same += prev == cur
    return same / base if base else 0.0


def prepare(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "long-history":
        for name, text in longhist.generate(seed).items():
            (out / name).write_text(text, encoding="utf-8")
        oracle = json.loads((out / "expected.json").read_text(encoding="utf-8"))
        rows = [
            [None if cell is None else cell[0] for cell in row]
            for row in oracle["expected"].values()
        ]
        meta = {"corpus": ["history.spec"], "lexicon": None,
                "requirements": len(rows), "releases": len(oracle["releases"])}
    else:
        bundle = generate_corpus(seed=seed, size=GEN_SIZES[workload])
        write_corpus(bundle, out)
        universe = [ReleaseId.parse(r) for r in bundle.ground_truth["universe"]]
        # An input property, not an oracle, so speckit's resolver may give it.
        rows = []
        for doc in bundle.documents:
            for req in doc.iter_requirements():
                resolved = [resolver_mod.materialize(req, r, None, bundle.registry) for r in universe]
                rows.append([None if x is None else x.text for x in resolved])
        meta = {"corpus": sorted(bundle.sources), "lexicon": "lexicon.json",
                "requirements": len(rows), "releases": len(universe)}
    meta["seed"] = seed
    meta["corpus_bytes"] = sum((out / name).stat().st_size for name in meta["corpus"])
    meta["repeat_share"] = round(_repeat_share(rows), 6)
    (out / "inputs.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Measurement bookkeeping
# ---------------------------------------------------------------------------


class Run:
    """Samples and oracle tallies of one measuring process."""

    def __init__(self, clock: calib.Clock | None = None):
        self.clock = clock
        # metric -> samples in call order; arrays keep the benchmark's own
        # memory out of peak_rss_mb as far as they can
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.spans: dict[str, array] = defaultdict(lambda: array("d"))  # start, end per sample
        self.values: dict[str, float] = {}
        self.labels: list[str] = []  # index-query: the form of each operation
        self.busy_s = 0.0  # time inside timed calls
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, metric: str, fn, *args, scale: float = 1.0, op: bool = False):
        """Call fn, record its time under `metric`; None if it raised.

        The time leaves out the clock's kernel runs inside the call.  During
        a short operation (`op`) the clock's signal waits until it ends.
        """
        self.attempted += 1
        clock = self.clock
        blocked = op and clock is not None
        if blocked:
            signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        spent = clock.spent if clock else 0.0
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            self.fail(f"{metric}: {type(exc).__name__}: {exc}")
            return None
        finally:
            t1 = time.perf_counter()
            # read before unblocking: a pending tick runs as soon as it can
            handler_s = clock.spent - spent if clock else 0.0
            if blocked:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)
        seconds = t1 - t0 - handler_s
        self.busy_s += seconds
        self.samples[metric].append(seconds * scale)
        self.spans[metric].extend((t0, t1))
        return result

    def calibrated(self) -> dict[str, list[float]]:
        """Every sample as calib.Clock.calibrated gives it; call after the clock stops."""
        out = {}
        for metric, samples in self.samples.items():
            span = self.spans[metric]
            out[metric] = [self.clock.calibrated(span[2 * i], span[2 * i + 1], x)
                           for i, x in enumerate(samples)]
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(f"oracle mismatch: {what}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Inputs:
    def __init__(self, directory: Path):
        self.dir = directory
        self.meta = json.loads((directory / "inputs.json").read_text(encoding="utf-8"))

    def read_json(self, name: str):
        return json.loads((self.dir / name).read_text(encoding="utf-8"))


def load(inputs: Inputs):
    """Read and parse corpus, registry and lexicon, then validate: what every CLI call pays."""
    docs, errors = [], []
    for name in inputs.meta["corpus"]:
        path = inputs.dir / name
        result = parser_mod.parse_document(path.read_text(encoding="utf-8"), name=path.stem)
        docs.append(result.document)
        errors.extend(result.errors)
    registry = parser_mod.load_registry((inputs.dir / "registry.txt").read_text(encoding="utf-8"))
    lexicon = None
    if inputs.meta["lexicon"]:
        lexicon = lexicon_mod.load_lexicon((inputs.dir / inputs.meta["lexicon"]).read_text(encoding="utf-8"))
    errors.extend(parser_mod.validate_corpus(docs, registry))
    return docs, registry, lexicon, errors


def setup(run: Run, inputs: Inputs):
    """Time and check the set-up; (docs, registry, lexicon) for the rest of the process."""
    result = run.timed("setup_s", load, inputs)
    if result is None:
        raise RuntimeError("set-up failed")
    docs, registry, lexicon, errors = result
    n = sum(1 for doc in docs for _ in doc.iter_requirements())
    run.check(not errors and n == inputs.meta["requirements"],
              f"setup: {len(errors)} parse errors, {n} requirements")
    return docs, registry, lexicon


# ---------------------------------------------------------------------------
# lint-gate: the CI gate over the whole corpus, and each document alone
# ---------------------------------------------------------------------------


def _lint_expectation(truth: dict, documents: set[str], config) -> dict:
    """What `lint_corpus` must find on the named documents, from the ground truth."""
    reqs = truth["requirements"]

    def inside(req_id: str) -> bool:
        return reqs[req_id]["document"] in documents

    homes = [{(reqs[i]["document"], tuple(reqs[i]["section_path"])) for i in ids if inside(i)}
             for ids in truth["dispersed"].values()]
    return {
        "L1_Duplication": {frozenset(pair) for pair in truth["duplicates"] if all(map(inside, pair))},
        "L2_Length": {i for i in truth["overlength"] if inside(i)},
        "L3_Standardization": {u["requirement"] for u in truth["alias_usages"] if inside(u["requirement"])},
        "L5_Dispersion": sum(1 for h in homes if len(h) > config.max_sections),
    }


def _lint_ok(findings, want: dict) -> bool:
    by_rule: dict[str, list] = defaultdict(list)
    for f in findings:
        by_rule[f.rule.value].append(f)
    pairs = {frozenset((f.location.requirement, f.related.requirement))
             for f in by_rule["L1_Duplication"]}
    return (
        pairs == want["L1_Duplication"]
        and all(
            len(by_rule[rule]) == len(want[rule])
            and {f.location.requirement for f in by_rule[rule]} == want[rule]
            for rule in ("L2_Length", "L3_Standardization")
        )
        and len(by_rule["L5_Dispersion"]) == want["L5_Dispersion"]
        and not by_rule["L4_Grammar"]
    )


def _lint_counts(findings) -> dict:
    return dict(Counter(f.rule.value for f in findings))


def run_lint_gate(run: Run, inputs: Inputs, role: str) -> None:
    truth = inputs.read_json("ground_truth.json")
    docs, registry, lexicon = setup(run, inputs)
    config = lint_mod.LintConfig()

    if role != "ops":
        findings = run.timed("lint_s", lint_mod.lint_corpus, docs, registry, lexicon, config)
        if findings is not None:
            run.check(_lint_ok(findings, _lint_expectation(truth, {d.name for d in docs}, config)),
                      f"lint findings {_lint_counts(findings)}")
            report = "".join(
                json.dumps(f.to_dict(), sort_keys=True, ensure_ascii=False) + "\n" for f in findings
            )
            run.values["findings_bytes_ratio"] = len(report.encode("utf-8")) / inputs.meta["corpus_bytes"]

    if role != "batch":
        # Each document linted alone: what `lint --corpus FILE` does after
        # its set-up.  Pairs across documents are not checked here.
        for doc in docs:
            want = _lint_expectation(truth, {doc.name}, config)
            got = run.timed("lint_doc_ms", lint_mod.lint_corpus, [doc], registry, lexicon, config,
                            scale=1e3)
            if got is not None:
                run.check(_lint_ok(got, want), f"lint of {doc.name}: {_lint_counts(got)}")


# ---------------------------------------------------------------------------
# index-query: build and persist the index, load it, serve a query stream
# ---------------------------------------------------------------------------


def _valid_at(info: dict, r: ReleaseId) -> bool:
    for version in info["versions"]:
        last = version["last"]
        if ReleaseId.parse(version["first"]) <= r and (last is None or r <= ReleaseId.parse(last)):
            return True
    return False


def _query_stream(truth: dict, lexicon_entries: dict, seed: int, count: int) -> list[tuple]:
    """Seeded mix of the five query forms with their expected answers.

    Half the procedures are asked for by an alias; the expected answer is the
    canonical one, taken from the generator's ground truth.
    """
    rng = random.Random(seed)
    universe = [ReleaseId.parse(r) for r in truth["universe"]]
    procs = sorted(truth["procedures"])
    devs = sorted(truth["dev_changes"])
    reqs = truth["requirements"]
    changes = truth["changes"]

    def changed(ids: set, a: ReleaseId, b: ReleaseId) -> dict:
        lo, hi = min(a, b), max(a, b)
        out: dict[str, frozenset] = {}
        for x, y in zip(universe, universe[1:]):
            if lo <= x and y <= hi:
                for req_id, causes in changes[f"{x}->{y}"].items():
                    if req_id in ids:
                        out[req_id] = out.get(req_id, frozenset()) | frozenset(causes)
        return out

    stream = []
    for _ in range(count):
        form = rng.choice(QUERY_FORMS)
        if form == "dev":
            dev = rng.choice(devs)
            info = truth["dev_changes"][dev]
            canonical = info["procedure"] if rng.random() < 0.5 else rng.choice(procs)
        else:
            canonical = rng.choice(procs)
        aliases = [a for a in lexicon_entries[canonical] if a != canonical]
        asked = rng.choice(aliases) if aliases and rng.random() < 0.5 else canonical
        ids = set(truth["procedures"][canonical])
        if form == "behavior":
            r = rng.choice(universe)
            args = (asked, r)
            expected = {i for i in ids if _valid_at(reqs[i], r)}
        elif form == "diff":
            a, b = rng.sample(universe, 2)
            args = (asked, a, b)
            expected = changed(ids, a, b)
        elif form == "dev":
            args = (asked, dev)
            expected = {info["requirement"]} if canonical == info["procedure"] else set()
        elif form == "reqs":
            args = (asked,)
            expected = ids
        else:
            dep = rng.choice(list(DeploymentType))
            r = rng.choice(universe)
            args = (asked, dep, r)
            expected = {
                i: (None if reqs[i]["span_sentence"] is None
                    else (reqs[i]["span_sentence"], reqs[i]["deployment"] == dep.value))
                for i in ids if _valid_at(reqs[i], r)
            }
        stream.append((form, args, expected))
    return stream


def _query_ok(form: str, answer, expected) -> bool:
    if form == "behavior":
        ids = [req_id for req_id, _ in answer]
        return (len(ids) == len(expected) and set(ids) == expected
                and not any(_TAG_RE.search(text) for _, text in answer))
    if form == "diff":
        return ({d.id: d.causes for d in answer} == expected
                and all(d.has_changes for d in answer))
    if form == "dev":
        return {d.id for d in answer} == expected
    if form == "reqs":
        return answer == expected
    texts = dict(answer)
    if len(texts) != len(answer) or set(texts) != set(expected):
        return False
    return all(span is None or (span[0] in texts[i]) is span[1] for i, span in expected.items())


QUERY_FUNCS = {
    "behavior": "query_behavior",
    "diff": "query_release_diff",
    "dev": "query_dev_changes",
    "reqs": "query_requirements",
    "deployment": "query_deployment",
}


def _build_and_write(docs, registry, lexicon, path: Path) -> None:
    path.write_text(index_mod.index_to_json(index_mod.build_index(docs, registry, lexicon)),
                    encoding="utf-8")


def _read_index(path: Path):
    return index_mod.index_from_json(path.read_text(encoding="utf-8"))


def run_index_query(run: Run, inputs: Inputs, role: str) -> None:
    truth = inputs.read_json("ground_truth.json")
    path = inputs.dir / "index.json"

    if role != "ops":
        docs, registry, lexicon = setup(run, inputs)
        run.timed("index_build_s", _build_and_write, docs, registry, lexicon, path)
        if path.exists():
            run.values["index_bytes_ratio"] = path.stat().st_size / inputs.meta["corpus_bytes"]
        del docs, registry, lexicon

    if role != "batch":
        lexicon_entries = {c: [c] + aliases for c, aliases in inputs.read_json("lexicon.json").items()}
        stream = _query_stream(truth, lexicon_entries, inputs.meta["seed"], QUERY_STREAM)
        # What every `query --index` pays before it answers.
        index = run.timed("index_load_s", _read_index, path)
        if index is None:
            raise RuntimeError("no index loaded")
        run.check([str(r) for r in index.release_universe] == truth["universe"], "loaded index universe")
        run.labels = [form for form, _, _ in stream]
        for form, args, expected in stream:
            answer = run.timed("query_ms", getattr(index_mod, QUERY_FUNCS[form]), index, *args,
                               scale=1e3, op=True)
            if answer is not None:
                run.check(_query_ok(form, answer, expected), f"{form} query {args}")


# ---------------------------------------------------------------------------
# long-history: per-release extraction and the adjacent-release diff sweep
# ---------------------------------------------------------------------------


def _extract(docs, registry) -> list[str]:
    return [dataset_mod.dataset_to_jsonl(d) for d in dataset_mod.extract_all(docs, registry)]


def run_long_history(run: Run, inputs: Inputs, role: str) -> None:
    oracle = inputs.read_json("expected.json")
    names = oracle["releases"]
    texts = oracle["texts"]
    expected = oracle["expected"]
    docs, registry, _ = setup(run, inputs)

    if role != "ops":
        want_jsonl = []
        for i, name in enumerate(names):
            seen, lines = set(), []
            for req_id in oracle["order"]:
                cell = expected[req_id][i]
                if cell is not None and texts[cell[0]] not in seen:
                    seen.add(texts[cell[0]])
                    lines.append(json.dumps({"id": req_id, "release": name, "text": texts[cell[0]]},
                                            sort_keys=True, ensure_ascii=False) + "\n")
            want_jsonl.append("".join(lines))
        got = run.timed("extract_s", _extract, docs, registry)
        if got is not None:
            run.check(got == want_jsonl, "per-release datasets")
            run.values["dataset_bytes_ratio"] = (
                sum(len(x.encode("utf-8")) for x in got) / inputs.meta["corpus_bytes"])

    if role != "batch":
        # Every requirement diffed over every adjacent release pair; the
        # deployment rotates so SA-only and NSA-only texts are checked too.
        releases = [ReleaseId.parse(r) for r in names]
        deps = (None, DeploymentType.SA, DeploymentType.NSA)
        calls = []
        for doc in docs:
            for req in doc.iter_requirements():
                versions = oracle["versions"][req.id]
                for i in range(len(names) - 1):
                    col = len(calls) % 3
                    calls.append((req, i, col, _expected_diff(expected[req.id], versions,
                                                              oracle["registry"], texts, names, i, col)))
        for req, i, col, want in calls:
            diff = run.timed("diff_call_ms", resolver_mod.diff_behavior, req, releases[i],
                             releases[i + 1], deps[col], registry, scale=1e3, op=True)
            if diff is not None:
                run.check(_diff_matches(diff, want), f"diff of {req.id} {names[i]}->{names[i + 1]}")


def _devs_at(versions: list, t: int, n_releases: int) -> list:
    for first, last, devs in versions:
        if first <= t <= (n_releases - 1 if last is None else last):
            return devs
    return []


def _expected_diff(row, versions, registry, texts, names, i, col):
    """(text at i, text at i + 1, causes) for one requirement, deployment column `col`.

    A cause is a development tagged in either version, reachable under the
    deployment, and introduced at release i + 1.
    """
    a = None if row[i] is None else texts[row[i][col]]
    b = None if row[i + 1] is None else texts[row[i + 1][col]]
    if a == b:
        return a, b, frozenset()
    dep = longhist.DEP_COLUMNS[col]
    tagged = _devs_at(versions, i, len(names)) + _devs_at(versions, i + 1, len(names))
    return a, b, frozenset(
        dev for dev, span in tagged
        if (dep is None or span is None or span == dep) and registry[dev] == names[i + 1]
    )


def _diff_matches(diff, want) -> bool:
    a, b, causes = want
    old = " ".join(s.text for s in diff.segments if s.kind is not resolver_mod.DiffKind.ADDED)
    new = " ".join(s.text for s in diff.segments if s.kind is not resolver_mod.DiffKind.REMOVED)
    return (old == (a or "") and new == (b or "") and diff.has_changes == (a != b)
            and diff.causes == causes)


# ---------------------------------------------------------------------------
# Traced pass: per-layer metrics
# ---------------------------------------------------------------------------


def _observers(distinct: dict[str, set], counts: Counter) -> dict:
    def tokenized(args, result):
        distinct["tokenizer"].add(args[0])

    def resolved(args, result):
        if result is None:
            return
        text = result.text if hasattr(result, "text") else result[0]
        counts["resolver.resolved"] += 1
        distinct["resolver"].add((args[0].id, args[2], text))

    def duplication(args, result):
        counts["lint.L1.findings"] += len(result)

    def extracted(args, result):
        counts["dataset.records"] += len(result.records)
        counts["dataset.dropped_duplicates"] += result.stats.dropped_duplicates

    return {
        "tokenizer.tokenize": tokenized,
        "resolver.resolve": resolved,
        "lint.L1": duplication,
        "dataset.extract_release": extracted,
    }


def layer_metrics(tr: tracing.Tracer, distinct: dict[str, set], counts: Counter) -> dict[str, float]:
    self_s, total_s, calls = tr.self_times(), tr.totals(), tr.calls()
    counts = counts + tr.counts
    pairs = counts["lint.L1.pairs_checked"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "parser.parse_s": total_s["parser.parse"],
        "parser.validate_s": total_s["parser.validate"],
        "lint.L1.s": total_s["lint.L1"],
        "lint.L1.pairs_checked": pairs,
        "lint.L1.hit_ratio": ratio(counts["lint.L1.findings"], pairs),
        "lint.L2.s": total_s["lint.L2"],
        "lint.L3.s": total_s["lint.L3"],
        "lint.L4.s": total_s["lint.L4"],
        "lint.L5.s": total_s["lint.L5"],
        "tokenizer.calls": calls["tokenizer.tokenize"],
        "tokenizer.self_s": self_s["tokenizer.tokenize"] + self_s["tokenizer.normalize"],
        "tokenizer.distinct_ratio": ratio(len(distinct["tokenizer"]), calls["tokenizer.tokenize"]),
        "lexicon.find_mentions.calls": calls["lexicon.find_mentions"],
        "lexicon.self_s": self_s["lexicon.find_mentions"] + self_s["lexicon.phrase_key"] + self_s["lexicon.load"],
        "resolver.calls": calls["resolver.resolve"],
        "resolver.self_s": self_s["resolver.resolve"],
        "resolver.distinct_ratio": ratio(len(distinct["resolver"]), counts["resolver.resolved"]),
        "resolver.diff.calls": calls["resolver.diff"],
        "resolver.diff.self_s": self_s["resolver.diff"],
        "model.release_universe.calls": calls["model.release_universe"],
        "model.release_universe.self_s": self_s["model.release_universe"],
        "index.build.self_s": self_s["index.build"],
        "index.to_json_s": total_s["index.to_json"],
        "index.from_json_s": total_s["index.from_json"],
        "dataset.extract_release.calls": calls["dataset.extract_release"],
        "dataset.extract_release.self_s": self_s["dataset.extract_release"],
        "dataset.records": counts["dataset.records"],
        "dataset.dropped_duplicates": counts["dataset.dropped_duplicates"],
        "dataset.jsonl_s": total_s["dataset.jsonl"],
    }
    return {name: float(value) for name, value in out.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

RUNNERS = {
    "lint-gate": run_lint_gate,
    "index-query": run_index_query,
    "long-history": run_long_history,
}


def _index_section_bytes(path: Path) -> dict[str, float]:
    sections = json.loads(path.read_text(encoding="utf-8"))
    return {
        f"index.bytes.{key}": float(len(
            json.dumps(sections[key], sort_keys=True, separators=(",", ":")).encode("utf-8")))
        for key in INDEX_SECTIONS
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started its program.

    Linux keeps in `ru_maxrss` the peak of the image this process replaced,
    a copy of the parent that started it, so it reads the parent's size when
    that is larger; `VmHWM` covers only this program.
    """
    try:
        status = Path("/proc/self/status").read_text(encoding="utf-8")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024


def measure(workload: str, directory: Path, role: str) -> dict:
    """Run one role of the workload in this process; its raw samples and tallies."""
    inputs = Inputs(directory)
    # The traced and untraced passes run without the clock: its kernel
    # would land inside the tracer's spans.
    clock = calib.Clock() if role in ("batch", "ops") else None
    run = Run(clock)
    traced = role == "traced"
    distinct: dict[str, set] = defaultdict(set)
    counts: Counter = Counter()
    tr = tracing.Tracer()
    uninstall = tracing.install(tr, _observers(distinct, counts)) if traced else None
    if clock is not None:
        clock.start()
    try:
        RUNNERS[workload](run, inputs, "pass" if traced else role)
    except Exception as exc:  # the role could not go on; what ran is still reported
        run.fail(f"{workload}: {type(exc).__name__}: {exc}")
    finally:
        if clock is not None:
            clock.stop()
        if uninstall is not None:
            uninstall()
    wall = {k: v.tolist() for k, v in run.samples.items()}
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "samples": run.calibrated() if clock is not None else wall,
        "wall": wall,
        "kernel_ms": 1e3 * statistics.median(clock.took) if clock is not None else None,
        "labels": run.labels,
        "values": run.values,
        "busy_s": run.busy_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        layers = layer_metrics(tr, distinct, counts)
        if (directory / "index.json").exists():
            layers.update(_index_section_bytes(directory / "index.json"))
        result["layers"] = layers
    return result


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "prepare" and argv[1] in WORKLOADS:
        prepare(argv[1], int(argv[2]), Path(argv[3]))
        return 0
    if len(argv) == 4 and argv[0] == "measure" and argv[1] in WORKLOADS and argv[3] in ROLES:
        print(json.dumps(measure(argv[1], Path(argv[2]), argv[3])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
