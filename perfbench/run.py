"""speckit benchmark: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload lint-gate --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

Run from the repository root; speckit is imported from `src/`, nothing is
installed or built.  For each workload, one process writes the seeded inputs
to a scratch directory under `.perfbench_work/`.  Fresh processes then
measure them, each the way one CLI invocation would (see workloads.py).
`--trace 0` alternates batch and operation processes for `--seconds` and
reports the end-to-end metrics, tracing off; `--trace 1` reports the
per-layer metrics from a pass with spans at every module boundary, and the
tracing overhead against untraced passes of the same work.  Human-readable
lines come first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

README.md in this directory defines every metric and maps each per-layer
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lint-gate", "index-query", "long-history")
DEADLINE_S = 170  # each workload must end within 180 s
MIN_PER_ROLE = 3

# End-to-end metrics shared by every workload; each workload fills them from
# its own stages (README.md, "End-to-end metrics").
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "output_bytes_ratio": "ratio",
    "peak_rss_mb": "MB",
}
BATCH = {"lint-gate": "lint_s", "index-query": "index_build_s", "long-history": "extract_s"}
OUTPUT = {"lint-gate": "findings_bytes_ratio", "index-query": "index_bytes_ratio",
          "long-history": "dataset_bytes_ratio"}
OP = {"lint-gate": "lint_doc_ms", "index-query": "query_ms", "long-history": "diff_call_ms"}
QUERY_FORMS = ("behavior", "diff", "dev", "reqs", "deployment")

PER_LAYER = {
    "parser.parse_s": "s", "parser.validate_s": "s",
    "lint.L1.s": "s", "lint.L1.pairs_checked": "count", "lint.L1.hit_ratio": "ratio",
    "lint.L2.s": "s", "lint.L3.s": "s", "lint.L4.s": "s", "lint.L5.s": "s",
    "tokenizer.calls": "count", "tokenizer.self_s": "s", "tokenizer.distinct_ratio": "ratio",
    "lexicon.find_mentions.calls": "count", "lexicon.self_s": "s",
    "resolver.calls": "count", "resolver.self_s": "s", "resolver.distinct_ratio": "ratio",
    "resolver.diff.calls": "count", "resolver.diff.self_s": "s",
    "model.release_universe.calls": "count", "model.release_universe.self_s": "s",
    "index.build.self_s": "s", "index.to_json_s": "s", "index.from_json_s": "s",
    "index.bytes.req_release": "bytes", "index.bytes.proc_release": "bytes",
    "index.bytes.proc_dep": "bytes", "index.bytes.proc_dev": "bytes",
    **{f"index.query.{form}.p50_ms": "ms" for form in QUERY_FORMS},
    "index.query.diff.p99_ms": "ms",
    "dataset.extract_release.calls": "count", "dataset.extract_release.self_s": "s",
    "dataset.records": "count", "dataset.dropped_duplicates": "count", "dataset.jsonl_s": "s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float | None:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 75):
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return None


def per_op_median(sweeps: list[list[float]]) -> list[float]:
    """Each operation's median latency over the sweeps, one sweep per process.

    Every sweep runs the same operations in the same order, so position i of
    each complete sweep is the same operation.
    """
    size = max(len(s) for s in sweeps)
    return [statistics.median(times) for times in zip(*(s for s in sweeps if len(s) == size))]


def describe(name: str, samples: list[float], unit: str, what: str) -> str:
    line = f"  {name:<22} {statistics.median(samples):>12.6g} {unit:<5} median of {len(samples)} {what}"
    q = tail_percentile(len(samples))
    if q is not None:
        line += f", p{q:g} {percentile(samples, q):.6g}"
    return line


class Failure(Exception):
    """A stage of the run could not produce a result."""


def _python(args: list[str], deadline: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args], env=env,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"{args[0]} {args[1]} timed out") from exc
    if proc.returncode != 0:
        raise Failure(f"{args[0]} {args[1]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def _measure(workload: str, scratch: Path, role: str, deadline: float) -> tuple[str, dict]:
    return role, json.loads(_python(["measure", workload, str(scratch), role], deadline).splitlines()[-1])


def timed_processes(workload: str, scratch: Path, seconds: int, deadline: float) -> list[tuple[str, dict]]:
    """Fresh `batch` and `ops` processes, alternately, until `seconds` are spent.

    Makes at least MIN_PER_ROLE of each and starts no process it expects to
    end past the budget.  A batch comes first: on index-query it writes the
    index the `ops` processes load.
    """
    start = time.monotonic()
    took: dict[str, float] = {}
    results: list[tuple[str, dict]] = []
    while True:
        role = ("batch", "ops")[len(results) % 2]
        if len(results) >= 2 * MIN_PER_ROLE and time.monotonic() - start + took[role] > seconds:
            return results
        begun = time.monotonic()
        results.append(_measure(workload, scratch, role, deadline))
        took[role] = time.monotonic() - begun


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work))
    try:
        _python(["prepare", workload, str(seed), str(scratch)], deadline)
        inputs = json.loads((scratch / "inputs.json").read_text(encoding="utf-8"))
        if trace:
            # Untraced and traced passes alternate, twice, so the overhead
            # compares passes close in time on a host whose speed drifts.
            results = [_measure(workload, scratch, role, deadline)
                       for role in ("pass", "traced", "pass", "traced")]
        else:
            results = timed_processes(workload, scratch, seconds, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it
    return report(workload, seed, inputs, results, trace)


def _gather(results: list[dict], name: str, kind: str = "samples") -> list[float]:
    return [x for r in results for x in r[kind].get(name, [])]


def traced_layers(workload: str, results: list[tuple[str, dict]]) -> dict[str, float]:
    untraced = [r for role, r in results if role == "pass"]
    traced = [r for role, r in results if role == "traced"]
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(traced[0]["layers"])
    if workload == "index-query":
        for form in QUERY_FORMS:
            times = [x for r in untraced for x, label in zip(r["samples"].get("query_ms", []), r["labels"])
                     if label == form]
            if times:
                layers[f"index.query.{form}.p50_ms"] = percentile(times, 50)
                if form == "diff":
                    layers["index.query.diff.p99_ms"] = percentile(times, 99)
    base = min(r["busy_s"] for r in untraced)
    layers["trace.overhead_s"] = min(r["busy_s"] for r in traced) - base
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / base
    return layers


def report(workload: str, seed: int, inputs: dict, results: list[tuple[str, dict]], trace: bool) -> dict:
    everything = [r for _, r in results]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"  inputs: requirements={inputs['requirements']} releases={inputs['releases']} "
          f"corpus_bytes={inputs['corpus_bytes']} repeat_share={inputs['repeat_share']}")
    for message in [e for r in everything for e in r["errors"]][:5]:
        print(f"  error: {message}")
    print(f"  {'error_rate':<22} {failed / max(attempted, 1):>12.6g}       ({failed} of {attempted})")

    if trace:
        layers = traced_layers(workload, results)
        for name, value in layers.items():
            print(f"  {name:<32} {value:>14.6g} {PER_LAYER[name]}")
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in layers.items()}
    else:
        batches = [r for role, r in results if role == "batch"]
        ops = [r for role, r in results if role == "ops"]
        setup_s = _gather(everything, "setup_s")
        batch_s = _gather(batches, BATCH[workload])
        sweeps = [r["samples"].get(OP[workload], []) for r in ops]
        per_op = per_op_median(sweeps)
        kernel_ms = [r["kernel_ms"] for r in everything]
        print(f"  calibrated times (calib.py); the clock's kernel took {min(kernel_ms):.3g}-"
              f"{max(kernel_ms):.3g} ms (process medians) against {calib.REFERENCE_S * 1e3:g} ms nominal")
        print(describe("setup_s", setup_s, "s", "processes"))
        print(describe(BATCH[workload], batch_s, "s", "processes"))
        if workload == "index-query":
            print(describe("index_load_s", _gather(ops, "index_load_s"), "s", "processes"))
        if workload == "long-history":
            print(describe("diff_s", [sum(s) / 1e3 for s in sweeps], "s", "sweeps, one per process"))
        print(describe(OP[workload], _gather(ops, OP[workload]), "ms", f"calls in {len(ops)} processes"))
        stem = OP[workload].removesuffix("_ms")
        for q in (50, 99):
            print(f"  {f'{stem}_p{q}_ms':<22} {percentile(per_op, q):>12.6g} ms    p{q} of {len(per_op)}"
                  f" operations, each its median over {len(ops)} processes")
        print("  wall times")
        print(describe("setup_s", _gather(everything, "setup_s", "wall"), "s", "processes"))
        print(describe(BATCH[workload], _gather(batches, BATCH[workload], "wall"), "s", "processes"))
        print(describe(OP[workload], _gather(ops, OP[workload], "wall"), "ms",
                       f"calls in {len(ops)} processes"))
        values = dict(batches[0]["values"]) if batches else {}
        for name, value in sorted(values.items()):
            print(f"  {name:<22} {value:>12.6g}")
        peak_rss_mb = max(r["peak_rss_mb"] for r in everything)
        print(f"  {'peak_rss_mb':<22} {peak_rss_mb:>12.6g} MB, the largest of {len(everything)} processes")
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in {
            "setup_s": statistics.median(setup_s),
            "batch_s": statistics.median(batch_s),
            "op_p50_ms": percentile(per_op, 50),
            "op_p99_ms": percentile(per_op, 99),
            "output_bytes_ratio": values[OUTPUT[workload]],
            "peak_rss_mb": peak_rss_mb,
        }.items()}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="speckit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "speckit" / "__init__.py").is_file():
        print(f"error: speckit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except (Failure, KeyError, ValueError, OSError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
    if args.workload == "all":
        ok = all(r["correct"] for r in results.values())
        print(json.dumps({"correct": ok, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
