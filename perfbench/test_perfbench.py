"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import pytest

import calib
import longhist
import run
import tracer
import workloads

PIECES = [
    ("text", "Alpha one."),
    ("dev", "CB000001", "Old two.", "New two."),
    ("span", "SA", [("text", "Only sa."), ("dev", "CB000002", "Sa old.", "Sa new.")]),
    ("text", "Tail."),
]
REGISTRY = {"CB000001": 2, "CB000002": 3}


def test_generator_is_deterministic_per_seed():
    first = longhist.generate(5, requirements=60, releases=8)
    assert first == longhist.generate(5, requirements=60, releases=8)
    assert first != longhist.generate(6, requirements=60, releases=8)


def test_release_names_are_ordered_ids():
    assert longhist.release_names(6) == ["01R1", "01R2", "01R3", "01R4", "02R1", "02R2"]


def test_expected_texts_hand_checked():
    text = longhist.expected_text
    assert text(PIECES, 1, None, REGISTRY) == "Alpha one. Old two. Only sa. Sa old. Tail."
    assert text(PIECES, 2, None, REGISTRY) == "Alpha one. New two. Only sa. Sa old. Tail."
    assert text(PIECES, 3, "SA", REGISTRY) == "Alpha one. New two. Only sa. Sa new. Tail."
    assert text(PIECES, 3, "NSA", REGISTRY) == "Alpha one. New two. Tail."
    assert longhist.render(PIECES) == (
        "Alpha one. [Before CB000001] Old two. [CB000001] New two. [End CB000001] "
        "[SA] Only sa. [Before CB000002] Sa old. [CB000002] Sa new. [End CB000002] [End SA] Tail."
    )
    assert longhist.reachable_devs(PIECES) == [["CB000001", None], ["CB000002", "SA"]]


def test_expected_causes_follow_the_deployment():
    texts = ["a.", "b.", "c."]
    row = [[0, 0, 0], [1, 2, 0]]  # both and SA change at release 1, NSA does not
    versions = [[0, None, [["CB000001", None], ["CB000002", "SA"]]]]
    registry = {"CB000001": "01R2", "CB000002": "01R2"}
    names = ["01R1", "01R2"]
    assert workloads._expected_diff(row, versions, registry, texts, names, 0, 0) == (
        "a.", "b.", frozenset({"CB000001", "CB000002"}))
    assert workloads._expected_diff(row, versions, registry, texts, names, 0, 2) == (
        "a.", "a.", frozenset())


def test_prepared_long_history_parses_cleanly(tmp_path):
    workloads.prepare("long-history", 3, tmp_path)
    meta = json.loads((tmp_path / "inputs.json").read_text())
    assert meta["requirements"] == 1000 and meta["releases"] == 16
    assert 0 < meta["repeat_share"] < 1
    docs, _registry, _lexicon, errors = workloads.load(workloads.Inputs(tmp_path))
    assert errors == []
    assert sum(1 for doc in docs for _ in doc.iter_requirements()) == 1000


def test_repeat_share_counts_equal_neighbours():
    assert workloads._repeat_share([["a", "a", "b"], [None, "c", "c"]]) == pytest.approx(2 / 4)


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_child_spans():
    tr = tracer.Tracer(clock=_Clock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    inner = tr.wrap("inner", lambda x: x * 2)
    outer = tr.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 6
    assert tr.self_times() == {"outer": 7.0, "inner": 3.0}
    assert tr.totals() == {"outer": 10.0, "inner": 3.0}
    assert tr.calls() == {"outer": 1, "inner": 2}


def test_totals_count_a_recursive_span_once():
    tr = tracer.Tracer(clock=_Clock([0.0, 2.0, 5.0, 9.0]))

    def walk(depth):
        return depth if depth == 0 else traced(depth - 1)

    traced = tr.wrap("walk", walk)
    assert traced(1) == 0
    assert tr.totals() == {"walk": 9.0}
    assert tr.self_times() == {"walk": 9.0}


def test_wrappers_pass_exceptions_through_and_close_spans():
    tr = tracer.Tracer(clock=_Clock([0.0, 1.0]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.spans == [["boom", 0.0, 1.0, -1]]
    counted = tr.count("hits", lambda a, b: a + b)
    assert counted(1, 2) == 3 and tr.counts["hits"] == 1


def test_install_wraps_and_restores_module_boundaries():
    from speckit import index, lint

    original = index.tokenize
    tr = tracer.Tracer()
    uninstall = tracer.install(tr, {})
    try:
        assert index.tokenize is not original and index.tokenize.__wrapped__ is original
        assert lint.jaccard(frozenset({1}), frozenset({1, 2})) == 0.5
        assert tr.counts["lint.L1.pairs_checked"] == 1
    finally:
        uninstall()
    assert index.tokenize is original


def test_percentiles():
    samples = [float(x) for x in range(1, 1001)]
    assert run.percentile(samples, 50) == 500.0
    assert run.percentile(samples, 99) == 990.0
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(12) is None


def test_per_op_median_aligns_operations_across_sweeps():
    sweeps = [[1.0, 30.0, 5.0], [3.0, 10.0, 4.0], [0.5], [2.0, 20.0, 6.0]]  # the third is incomplete
    assert run.per_op_median(sweeps) == [2.0, 20.0, 5.0]


def test_calibration_scales_by_the_kernel_time_around_a_call():
    clock = calib.Clock()
    clock.at.extend([1.0, 2.0, 3.0, 4.0, 5.0])
    clock.took.extend([0.001, 0.002, 0.002, 0.004, 0.001])
    # [2.5, 3.5] holds the sample at 3.0; its neighbours 2.0 and 4.0 count too
    assert clock.kernel_s(2.5, 3.5) == pytest.approx(0.008 / 3)
    assert clock.calibrated(2.5, 3.5, 0.3) == pytest.approx(0.3 * calib.REFERENCE_S * 3 / 0.008)
    # before the first sample and after the last, the nearest one counts
    assert clock.kernel_s(0.0, 0.5) == pytest.approx(0.001)
    assert clock.kernel_s(9.0, 9.5) == pytest.approx(0.001)


def test_timed_leaves_out_kernel_runs_and_blocks_them_in_operations():
    clock = calib.Clock()
    timings = workloads.Run(clock)

    def call_with_tick():
        clock._tick(None, None)  # the clock's signal handler, run inside the call

    timings.timed("stage", call_with_tick)
    assert 0 <= timings.samples["stage"][0] < clock.took[0]
    blocked = []
    timings.timed("op", lambda: blocked.extend(workloads.signal.pthread_sigmask(workloads.signal.SIG_BLOCK, [])),
                  op=True)
    assert workloads.signal.SIGALRM in blocked

    def op_with_pending_tick():
        workloads.signal.setitimer(workloads.signal.ITIMER_REAL, 0.001)
        time.sleep(0.01)  # the alarm fires and waits for the operation to end

    previous = workloads.signal.signal(workloads.signal.SIGALRM, clock._tick)
    try:
        timings.timed("op", op_with_pending_tick, op=True)
    finally:
        workloads.signal.signal(workloads.signal.SIGALRM, previous)
    assert len(clock.took) == 2  # the tick ran after the operation ...
    assert timings.samples["op"][1] >= 0.01  # ... and is not taken off its time
    assert workloads.signal.SIGALRM not in workloads.signal.pthread_sigmask(workloads.signal.SIG_BLOCK, [])
    assert len(timings.calibrated()["op"]) == 2


def test_lint_expectation_per_document():
    truth = {
        "requirements": {
            rid: {"document": doc, "section_path": [section]}
            for rid, doc, section in [
                ("R1", "A", "s1"), ("R2", "A", "s2"), ("R3", "A", "s3"), ("R4", "B", "s4"),
                ("R5", "A", "s1"), ("R6", "B", "s5"),
            ]
        },
        "duplicates": [["R1", "R5"], ["R2", "R6"]],
        "overlength": ["R3", "R4"],
        "alias_usages": [{"requirement": "R6"}],
        "dispersed": {"p": ["R1", "R2", "R3", "R4"]},
    }
    config = workloads.lint_mod.LintConfig()  # max_sections 2
    both = workloads._lint_expectation(truth, {"A", "B"}, config)
    assert both == {
        "L1_Duplication": {frozenset({"R1", "R5"}), frozenset({"R2", "R6"})},
        "L2_Length": {"R3", "R4"},
        "L3_Standardization": {"R6"},
        "L5_Dispersion": 1,
    }
    only_a = workloads._lint_expectation(truth, {"A"}, config)
    assert only_a == {
        "L1_Duplication": {frozenset({"R1", "R5"})},
        "L2_Length": {"R3"},
        "L3_Standardization": set(),
        "L5_Dispersion": 1,  # three sections of A
    }
    assert workloads._lint_expectation(truth, {"B"}, config)["L5_Dispersion"] == 0


def test_every_layer_metric_is_declared():
    names = set(workloads.layer_metrics(tracer.Tracer(), defaultdict(set), Counter()))
    names |= {f"index.bytes.{key}" for key in workloads.INDEX_SECTIONS}
    names |= {f"index.query.{form}.p50_ms" for form in workloads.QUERY_FORMS}
    assert names <= set(run.PER_LAYER)
