"""Tests of the end-to-end benchmark's own arithmetic and checks.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json

import pytest

import compare
import spans
from harness import ROOT, latency_summary, percentile, same_answer, use_src

use_src()

import run  # noqa: E402  (needs src/ on the path)
import serve  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles.
# ----------------------------------------------------------------------
def test_percentiles_report_their_tail():
    latencies = [ms / 1000.0 for ms in range(1, 101)]
    summary = latency_summary(latencies)
    assert summary["samples"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p99_ms"] == pytest.approx(99.01)
    assert summary["p99_tail"] == 1


def test_percentile_interpolates_and_handles_one_sample():
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_and_sibling_children():
    # root A [0, 10] holds siblings B [1, 3] and C [4, 8]; C holds
    # D [5, 6]; E [12, 13] is a second root.  Fields: layer, start,
    # end, span id, parent id, request id, resumed.
    recorded = [("b", 1, 3, 2, 1, 1, False),
                ("d", 5, 6, 4, 3, 1, False),
                ("c", 4, 8, 3, 1, 1, False),
                ("a", 0, 10, 1, 0, 1, False),
                ("a", 12, 13, 5, 0, 5, True)]
    totals = spans.layer_totals(recorded)
    assert totals["a"] == {"calls": 1, "self_s": 4 + 1, "root_s": 11}
    assert totals["b"]["self_s"] == 2
    assert totals["c"]["self_s"] == 3
    assert totals["d"]["self_s"] == 1
    metrics = spans.layer_metrics(totals, {}, wall_s=15.0)
    self_sum = sum(value for name, value in metrics.items()
                   if name.endswith(".self_s"))
    assert metrics["other.self_s"] == 4.0
    assert self_sum == pytest.approx(15.0)


def test_recorder_nests_spans_and_keeps_results_and_exceptions():
    recorder = spans.Recorder()
    outer_target = spans.Target("outer", "m", "f")
    inner_target = spans.Target("inner", "m", "g", errors="raised")
    boom = RuntimeError("boom")

    def inner(value):
        if value < 0:
            raise boom
        return value * 2

    def outer():
        first = recorder.call(inner_target, inner, (1,), {})
        with pytest.raises(RuntimeError) as caught:
            recorder.call(inner_target, inner, (-1,), {})
        assert caught.value is boom
        return first

    assert recorder.call(outer_target, outer, (), {}) == 2
    by_layer = {}
    for span in recorder.spans:
        by_layer.setdefault(span[0], []).append(span)
    (root,) = by_layer["outer"]
    assert root[4] == 0
    assert all(span[4] == root[3] and span[5] == root[3]
               for span in by_layer["inner"])
    assert spans.counter_totals(recorder.counts) == {"inner.raised": 1}
    totals = spans.layer_totals(recorder.spans)
    assert totals["outer"]["self_s"] + totals["inner"]["self_s"] \
        == pytest.approx(root[2] - root[1])


def test_window_keeps_whole_requests_started_inside_it():
    recorded = [("x", 1, 2, 1, 0, 1, False), ("y", 1.5, 1.6, 2, 1, 1,
                                              False),
                ("x", 5, 6, 3, 0, 3, False)]
    assert spans.window_requests(recorded, 0.5, 3.0) == {1}


# ----------------------------------------------------------------------
# compare.py verdicts.
# ----------------------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_compare_improved_needs_ten_pairs_and_nine_wins():
    change = [value * 1.2 for value in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.05)[0] == "improved"
    assert compare.verdict(PARENT[:5], change[:5], "higher", 0.05)[0] \
        == "no change"


def test_compare_regressed_and_no_change():
    assert compare.verdict(PARENT, [v * 0.8 for v in PARENT], "higher",
                           0.05)[0] == "regressed"
    assert compare.verdict(PARENT, [v * 0.99 for v in PARENT], "higher",
                           0.05)[0] == "no change"
    # Lower is better: a 20 % rise in latency is a regression.
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "lower",
                           0.05)[0] == "regressed"


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 65.0,
             135.0]
    verdict, details = compare.verdict(PARENT, noisy, "higher", 0.05)
    assert verdict == "unresolved"
    assert details["spread"] > 0.05


def test_compare_gain_does_not_count_with_more_failures():
    change = [value * 1.2 for value in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.05,
                           parent_failed=0.0, change_failed=0.01)[0] \
        != "improved"


# ----------------------------------------------------------------------
# Output checks.
# ----------------------------------------------------------------------
def test_wrong_answer_reply_counts_as_failure():
    requests = serve.hot_requests(seed=3)
    method, kwargs = requests[0]
    truth = serve.library_answer(method, kwargs)
    assert serve.check_samples([(0, truth)], requests) == []
    wrong = json.loads(json.dumps(truth))
    wrong["results"][0]["power_w"] *= 1.0 + 1e-12
    assert len(serve.check_samples([(0, wrong), (16, truth)],
                                   requests)) == 1


def test_malformed_reply_raises_inside_the_load_loop():
    class Client:
        def evaluate(self, **_kwargs):
            return {"count": 2, "results": []}

    with pytest.raises(ValueError):
        serve._send(Client(), "evaluate", {"device": {"node": 55}})


def test_same_answer_tolerance_applies_to_floats_only():
    assert same_answer({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}, 1e-9)
    assert not same_answer({"a": 1.0}, {"a": 1.0 + 1e-12})
    assert not same_answer({"a": "x"}, {"a": "y"}, 1.0)
    assert not same_answer({"a": 1}, {"b": 1})


# ----------------------------------------------------------------------
# The benchmark definition matches what run.py prints.
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_printed_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in benchmark["workloads"]} \
        == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} \
        == run.END_TO_END
    units = spans.metric_units()
    for metric in benchmark["per_layer"]:
        assert units[metric["name"]] == metric["unit"]
