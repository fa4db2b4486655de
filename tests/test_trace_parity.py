"""Parity suite: chunked streaming evaluation == one-shot, bit for bit.

The contract behind the ``/trace`` endpoint and the CLI file mode is
that feeding a trace to :class:`TraceAccumulator` in arbitrary chunks
(with snapshots taken in between) produces *exactly* the result of
:func:`evaluate_trace` on the whole trace — same floats, same counts.
This suite pins that across the workload generators, the device
corpus and several chunk sizes.
"""

import pytest

from repro import DramPowerModel
from repro.core.trace import TraceAccumulator, evaluate_trace
from repro.workloads import (copy_trace, pointer_chase_trace,
                             random_trace, streaming_trace)

WORKLOADS = [
    ("streaming", lambda d: streaming_trace(d, 400,
                                            read_fraction=0.7)),
    ("random", lambda d: random_trace(d, 400, row_hit_rate=0.4,
                                      seed=3)),
    ("random-refresh", lambda d: random_trace(d, 300,
                                              with_refresh=True,
                                              seed=5)),
    ("copy", lambda d: copy_trace(d, 4)),
    ("pointer-chase", lambda d: pointer_chase_trace(d, 300, seed=2)),
]

CHUNK_SIZES = (1, 7, 1000)


@pytest.fixture(scope="module")
def device_models(all_devices):
    return [(device, DramPowerModel(device))
            for device in all_devices]


def _chunked(model, trace, size):
    accumulator = TraceAccumulator(model)
    for start in range(0, len(trace), size):
        accumulator.feed(trace[start:start + size])
        # Snapshots must be pure reads: taking one mid-stream must not
        # perturb the final result.
        accumulator.snapshot()
    return accumulator.result()


def _assert_identical(one, two):
    assert one.energy == two.energy
    assert one.duration == two.duration
    assert one.breakdown.values == two.breakdown.values
    assert one.counts == two.counts
    assert one.data_bits == two.data_bits
    assert one.row_hits == two.row_hits
    assert one.row_misses == two.row_misses
    assert one.row_conflicts == two.row_conflicts


@pytest.mark.parametrize("name,build",
                         WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_chunked_matches_oneshot(name, build, device_models):
    for device, model in device_models:
        trace = build(device)
        one_shot = evaluate_trace(model, trace)
        for size in CHUNK_SIZES:
            chunked = _chunked(model, trace, size)
            _assert_identical(one_shot, chunked)


def test_feed_returns_self_for_chaining(device_models):
    device, model = device_models[0]
    trace = streaming_trace(device, 50)
    result = TraceAccumulator(model).feed(trace).result()
    _assert_identical(result, evaluate_trace(model, trace))


def test_generator_and_list_inputs_agree(device_models):
    device, model = device_models[0]
    trace = random_trace(device, 200, seed=9)
    from_list = evaluate_trace(model, trace)
    from_generator = evaluate_trace(model, iter(trace))
    _assert_identical(from_list, from_generator)
