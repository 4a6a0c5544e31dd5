"""The Table-I cells derived from a step's child spans: the resource
peaks from ``running`` spans, data processed from ``input`` spans."""

import random

from repro.tracing import Span, Tracer
from repro.workflow.driver import step_usage

STEP = Span("download", "step", span_id=1, parent_id=None, start=0.0, end=100.0)
OTHER_STEP = Span("training", "step", span_id=2, parent_id=None, start=0.0)

_ids = iter(range(100, 10_000))


def usage(spans, step=STEP):
    tracer = Tracer(clock=lambda: 0.0)
    tracer.spans.extend(spans)
    return step_usage(tracer, step)


def running(start, end, cpu=1.0, gpu=0, memory=1e9, parent=STEP):
    span_id = next(_ids)
    return Span(
        name=f"pod-{span_id}",
        category="running",
        span_id=span_id,
        parent_id=parent.span_id,
        start=start,
        end=end,
        attributes={"cpu": cpu, "gpu": gpu, "memory": memory},
    )


def fetch(nbytes, status="ok", parent=STEP, **attributes):
    span_id = next(_ids)
    return Span(
        name=f"fetch-{span_id}",
        category="transfer",
        span_id=span_id,
        parent_id=parent.span_id,
        start=0.0,
        end=1.0,
        status=status,
        attributes={"bytes": nbytes, **attributes},
    )


def test_no_pods_gives_zero_cells_of_report_types():
    assert usage([STEP]) == (0, 0.0, 0, 0.0, 0.0)
    pods, cpus, gpus, memory, data = usage([STEP])
    assert isinstance(pods, int) and isinstance(gpus, int)
    assert isinstance(cpus, float) and isinstance(memory, float)
    assert isinstance(data, float)


def test_end_and_start_at_one_timestamp_count_together():
    spans = [running(0.0, 10.0, gpu=1), running(10.0, 20.0, gpu=2)]
    assert usage(spans) == (2, 2.0, 3, 2e9, 0.0)


def test_zero_length_span_counts():
    assert usage([running(5.0, 5.0, cpu=4.0)]) == (1, 4.0, 0, 1e9, 0.0)
    spans = [running(0.0, 5.0), running(5.0, 5.0), running(6.0, 7.0)]
    assert usage(spans)[0] == 2


def test_open_span_counts_up_to_the_step_end():
    spans = [
        running(0.0, None, memory=3e9),
        running(50.0, 60.0),
        running(99.0, 100.0),
    ]
    assert usage(spans) == (2, 2.0, 0, 4e9, 0.0)


def test_spans_under_another_step_are_ignored():
    queued = Span("pod-q", "queueing", span_id=3, parent_id=1, start=0.0, end=1.0)
    spans = [
        running(0.0, 10.0),
        running(0.0, 10.0, cpu=8.0, gpu=4, parent=OTHER_STEP),
        queued,
        STEP,
        OTHER_STEP,
    ]
    assert usage(spans) == (1, 1.0, 0, 1e9, 0.0)
    assert usage(spans, OTHER_STEP) == (1, 8.0, 4, 1e9, 0.0)


def test_fractional_cpus_resum_the_live_set_in_start_order():
    a = running(0.0, 10.0, cpu=0.1)
    b = running(1.0, 30.0, cpu=0.2)
    c = running(2.0, 5.0, cpu=0.3)
    d = running(20.0, 40.0, cpu=0.7)
    # Live {b, d} re-summed: 0.2 + 0.7 == 0.8999999999999999; a running
    # total (0.1 + 0.2 + 0.3 - 0.1 - 0.3 + 0.7) would give 0.9000000000000001.
    assert usage([a, b, c, d])[1] == 0.0 + 0.2 + 0.7
    assert 0.0 + 0.2 + 0.7 != 0.1 + 0.2 + 0.3 - 0.1 - 0.3 + 0.7
    # Start order, not list order: 0.1 + 0.2 + 0.3 == 0.6000000000000001,
    # where 0.3 + 0.2 + 0.1 == 0.6.
    assert usage([c, b, a])[1] == 0.0 + 0.1 + 0.2 + 0.3
    assert 0.0 + 0.1 + 0.2 + 0.3 != 0.0 + 0.3 + 0.2 + 0.1


def test_input_spans_sum_exactly_in_any_creation_order():
    sizes = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16]
    spans = [fetch(n, input=True) for n in sizes]
    # Added left to right the 0.6 and the 1.0 vanish into 1e16; the
    # exact sum rounds once.
    assert sum(sizes) == 0.0
    assert usage(spans)[4] == 1.6
    shuffled = spans[:]
    for seed in range(5):
        random.Random(seed).shuffle(shuffled)
        assert usage(shuffled)[4] == 1.6


def test_error_and_unfinished_input_spans_are_excluded():
    spans = [
        fetch(10.0, input=True),
        fetch(20.0, "error", input=True),
        fetch(40.0, "unfinished", input=True),
    ]
    open_span = fetch(80.0, input=True)
    open_span.end = None
    assert usage([*spans, open_span])[4] == 10.0


def test_byte_spans_without_input_are_excluded():
    spans = [fetch(10.0, input=True), fetch(20.0), fetch(40.0, input=False)]
    assert usage(spans)[4] == 10.0


def test_input_spans_under_another_step_are_ignored():
    spans = [fetch(10.0, input=True), fetch(20.0, input=True, parent=OTHER_STEP)]
    assert usage(spans)[4] == 10.0
    assert usage(spans, OTHER_STEP)[4] == 20.0
