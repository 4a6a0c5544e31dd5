"""Tests for transfer/compute pipelining: StreamChannel + overlap mode.

Covers the stream primitive in isolation, the driver's overlap launch
rule, failure semantics (retry supersession, permanent breakage), and
the checkpoint/resume contract under a mid-overlap kill — the inverted
completion order (consumer done, producer still streaming) that only
pipelining can produce must resume to identical final artifacts.  The
real chain's inference step must report the same whether its shards
ran in-process or on the shared-memory pool.
"""

import glob

import numpy as np
import pytest

import repro.ml.distributed_inference as distributed_inference
import repro.ml.shm_pool as shm_pool
from repro.errors import StreamBrokenError
from repro.sim.environment import Environment
from repro.testbed import build_nautilus_testbed
from repro.tracing import analyze_run, layer_overlap
from repro.workflow import (
    StreamChannel,
    Workflow,
    WorkflowCheckpoint,
    WorkflowDriver,
    build_connect_workflow,
)
from repro.workflow.step import StepContext, WorkflowStep
from tests.helpers import assert_data_cells_match_their_sources, registry_digest


# ---------------------------------------------------------------------------
# StreamChannel unit tests (bare sim kernel, no testbed)
# ---------------------------------------------------------------------------


@pytest.fixture
def env():
    return Environment()


def _drive(env, gen):
    """Run a consumer generator to completion; return its value."""
    box = {}

    def wrapper():
        box["value"] = yield from gen
        if False:  # pragma: no cover - make wrapper a generator
            yield

    proc = env.process(wrapper())
    env.run(until=proc)
    return box["value"]


class TestStreamChannel:
    def test_milestone_payload_and_default(self, env):
        chan = StreamChannel(env, "producer")

        def producer():
            yield env.timeout(2.0)
            chan.mark("ready", {"n": 3})
            chan.close()

        env.process(producer())
        payload = _drive(env, chan.wait_milestone("ready"))
        assert payload == {"n": 3}
        # Clean close without the milestone -> default.
        assert _drive(env, chan.wait_milestone("absent", default="fb")) == "fb"

    def test_error_close_raises_stream_broken(self, env):
        chan = StreamChannel(env, "producer")

        def producer():
            yield env.timeout(1.0)
            chan.close(error="boom")

        env.process(producer())

        def consumer():
            try:
                yield from chan.wait_milestone("ready")
            except StreamBrokenError as exc:
                return ("broken", exc.producer)
            return ("ok", None)

        assert _drive(env, consumer()) == ("broken", "producer")

    def test_supersession_moves_blocked_consumers(self, env):
        first = StreamChannel(env, "producer")
        second = StreamChannel(env, "producer")

        def producer():
            yield env.timeout(1.0)
            first.supersede(second)   # the retry attempt takes over
            yield env.timeout(1.0)
            second.mark("ready", 42)
            second.close()

        env.process(producer())
        # Consumer waits on the ORIGINAL channel, follows the link.
        assert _drive(env, first.wait_milestone("ready")) == 42

    def test_mark_on_closed_stream_rejected(self, env):
        chan = StreamChannel(env, "producer")
        chan.close()
        with pytest.raises(StreamBrokenError):
            chan.mark("late")


# ---------------------------------------------------------------------------
# Driver overlap mode on synthetic steps
# ---------------------------------------------------------------------------


class StreamingProducer(WorkflowStep):
    """Marks "content-ready" at t+5, keeps transferring until t+50."""

    streams_output = True
    default_params = {"content_at": 5.0, "finish_at": 50.0, "fail_once": False}

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "producer")
        super().__init__(**kwargs)
        self.attempts = 0

    def execute(self, ctx: StepContext):
        self.attempts += 1
        stream = ctx.stream_out()
        yield ctx.env.timeout(float(ctx.params["content_at"]))
        if ctx.params["fail_once"] and self.attempts == 1:
            raise RuntimeError("transfer flapped")
        if stream is not None:
            stream.mark("content-ready", {"attempt": self.attempts})
        yield ctx.env.timeout(
            float(ctx.params["finish_at"]) - float(ctx.params["content_at"])
        )
        ctx.report.artifacts["attempt"] = self.attempts


class StreamingConsumer(WorkflowStep):
    """Starts on launch, waits for content, computes for 25s."""

    stream_inputs = ("producer",)
    default_params = {"compute_s": 25.0}

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "consumer")
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        ctx.report.artifacts["started_at"] = ctx.env.now
        chan = ctx.stream_in("producer")
        if chan is not None:
            payload = yield from chan.wait_milestone("content-ready",
                                                     default=None)
        else:
            payload = None
        content = (
            payload if payload is not None
            else ctx.artifacts.get("producer", {})
        )
        ctx.report.artifacts["content_attempt"] = (
            content.get("attempt") if content else None
        )
        yield ctx.env.timeout(float(ctx.params["compute_s"]))
        ctx.report.artifacts["finished_at"] = ctx.env.now


def _pipeline_workflow(**producer_params):
    producer = StreamingProducer(params=producer_params, max_retries=1,
                                 retry_delay_s=2.0)
    consumer = StreamingConsumer().after("producer")
    return Workflow("pipeline", [producer, consumer])


@pytest.fixture
def testbed():
    return build_nautilus_testbed(seed=3, scale=0.0001)


class TestOverlapDriver:
    def test_barrier_vs_overlap_makespan(self):
        # Barrier: 50 + 25 = 75.  Overlap: consumer starts at 0, waits
        # for content at t=5, computes to t=30; producer bounds at t=50.
        barrier = WorkflowDriver(build_nautilus_testbed(seed=3, scale=0.0001)).run(
            _pipeline_workflow(), overlap=False
        )
        overlap = WorkflowDriver(build_nautilus_testbed(seed=3, scale=0.0001)).run(
            _pipeline_workflow(), overlap=True
        )
        assert barrier.succeeded and overlap.succeeded
        assert barrier.total_duration_s == pytest.approx(75.0)
        assert overlap.total_duration_s == pytest.approx(50.0)
        # The consumer finished BEFORE its producer — only overlap can.
        c, p = overlap.step("consumer"), overlap.step("producer")
        assert c.end_time < p.end_time
        assert overlap.step("consumer").artifacts["content_attempt"] == 1

    def test_overlap_off_by_default_consumer_waits(self, testbed):
        report = WorkflowDriver(testbed).run(_pipeline_workflow())
        assert report.step("consumer").start_time == pytest.approx(50.0)
        # Barrier-mode consumers see no stream and fall back to the
        # completed producer's artifacts — same content, later start.
        assert report.step("consumer").artifacts["content_attempt"] == 1

    def test_producer_retry_supersedes_stream(self, testbed):
        report = WorkflowDriver(testbed).run(
            _pipeline_workflow(fail_once=True), overlap=True
        )
        assert report.succeeded
        assert report.step("producer").retries == 1
        # The consumer transparently re-waited on the retry attempt's
        # channel and consumed ITS milestone.
        assert report.step("consumer").artifacts["content_attempt"] == 2

    def test_producer_permanent_failure_breaks_consumer(self, testbed):
        producer = StreamingProducer(params={"fail_once": True})  # no retries
        consumer = StreamingConsumer().after("producer")
        report = WorkflowDriver(testbed).run(
            Workflow("pipeline", [producer, consumer]), overlap=True
        )
        assert not report.succeeded
        assert "StreamBrokenError" in report.step("consumer").error


class TestMidOverlapKillResume:
    def test_resume_replays_only_unfinished_steps(self):
        """Kill while the producer is still streaming but the consumer
        already finished; resume must replay only the producer and end
        with artifacts identical to an uninterrupted run."""
        reference = WorkflowDriver(
            build_nautilus_testbed(seed=3, scale=0.0001)
        ).run(_pipeline_workflow(), overlap=True)

        ckpt = WorkflowCheckpoint("pipeline")
        killed = WorkflowDriver(
            build_nautilus_testbed(seed=3, scale=0.0001)
        ).run(
            _pipeline_workflow(), overlap=True, checkpoint=ckpt,
            deadline_s=40.0,  # consumer done at 30, producer runs to 50
        )
        assert not killed.succeeded
        assert ckpt.completed() == {"consumer"}

        resumed = WorkflowDriver(
            build_nautilus_testbed(seed=3, scale=0.0001)
        ).run(_pipeline_workflow(), overlap=True, resume_from=ckpt)
        assert resumed.succeeded
        assert resumed.step("consumer").resumed
        assert not resumed.step("producer").resumed

        def final_artifacts(report):
            return {
                s.name: {
                    k: v for k, v in s.to_dict()["artifacts"].items()
                    # Timestamps legitimately differ across a resume
                    # (the resumed run replays from t=0).
                    if k not in ("started_at", "finished_at")
                }
                for s in report.steps
            }

        assert final_artifacts(resumed) == final_artifacts(reference)


# ---------------------------------------------------------------------------
# The real CONNECT chain, pipelined
# ---------------------------------------------------------------------------


CONNECT_OVERRIDES = {
    "training": {
        "train_timesteps": 24,
        "real_train_steps": 10,
        "real_train_timesteps": 8,
    },
    "inference": {"real_test_timesteps": 6, "real_shards": 2},
}


class TestConnectOverlap:
    @pytest.fixture(scope="class")
    def traced_runs(self):
        """overlap -> (testbed, report); the testbed keeps the spans."""
        out = {}
        for overlap in (False, True):
            tb = build_nautilus_testbed(seed=42, scale=0.002)
            wf = build_connect_workflow(tb, overrides=CONNECT_OVERRIDES)
            out[overlap] = (tb, WorkflowDriver(tb).run(wf, overlap=overlap))
        return out

    @pytest.fixture(scope="class")
    def both_runs(self, traced_runs):
        return {overlap: report for overlap, (_, report) in traced_runs.items()}

    def test_both_modes_succeed(self, both_runs):
        assert both_runs[False].succeeded
        assert both_runs[True].succeeded

    def test_overlap_shrinks_makespan(self, both_runs):
        assert (
            both_runs[True].total_duration_s
            < both_runs[False].total_duration_s
        )
        # Training launched while the download was still running.
        training = both_runs[True].step("training")
        download = both_runs[True].step("download")
        assert training.start_time < download.end_time

    def test_compute_transfer_overlap_grows(self, traced_runs):
        # The makespan win is visible in the trace: training compute runs
        # alongside download transfer where the barrier kept them apart.
        overlap_s = {}
        for overlap, (tb, _) in traced_runs.items():
            spans = tb.tracer.finished_spans()
            root = [s for s in spans if s.category == "workflow"][-1]
            overlap_s[overlap] = layer_overlap(spans, root, "compute",
                                               "transfer")
        assert overlap_s[True] > overlap_s[False]

    def test_layer_partition_sums_to_makespan(self, traced_runs):
        for tb, report in traced_runs.values():
            analysis = analyze_run(tb.tracer.finished_spans())
            assert analysis.total_s == pytest.approx(report.total_duration_s)
            assert sum(analysis.layers.values()) == pytest.approx(
                report.total_duration_s
            )

    def test_artifacts_identical_across_modes(self, both_runs):
        # Arrays compared by bytes: the to_dict() summary keeps only shape,
        # dtype and nonzero count, which two segmentations can share.
        a = {s.name: _plain(s.artifacts) for s in both_runs[False].steps}
        b = {s.name: _plain(s.artifacts) for s in both_runs[True].steps}
        assert "label_volume" in a["inference"]
        assert a == b

    def test_data_cells_match_their_sources_in_both_modes(self, traced_runs):
        for tb, report in traced_runs.values():
            assert_data_cells_match_their_sources(report, tb)
        cells = {
            overlap: [s.data_processed_bytes for s in report.steps]
            for overlap, (_, report) in traced_runs.items()
        }
        assert cells[True] == cells[False]

    def test_real_ml_scores_preserved(self, both_runs):
        for report in both_runs.values():
            inference = report.step("inference")
            assert "voxel_f1" in inference.artifacts


def _shm_segments() -> set[str]:
    """Named shared-memory segments: Python's default ``psm_*`` names and
    the pool's own ``repro-pool-*`` names."""
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/*repro-pool*"))


def _plain(value):
    """An artifact with every array as ``(dtype, shape, bytes)``."""
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


class TestConnectInferenceFanOut:
    """The inference step runs its real shards on a shared-memory pool
    over the usable CPUs, or in-process on one CPU; nothing it reports
    may depend on which."""

    @pytest.fixture(scope="class")
    def runs(self):
        """usable CPUs -> (testbed, report, pools started) at 1% scale."""
        out = {}
        before = _shm_segments()
        with pytest.MonkeyPatch.context() as mp:
            started = []

            class CountingPool(shm_pool.SharedMemoryPool):
                def __init__(self, *args, **kwargs):
                    started.append(kwargs.get("n_workers"))
                    super().__init__(*args, **kwargs)

            mp.setattr(distributed_inference, "SharedMemoryPool", CountingPool)
            for cpus in (1, 2):
                mp.setattr(shm_pool, "usable_cpus", lambda cpus=cpus: cpus)
                started.clear()
                tb = build_nautilus_testbed(seed=42, scale=0.01)
                report = WorkflowDriver(tb).run(
                    build_connect_workflow(real_ml=True), overlap=True
                )
                out[cpus] = (tb, report, list(started))
        out["leaked"] = _shm_segments() - before
        return out

    def test_one_cpu_stays_in_process_two_use_the_pool(self, runs):
        assert runs[1][1].succeeded and runs[2][1].succeeded
        assert runs[1][2] == []
        assert runs[2][2] == [2]

    def test_artifacts_identical(self, runs):
        def artifacts(report):
            return {s.name: _plain(s.artifacts) for s in report.steps}

        one, two = artifacts(runs[1][1]), artifacts(runs[2][1])
        assert "label_volume" in one["inference"]
        assert one == two

    def test_spans_identical(self, runs):
        def spans(tb):
            return [
                (s.name, s.category, s.start, s.end, s.attributes)
                for s in tb.tracer.finished_spans()
            ]

        assert spans(runs[1][0]) == spans(runs[2][0])

    def test_registry_series_identical(self, runs):
        assert registry_digest(runs[1][0].registry) == registry_digest(
            runs[2][0].registry
        )

    def test_no_shared_memory_segment_left(self, runs):
        assert runs["leaked"] == set()
