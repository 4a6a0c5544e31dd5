"""The workflow driver: execute, measure, report.

"The workflow manager specifies the state configuration and passes it on
to Kubernetes, and Kubernetes creates the specified state in its system"
(§V): the driver never places pods itself — steps declare Jobs and the
cluster's scheduler/controllers do the rest.  What the driver *does* own
is contribution 5: per-step measurement, read from the trace, so a step
body writes only its artifacts.  :func:`step_usage` sweeps the ``running``
spans under a step's span for Table I's peak pods/CPU/GPU/memory and
sums the ``bytes`` of its ``input`` spans for the data-processed cell.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import typing as _t

from repro.errors import ProcessKilled, StepFailedError, StepTimeoutError, WorkflowError
from repro.testbed import NautilusTestbed
from repro.workflow.step import StepContext, StepReport
from repro.workflow.stream import StreamChannel
from repro.workflow.workflow import Workflow

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tracing.span import Span, Tracer
    from repro.workflow.persistence import WorkflowCheckpoint

__all__ = ["WorkflowDriver", "WorkflowReport", "step_usage", "traced_step"]


#: Serialization format shared by reports and checkpoints (see
#: :mod:`repro.workflow.persistence`).
REPORT_FORMAT_VERSION = 1


@dataclasses.dataclass
class WorkflowReport:
    """Outcome of one workflow execution."""

    workflow_name: str
    steps: list[StepReport]
    total_duration_s: float

    @property
    def succeeded(self) -> bool:
        return all(s.succeeded for s in self.steps)

    def to_dict(self) -> dict:
        """A JSON-safe projection (the stable persistence shape)."""
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "workflow_name": self.workflow_name,
            "total_duration_s": self.total_duration_s,
            "succeeded": self.succeeded,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkflowReport":
        """Rebuild a report from :meth:`to_dict` output."""
        version = data.get("format_version")
        if version != REPORT_FORMAT_VERSION:
            raise ValueError(f"unsupported report format version: {version!r}")
        return cls(
            workflow_name=data["workflow_name"],
            steps=[StepReport.from_dict(raw) for raw in data["steps"]],
            total_duration_s=data["total_duration_s"],
        )

    def step(self, name: str) -> StepReport:
        for report in self.steps:
            if report.name == name:
                return report
        raise KeyError(f"no step {name!r} in report")

    def table(self) -> dict[str, dict[str, object]]:
        """Table-I-shaped summary: one column per step."""
        out: dict[str, dict[str, object]] = {}
        for report in self.steps:
            out[report.name] = {
                "pods": report.pods,
                "cpus": round(report.cpus, 1),
                "gpus": report.gpus,
                "data_processed_gb": report.data_processed_bytes / 1e9,
                "memory_gb": report.memory_bytes / 1e9,
                "total_time": report.total_time_cell(),
                "total_minutes": (
                    None if report.interactive else round(report.duration_minutes, 1)
                ),
            }
        return out


def step_usage(tracer: Tracer, step: Span) -> tuple[int, float, int, float, float]:
    """Table I's ``(pods, cpus, gpus, memory_bytes, data_processed_bytes)``
    of one step, read from the step span's direct children.  The peaks
    sweep the ``running`` spans (each carries its pod's admitted
    ``cpu``/``gpu``/``memory``).  At one timestamp starts count before
    ends, so a zero-length span counts; an open span runs to the step's
    end.  Each start re-sums the live set in start order, so a peak is
    always the same float sum of the same requests.  Data processed is
    the exact ``math.fsum`` of ``bytes`` over the finished ``ok`` spans
    marked ``input``, every attempt's, whatever order they finished in."""
    children = tracer.children(step)
    running = [s for s in children if s.category == "running"]
    # (time, 0 = start | 1 = end, index): starts sort first at a tie.
    events = sorted(
        [(s.start, 0, i) for i, s in enumerate(running)]
        + [(s.end, 1, i) for i, s in enumerate(running) if s.end is not None]
    )
    live: dict[int, Span] = {}
    pods = gpus = 0
    cpus = memory = 0.0
    for _, is_end, i in events:
        if is_end:
            del live[i]
            continue
        live[i] = running[i]
        cpu = gpu = mem = 0.0
        for span in live.values():
            cpu += span.attributes["cpu"]
            gpu += span.attributes["gpu"]
            mem += span.attributes["memory"]
        pods = max(pods, len(live))
        cpus = max(cpus, cpu)
        gpus = max(gpus, int(gpu))
        memory = max(memory, mem)
    data = math.fsum(
        s.attributes["bytes"]
        for s in children
        if s.attributes.get("input") and s.finished and s.status == "ok"
    )
    return pods, cpus, gpus, memory, data


@contextlib.contextmanager
def traced_step(testbed: NautilusTestbed, step, namespace: str, report: StepReport):
    """Run one step execution in its namespace under a ``step`` span.

    The span (a child of the tracer's root, if one is bound) is bound to
    the namespace, so the cluster parents the step's pod spans under it.
    The report's times are the span's start and end; on exit it gets,
    from :func:`step_usage`, its pod/CPU/GPU/memory and data-processed
    cells.
    """
    tracer = testbed.tracer
    if namespace not in testbed.cluster.namespaces:
        testbed.cluster.create_namespace(namespace)
    span = tracer.start(
        step.name,
        "step",
        attributes={
            "step": step.name,
            "depends_on": list(step.depends_on),
            "namespace": namespace,
        },
    )
    tracer.bind_scope(namespace, span)
    report.start_time = span.start
    try:
        yield span
    finally:
        tracer.unbind_scope(namespace)
        status = "ok" if report.succeeded else "error"
        tracer.finish(span, status=status, attributes={"retries": report.retries})
        report.end_time = span.end
        *peaks, report.data_processed_bytes = step_usage(tracer, span)
        report.pods, report.cpus, report.gpus, report.memory_bytes = peaks


class WorkflowDriver:
    """Runs workflows on a testbed with per-step measurement."""

    def __init__(self, testbed: NautilusTestbed):
        self.testbed = testbed

    def run(
        self,
        workflow: Workflow,
        fail_fast: bool = True,
        checkpoint: "WorkflowCheckpoint | None" = None,
        resume_from: "WorkflowCheckpoint | None" = None,
        deadline_s: float | None = None,
        overlap: bool = False,
    ) -> WorkflowReport:
        """Execute the workflow and return the report.

        Steps whose dependencies are all satisfied run **concurrently**
        (independent DAG branches overlap; the CONNECT chain still runs
        sequentially because each step depends on its predecessor).
        Each step runs in its own namespace ``<workflow>-<step>`` under
        a ``step`` span; the report's pod/CPU/GPU/memory columns are the
        peaks of the ``running`` pod spans under that span, not the
        declared requests, and its data column sums the step's ``input``
        spans (:func:`step_usage`).

        Parameters
        ----------
        checkpoint:
            When given, every successful step's report and artifacts are
            recorded into it as the step completes — so a run killed by
            ``deadline_s`` (or by the caller) leaves behind the exact
            completed-step prefix.
        resume_from:
            A checkpoint from an earlier (possibly killed) run of the
            *same* workflow: its completed steps are restored into the
            report (flagged ``resumed=True``) without re-executing, and
            their artifacts are handed to downstream steps as usual.
        deadline_s:
            Wall-clock (simulated) budget for the whole run.  When it
            expires, every running step is interrupted and the partial
            report is returned; combined with ``checkpoint`` this models
            "the job got killed — resume it".
        overlap:
            Pipelined launch: a step may start while a dependency is
            still **running**, provided that dependency is listed in the
            step's ``stream_inputs`` and declares ``streams_output``.
            The consumer blocks on the producer's
            :class:`~repro.workflow.stream.StreamChannel` (milestones)
            instead of its completion barrier, overlapping
            the producer's transfer tail with downstream compute.
            ``False`` (the default) keeps the strict per-step barrier —
            byte-identical behavior to previous releases.
        """
        env = self.testbed.env
        start = env.now
        tracer = self.testbed.tracer
        root_span = tracer.start_root(
            workflow.name, "workflow", attributes={"workflow": workflow.name}
        )
        reports: list[StepReport] = []
        reports_by_name: dict[str, StepReport] = {}
        artifacts: dict[str, dict] = {}
        # Live stream channels by producer step name (overlap mode only).
        streams: dict[str, StreamChannel] = {}

        resumed_done: set[str] = set()
        if resume_from is not None:
            if resume_from.workflow_name != workflow.name:
                raise WorkflowError(
                    f"checkpoint is for workflow {resume_from.workflow_name!r}, "
                    f"not {workflow.name!r}"
                )
            for name in workflow.order:
                if not resume_from.has(name):
                    continue
                report = resume_from.report_copy(name)
                report.resumed = True
                reports.append(report)
                reports_by_name[name] = report
                artifacts[name] = dict(resume_from.artifacts.get(name, {}))
                resumed_done.add(name)
                if checkpoint is not None and not checkpoint.has(name):
                    checkpoint.record(report, artifacts[name])

        def _run_step(step):
            """Run one step with retries; returns (name, error|None)."""
            report = reports_by_name[step.name]
            namespace = f"{workflow.name}-{step.name}".lower()
            produces_stream = overlap and getattr(step, "streams_output", False)
            error: str | None = None
            with traced_step(self.testbed, step, namespace, report) as step_span:
                ctx = StepContext(
                    testbed=self.testbed,
                    params=dict(step.params),
                    artifacts=artifacts,
                    report=report,
                    namespace=namespace,
                    span=step_span,
                    streams=streams if overlap else None,
                )
                for attempt in range(step.max_retries + 1):
                    if produces_stream and attempt > 0:
                        # The retry attempt streams into a fresh channel;
                        # consumers blocked on the old one follow the
                        # supersession link transparently.
                        stale = streams.get(step.name)
                        streams[step.name] = StreamChannel(env, step.name)
                        if stale is not None:
                            stale.supersede(streams[step.name])
                    attempt_proc = env.process(
                        step.execute(ctx),
                        name=f"step:{step.name}#{attempt}",
                    )
                    try:
                        if step.timeout_s is None:
                            yield attempt_proc
                        else:
                            # Race the attempt against its budget; a hung
                            # attempt (e.g. workers stuck behind a network
                            # partition) is killed and counted as a failure.
                            yield env.any_of(
                                [attempt_proc, env.timeout(step.timeout_s)]
                            )
                            if attempt_proc.is_alive:
                                attempt_proc.interrupt(
                                    f"step {step.name!r} attempt {attempt} "
                                    f"exceeded {step.timeout_s}s"
                                )
                                raise StepTimeoutError(step.name, step.timeout_s)
                        report.succeeded = True
                        report.retries = attempt
                        report.error = ""  # clear earlier attempts' errors
                        break
                    except ProcessKilled:
                        # The whole workflow is being cancelled (deadline):
                        # take the live attempt down with us.
                        if attempt_proc.is_alive:
                            attempt_proc.interrupt("workflow cancelled")
                        report.succeeded = False
                        report.error = "cancelled"
                        if produces_stream:
                            chan = streams.get(step.name)
                            if chan is not None:
                                chan.close(error="cancelled")
                        raise
                    except Exception as exc:  # noqa: BLE001
                        report.succeeded = False
                        report.error = repr(exc)
                        report.retries = attempt
                        if attempt >= step.max_retries:
                            error = repr(exc)
                            break
                        self.testbed.cluster.record_event(
                            "Workflow",
                            step.name,
                            "Retrying",
                            f"attempt {attempt + 1} failed: {exc!r}",
                        )
                        yield env.timeout(step.retry_delay_s)
            artifacts[step.name] = dict(report.artifacts)
            if error is None and checkpoint is not None:
                checkpoint.record(report, artifacts[step.name])
            if produces_stream:
                # Close AFTER artifacts are published: consumers woken by
                # a clean close fall back to the completed step's
                # artifacts and must find them.
                chan = streams.get(step.name)
                if chan is not None:
                    chan.close(error=error)
            return (step.name, error)

        def _run_all():
            pending = list(workflow.order)
            running: dict[str, object] = {}
            done: set[str] = set(resumed_done)
            failed: set[str] = set()

            def _dep_satisfied(step, dep: str) -> bool:
                """Barrier rule, or (overlap mode) producer-is-streaming."""
                if dep in done:
                    return True
                if not overlap or dep not in running:
                    return False
                producer = workflow.steps[dep]
                return (
                    getattr(producer, "streams_output", False)
                    and dep in getattr(step, "stream_inputs", ())
                )

            try:
                while pending or running:
                    # Launch every step whose dependencies have succeeded
                    # (or, in overlap mode, are streaming).
                    for name in list(pending):
                        if name in done:  # restored from resume_from
                            pending.remove(name)
                            continue
                        step = workflow.steps[name]
                        if any(dep in failed for dep in step.depends_on):
                            pending.remove(name)  # upstream failed: skip
                            continue
                        if all(
                            _dep_satisfied(step, dep)
                            for dep in step.depends_on
                        ):
                            pending.remove(name)
                            report = StepReport(name=name)
                            reports.append(report)
                            reports_by_name[name] = report
                            if overlap and getattr(step, "streams_output", False):
                                # Channel exists from launch, so consumers
                                # started in this same pass can resolve it.
                                streams[name] = StreamChannel(env, name)
                            running[name] = env.process(
                                _run_step(step), name=f"step-runner:{name}"
                            )
                    if not running:
                        break  # remaining steps are all blocked by failures
                    finished = yield env.any_of(list(running.values()))
                    for proc_event, value in finished.items():
                        name, error = value
                        running.pop(name, None)
                        if error is None:
                            done.add(name)
                        else:
                            failed.add(name)
                            if fail_fast:
                                # Let already-running siblings finish, then stop.
                                if running:
                                    yield env.all_of(list(running.values()))
                                raise StepFailedError(name, error)
            except ProcessKilled:
                # Deadline/cancellation: propagate the kill to every
                # running step runner so their reports close out.
                for runner in running.values():
                    if runner.is_alive:
                        runner.interrupt("workflow cancelled")
                raise

        proc = env.process(_run_all(), name=f"workflow:{workflow.name}")
        try:
            if deadline_s is None:
                env.run(until=proc)
            else:
                env.run(until=env.any_of([proc, env.timeout(deadline_s)]))
                if proc.is_alive:
                    proc.interrupt(f"workflow deadline after {deadline_s}s")
                    env.run(until=proc)
        except StepFailedError:
            pass  # the failure is recorded in the step report
        except ProcessKilled:
            # Expected on a deadline kill: settle same-time interrupt
            # cascades so every step report is closed before we return.
            env.run(until=env.now)
        report = WorkflowReport(
            workflow_name=workflow.name,
            steps=reports,
            total_duration_s=env.now - start,
        )
        tracer.finish_root(root_span, status="ok" if report.succeeded else "error")
        return report


def run_single_step(
    testbed: NautilusTestbed, step, workflow_name: str = "adhoc"
) -> StepReport:
    """PPoDS convenience: run one step in isolation ("each step can
    easily be tested independently of one another", §VI)."""
    wf = Workflow(workflow_name, [step])
    report = WorkflowDriver(testbed).run(wf)
    return report.steps[0]
