"""Workflow steps: containerized units of work with measurement.

"The accelerated workflow was developed to use multiple Docker images for
job specific tasks" (§III) and "the execution of the workflow needs to
support the separation of steps so that each step can easily be tested
independently of one another" (§VI) — a step here is exactly that: a
named, independently runnable unit with its own image, namespace, and
declared resources, measured every time it runs.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.errors import ValidationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import NautilusTestbed
    from repro.tracing.span import Span

__all__ = ["StepReport", "StepContext", "WorkflowStep"]


def sanitize_artifact_value(value: object) -> object:
    """Make one artifact value JSON-safe (summarizing when needed).

    Numbers and strings round-trip exactly; arrays, dataclasses, and
    other rich objects degrade to summaries rather than being dropped —
    a reloaded report still tells you what a run produced.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return {
            "__array_summary__": True,
            "shape": list(value.shape),
            "dtype": str(value.dtype),
            "nonzero": int(np.count_nonzero(value)),
        }
    if isinstance(value, (list, tuple)):
        return [sanitize_artifact_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): sanitize_artifact_value(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **sanitize_artifact_value(dataclasses.asdict(value)),  # type: ignore[dict-item]
        }
    return {"__repr__": repr(value), "__type__": type(value).__name__}


@dataclasses.dataclass
class StepReport:
    """Everything measured about one step execution (a Table-I row)."""

    name: str
    start_time: float = 0.0
    end_time: float = 0.0
    pods: int = 0
    cpus: float = 0.0
    gpus: int = 0
    memory_bytes: float = 0.0
    data_processed_bytes: float = 0.0
    interactive: bool = False  # Table I prints "NA" for interactive steps
    succeeded: bool = False
    error: str = ""
    retries: int = 0  # step-level re-executions that were needed
    resumed: bool = False  # restored from a checkpoint, not re-executed
    skipped: bool = False  # kept in report format 1; the driver never sets it
    artifacts: dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def duration_minutes(self) -> float:
        return self.duration_s / 60.0

    def total_time_cell(self) -> str:
        """The Table-I "Total Time" cell (``NA`` for interactive steps)."""
        if self.interactive:
            return "NA"
        return f"{self.duration_minutes:.0f}m"

    def to_dict(self) -> dict:
        """A JSON-safe projection (the stable persistence shape)."""
        return {
            "name": self.name,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "pods": self.pods,
            "cpus": self.cpus,
            "gpus": self.gpus,
            "memory_bytes": self.memory_bytes,
            "data_processed_bytes": self.data_processed_bytes,
            "interactive": self.interactive,
            "succeeded": self.succeeded,
            "error": self.error,
            "retries": self.retries,
            "resumed": self.resumed,
            "skipped": self.skipped,
            "artifacts": sanitize_artifact_value(self.artifacts),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StepReport":
        """Rebuild a report from :meth:`to_dict` output."""
        step = cls(name=raw["name"])
        step.start_time = raw["start_time"]
        step.end_time = raw["end_time"]
        step.pods = raw["pods"]
        step.cpus = raw["cpus"]
        step.gpus = raw["gpus"]
        step.memory_bytes = raw["memory_bytes"]
        step.data_processed_bytes = raw["data_processed_bytes"]
        step.interactive = raw["interactive"]
        step.succeeded = raw["succeeded"]
        step.error = raw["error"]
        step.retries = raw.get("retries", 0)
        step.resumed = raw.get("resumed", False)
        step.skipped = raw.get("skipped", False)
        step.artifacts = dict(raw["artifacts"])
        return step


class StepContext:
    """What a running step can touch.

    A step body is measured from the outside: it marks its phases with
    :meth:`trace` spans, and the report's cells and the figures are read
    from those spans and the pod spans the cluster opens.  It writes no
    metric series of its own.

    Attributes
    ----------
    testbed:
        The full :class:`~repro.testbed.NautilusTestbed`.
    params:
        This step's parameters (merged defaults + overrides).
    artifacts:
        Cross-step artifact dictionary: step N's outputs (object names,
        trained models, label volumes) addressed by earlier step name.
    report:
        The live :class:`StepReport` this execution fills in.
    namespace:
        The step's dedicated namespace (virtual cluster, §IV).
    """

    def __init__(
        self,
        testbed: "NautilusTestbed",
        params: dict[str, object],
        artifacts: dict[str, dict],
        report: StepReport,
        namespace: str,
        span: "Span",
        streams: dict | None = None,
    ):
        self.testbed = testbed
        self.params = params
        self.artifacts = artifacts
        self.report = report
        self.namespace = namespace
        #: this step's trace span
        self.span = span
        #: live stream channels by producer step name — populated only
        #: when the driver runs with ``overlap=True``
        self._streams = streams

    def stream_out(self):
        """This step's own :class:`~repro.workflow.stream.StreamChannel`
        (producer side), or None when the driver is in barrier mode or
        the step does not declare ``streams_output``."""
        if self._streams is None:
            return None
        return self._streams.get(self.report.name)

    def stream_in(self, producer: str):
        """The named producer's live channel (consumer side), or None in
        barrier mode / when the producer does not stream.  Wait on it with
        ``yield from chan.wait_milestone(...)``."""
        if self._streams is None:
            return None
        return self._streams.get(producer)

    @property
    def env(self):
        return self.testbed.env

    def trace(self, name: str, category: str = "compute", **attributes):
        """A child span of this step.

        Usable as a context manager around any phase of the step body::

            with ctx.trace("training", "compute", epochs=n):
                yield env.timeout(training_seconds)
        """
        return self.testbed.tracer.span(
            name, category, parent=self.span, attributes=attributes
        )


class WorkflowStep:
    """Base class for workflow steps.

    Subclasses override :meth:`execute` (a generator run as a simulation
    process) and may override :attr:`default_params`.

    Parameters
    ----------
    name:
        Step name (unique within a workflow).
    image:
        Container image the step's job pods run.
    description:
        One line for reports and the PPoDS plan view.
    params:
        Overrides merged over :attr:`default_params`.
    """

    #: Subclass hook: parameter defaults.
    default_params: dict[str, object] = {}

    #: Subclass hook: the step moves data over the WAN (downloads,
    #: transfers).  The ``dag`` lint pack (DAG005) insists such steps
    #: carry a ``timeout_s`` and/or ``max_retries`` budget.
    network_bound: bool = False

    #: Subclass hook: the step's artifacts survive a round-trip through
    #: :class:`~repro.workflow.persistence.WorkflowCheckpoint`, so a
    #: resumed run can skip past it (DAG006 flags gaps).
    checkpointable: bool = True

    #: Subclass hook: GPUs the step occupies when ``params`` carry no
    #: explicit ``n_gpus``/``gpus`` count (see :meth:`gpu_demand`).
    base_gpus: int = 0

    #: Subclass hook: the step produces a
    #: :class:`~repro.workflow.stream.StreamChannel` of milestones
    #: while running, so downstream ``stream_inputs`` consumers may
    #: start before it finishes (driver ``overlap=True``).
    streams_output: bool = False

    #: Subclass hook: dependency names this step can consume *as a
    #: stream* — in overlap mode these dependencies only need to be
    #: launched, not finished, for this step to start.  Every name must
    #: also appear in ``depends_on``.
    stream_inputs: tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        image: str = "chase-ci/generic:latest",
        description: str = "",
        params: dict[str, object] | None = None,
        max_retries: int = 0,
        retry_delay_s: float = 30.0,
        timeout_s: float | None = None,
    ):
        if not name:
            raise ValidationError("step needs a non-empty name")
        if max_retries < 0 or retry_delay_s < 0:
            raise ValidationError("retry settings must be non-negative")
        if timeout_s is not None and timeout_s <= 0:
            raise ValidationError("timeout_s must be positive")
        self.name = name
        self.image = image
        self.description = description
        self.params = {**self.default_params, **(params or {})}
        #: step-level retries: a failed execution is re-run from scratch
        #: up to this many extra times (on top of the Job-level backoff
        #: its pods already get).
        self.max_retries = max_retries
        self.retry_delay_s = retry_delay_s
        #: per-attempt wall-clock budget: an attempt still running after
        #: ``timeout_s`` sim-seconds is killed and counts as a failure
        #: (so it retries under ``max_retries`` like any crash).
        self.timeout_s = timeout_s
        #: names of steps whose artifacts this step consumes
        self.depends_on: list[str] = []

    def gpu_demand(self) -> int:
        """GPUs this step occupies while running (for DAG007 lint)."""
        return int(self.params.get("n_gpus", self.params.get("gpus", self.base_gpus)))  # type: ignore[arg-type]

    def after(self, *step_names: str) -> "WorkflowStep":
        """Declare dependencies; returns self for chaining."""
        self.depends_on.extend(step_names)
        return self

    def execute(self, ctx: StepContext):
        """Generator body run on the simulation kernel.

        Must ``yield`` simulation events; fills ``ctx.report.artifacts``
        only (and ``interactive``).  The driver reads every measured cell
        from the trace, data processed from child spans marked ``input``.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
