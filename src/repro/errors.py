"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ProcessKilled",
    "ClusterError",
    "QuotaExceededError",
    "InvalidQuantityError",
    "NotFoundError",
    "ConflictError",
    "StorageError",
    "ObjectNotFoundError",
    "InsufficientReplicasError",
    "NetworkError",
    "NoRouteError",
    "TransferError",
    "TransientServerError",
    "QueueEmptyError",
    "WorkflowError",
    "StepFailedError",
    "StepTimeoutError",
    "ValidationError",
    "MLError",
    "ShapeError",
    "PoolError",
    "StreamBrokenError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly or reached an
    inconsistent state (e.g. scheduling an event in the past)."""


class ProcessKilled(SimulationError):
    """Raised *inside* a simulated process when it is interrupted/killed.

    Carries the ``cause`` given to :meth:`repro.sim.Process.interrupt`.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class ClusterError(ReproError):
    """Base class for orchestration-layer errors."""


class QuotaExceededError(ClusterError):
    """A namespace :class:`~repro.cluster.namespace.ResourceQuota` would be
    exceeded by admitting a pod."""


class InvalidQuantityError(ClusterError, ValueError):
    """A resource quantity string (``"500m"``, ``"96Gi"``) failed to parse."""


class NotFoundError(ClusterError, KeyError):
    """A named API object does not exist."""


class ConflictError(ClusterError):
    """An API object with the same name already exists."""


class StorageError(ReproError):
    """Base class for storage-substrate errors."""


class ObjectNotFoundError(StorageError, KeyError):
    """Requested key is not present in the object store."""


class InsufficientReplicasError(StorageError):
    """Not enough healthy OSDs remain to satisfy the replication factor."""


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class NoRouteError(NetworkError):
    """No path exists between two sites in the topology."""


class TransferError(ReproError):
    """A data-transfer job (THREDDS download, queue pop, merge) failed."""


class TransientServerError(TransferError):
    """A retryable server-side failure (5xx, timeout, mid-stream reset)."""


class QueueEmptyError(TransferError):
    """A non-blocking queue pop found no message."""


class WorkflowError(ReproError):
    """Base class for workflow-layer errors."""


class StepFailedError(WorkflowError):
    """A workflow step's underlying job failed permanently."""

    def __init__(self, step_name: str, reason: str = ""):
        super().__init__(f"step {step_name!r} failed: {reason}")
        self.step_name = step_name
        self.reason = reason


class StepTimeoutError(StepFailedError):
    """A workflow step attempt exceeded its ``timeout_s`` budget."""

    def __init__(self, step_name: str, timeout_s: float):
        super().__init__(step_name, f"attempt exceeded timeout of {timeout_s}s")
        self.timeout_s = timeout_s


class ValidationError(WorkflowError, ValueError):
    """A workflow/step definition is structurally invalid (cycles, missing
    inputs, duplicate names)."""


class StreamBrokenError(WorkflowError):
    """A step stream channel was closed by a failed producer (or the
    producer's attempt was torn down for retry); the consumer should
    fail its own attempt and retry against the producer's next attempt."""

    def __init__(self, producer: str, reason: str = ""):
        super().__init__(
            f"stream from step {producer!r} broke"
            + (f": {reason}" if reason else "")
        )
        self.producer = producer
        self.reason = reason


class MLError(ReproError):
    """Base class for machine-learning substrate errors."""


class ShapeError(MLError, ValueError):
    """An array argument has an incompatible shape."""


class PoolError(MLError):
    """The shared-memory worker pool failed unrecoverably (all workers
    dead, a shard raised in a worker, or the pool was used after
    :meth:`~repro.ml.shm_pool.SharedMemoryPool.close`)."""
