"""Persistent shared-memory worker pool for the shard fan-out.

An earlier ``concurrent.futures`` fan-out (since removed) *lost* to the
in-process shard loop on the committed trajectory (BENCH_2026-08-06:
0.86x) because every task pickled its whole shard slice out and its
whole label slab back, plus the model state — per task, every time.
This module is the standard fix from container-HPC practice, and the
only process fan-out: **spawn the workers once, move the data never.**
Workers and the in-process reference loop run the same
:func:`segment_shard`.

- The input volume lives in one ``multiprocessing.shared_memory``
  segment; workers map it and slice **zero-copy views** of their shard
  (halo included).
- The model config + state cross the process boundary exactly once, at
  worker startup, not per task.
- Results are written **in place** into a shared int32 label buffer;
  the only per-task traffic is a few-int task descriptor and a
  (shard_index, n_objects) receipt.
- Workers are long-lived: a pool amortizes its spawn cost over every
  ``segment_shards`` call of its lifetime, which is what makes it a
  drop-in engine for repeated inference (parameter sweeps, benchmark
  repeats, many volumes).

Determinism contract: tasks are *submitted* in shard order and results
are *committed* in shard order regardless of completion order, so the
stitched output is bit-identical to the in-process loop for every
worker count — the parity suite holds the pool to that.

Fault contract: a worker that dies mid-shard (OOM kill, segfault) is
detected by the dispatcher, its in-flight shard is **retried on a live
worker**, and the dead process is never handed work again.  The pool
raises :class:`~repro.errors.PoolError` only when no live worker
remains.  ``close()`` is leak-free: every worker is joined (terminated
if unresponsive) and every shared-memory segment is closed and
unlinked — the test suite asserts the ``resource_tracker`` ledger
balances.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as _queue
import typing as _t
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import PoolError, ShapeError
from repro.ml.ffn import FFNModel
from repro.ml.inference import segment_volume

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.ml.ffn import FFNConfig

__all__ = [
    "SharedMemoryPool",
    "ShardSpec",
    "ShardReceipt",
    "segment_shard",
    "usable_cpus",
]

#: Dispatcher poll interval while waiting on the result queue (seconds).
#: Only bounds crash-detection latency; results arrive event-driven.
_POLL_S = 0.05


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard task: where to read, what to own, where to write.

    All bounds index the *time axis* of the shared volume.  The worker
    segments ``volume[lo:hi]`` (the halo-widened slice), keeps the
    ``[t0, t1)`` owned region, compacts its labels to 1..n, and writes
    them into ``labels[t0:t1]`` of the shared output buffer.
    """

    shard_index: int
    lo: int
    hi: int
    t0: int
    t1: int


@dataclasses.dataclass
class ShardReceipt:
    """What comes back over the wire per shard: a few integers."""

    shard_index: int
    n_objects: int
    worker: int
    retried: bool = False


@dataclasses.dataclass(frozen=True)
class _SegmentRef:
    """Enough to rebuild a numpy view onto a shared segment anywhere."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def view(self, shm: shared_memory.SharedMemory) -> np.ndarray:
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the
    platform exposes one (a ``taskset`` or cgroup cpuset narrows it),
    else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tracker_running() -> bool:
    """Whether this process already has a live resource tracker."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return tracker is not None and getattr(tracker, "_fd", None) is not None


def _attach(
    cache: dict[str, shared_memory.SharedMemory],
    ref: _SegmentRef,
    own_tracker: bool,
) -> np.ndarray:
    shm = cache.get(ref.name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=ref.name)
        # Python < 3.13 registers even *attached* segments with the
        # resource_tracker as if this process owned them; the parent is
        # the sole owner (it created them and unlinks them in close()).
        # Forked workers share the parent's tracker (the pool starts it
        # pre-fork), where the duplicate registration is an idempotent
        # no-op — but a spawned worker gets its own tracker, which would
        # report (and try to clean) phantom leaks at exit, so there the
        # duplicate claim is dropped immediately.
        if own_tracker:
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", "/" + ref.name), "shared_memory"
                )
            except Exception:  # pragma: no cover - tracker API drift
                pass
        cache[ref.name] = shm
    return ref.view(shm)


def _release_stale(
    cache: dict[str, shared_memory.SharedMemory], keep: tuple[str, ...]
) -> None:
    """Close every cached attachment not named in ``keep``.

    Each :meth:`SharedMemoryPool.segment_shards` call shares fresh
    segments and unlinks them when it returns, so an attachment left from
    an earlier call only pins that call's pages in the worker: without
    this, a long-lived worker's resident set grows by a volume and a label
    buffer per call.
    """
    for name in [name for name in cache if name not in keep]:
        cache.pop(name).close()


def segment_shard(
    model: FFNModel,
    volume: np.ndarray,
    spec: ShardSpec,
) -> tuple[np.ndarray, int]:
    """Segment one shard: ``volume[lo:hi]``, keep ``[t0, t1)``, compact.

    The one shard routine of the fan-out, run in-process and by every
    pool worker alike: :func:`segment_volume` with its defaults and at
    most 16 objects.  Returns the owned labels renumbered so their
    nonzero ids run 1..n, and n.
    """
    local = segment_volume(
        model,
        volume[spec.lo : spec.hi],  # zero-copy view
        max_objects=16,
    )
    owned = local[spec.t0 - spec.lo : spec.t1 - spec.lo]
    ids = np.unique(owned)
    ids = ids[ids != 0]
    if len(ids) == 0:
        return np.zeros(owned.shape, dtype=np.int32), 0
    compact = (np.searchsorted(ids, owned) + 1).astype(np.int32)
    compact[owned == 0] = 0
    return compact, len(ids)


def _worker_main(
    worker_index: int,
    config: "FFNConfig",
    state: dict,
    task_queue,
    result_queue,
) -> None:
    """Long-lived worker loop: attach, segment, write in place, repeat.

    Module-level so it pickles under every start method.  The model is
    rebuilt exactly once; shared segments are attached on first use and
    cached by name until a task of a later call arrives.
    """
    model = FFNModel(config)
    model.load_state_dict(state)
    attached: dict[str, shared_memory.SharedMemory] = {}
    # Decided once, at startup: a worker that did NOT inherit the
    # parent's tracker will lazily start its own on first attach.
    own_tracker = not _tracker_running()
    crash_armed = False
    try:
        while True:
            message = task_queue.get()
            if message is None:  # shutdown sentinel
                break
            if message[0] == "crash":  # test hook, see inject_crash
                crash_armed = True
                continue
            if crash_armed:  # die hard with this shard in flight
                os._exit(17)
            (_, generation, volume_ref, labels_ref, spec) = message
            # Drop the views of the previous task's segments, so that
            # closing them finds no exported buffer.
            volume = labels_out = None
            _release_stale(attached, (volume_ref.name, labels_ref.name))
            try:
                volume = _attach(attached, volume_ref, own_tracker)
                labels_out = _attach(attached, labels_ref, own_tracker)
                compact, n_objects = segment_shard(model, volume, spec)
                labels_out[spec.t0 : spec.t1] = compact  # in-place result
                result_queue.put(
                    ("ok", generation, spec.shard_index, n_objects, worker_index)
                )
            except Exception as exc:  # noqa: BLE001 - forwarded to parent
                result_queue.put(
                    ("err", generation, spec.shard_index, repr(exc), worker_index)
                )
    finally:
        for shm in attached.values():
            shm.close()


class SharedMemoryPool:
    """Long-lived shard-segmentation workers over shared numpy buffers.

    Parameters
    ----------
    model:
        The trained :class:`~repro.ml.ffn.FFNModel`; its config and
        state cross to each worker once, at spawn.
    n_workers:
        Worker process count (>= 1).
    start_method:
        ``multiprocessing`` start method; default ``"fork"`` where
        available (fast spawn, which the bench amortizes anyway),
        ``"spawn"`` otherwise.

    Use as a context manager or call :meth:`close` — the pool owns OS
    resources (processes, ``/dev/shm`` segments) that must be released
    deliberately, not by garbage collection.
    """

    def __init__(
        self,
        model: FFNModel,
        n_workers: int,
        start_method: str | None = None,
    ):
        if n_workers < 1:
            raise ShapeError("SharedMemoryPool needs n_workers >= 1")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.n_workers = n_workers
        self.start_method = start_method
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._seq = 0
        self._closed = False
        #: receipts of tasks that had to move off a dead worker
        self.retried: list[ShardReceipt] = []
        #: workers that died and were retired from dispatch
        self.dead_workers: list[int] = []
        # A full Queue (not SimpleQueue): the dispatcher needs a timed
        # ``get`` so it can interleave worker-liveness checks — a dead
        # worker never wakes the queue.
        self._result_queue = self._ctx.Queue()
        self._task_queues = [self._ctx.SimpleQueue() for _ in range(n_workers)]
        self._generation = 0
        # Start the resource tracker BEFORE forking, so forked workers
        # inherit it and their attach-time registrations are idempotent
        # no-ops on the shared ledger (see _attach).
        resource_tracker.ensure_running()
        self._procs = []
        config = model.config
        state = model.state_dict()
        for index in range(n_workers):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(index, config, state,
                      self._task_queues[index], self._result_queue),
                name=f"repro-shm-worker-{index}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    # -- shared segments ----------------------------------------------------

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create (and track) a fresh named segment."""
        while True:
            name = f"repro-pool-{os.getpid()}-{id(self):x}-{self._seq}"
            self._seq += 1
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, nbytes)
                )
            except FileExistsError:  # stale segment from a crashed run
                continue
            self._segments[name] = shm
            return shm

    def _share_array(self, array: np.ndarray) -> _SegmentRef:
        """Copy ``array`` into a shared segment once; return its ref."""
        shm = self._new_segment(array.nbytes)
        ref = _SegmentRef(shm.name, tuple(array.shape), str(array.dtype))
        ref.view(shm)[...] = array
        return ref

    def _release_segment(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        if shm is not None:
            shm.close()
            shm.unlink()

    # -- dispatch -----------------------------------------------------------

    def live_workers(self) -> list[int]:
        return [
            i
            for i, proc in enumerate(self._procs)
            if proc.is_alive() and i not in self.dead_workers
        ]

    def inject_crash(self, worker_index: int) -> None:
        """Test hook: make one worker die hard on dequeuing its next
        segment task, so that shard is always in flight when it dies."""
        self._task_queues[worker_index].put(("crash",))

    def segment_shards(
        self,
        volume: np.ndarray,
        specs: _t.Sequence[ShardSpec],
    ) -> tuple[list[np.ndarray], list[ShardReceipt]]:
        """Segment every shard on the pool; returns owned label slabs.

        The volume is copied into shared memory **once**; each task then
        moves only its :class:`ShardSpec`.  Slabs come back as ordinary
        arrays copied out of the shared output buffer in shard order, so
        callers (and the stitcher) never see the buffer being reused.
        """
        if self._closed:
            raise PoolError("pool is closed")
        if volume.ndim != 3:
            raise ShapeError(f"volume must be (T, H, W), got {volume.shape}")
        if not specs:
            return [], []
        # Share in the caller's dtype: segment_volume seeds from a
        # percentile of the *raw* values, so a float64 -> float32 cast
        # here could move the threshold and break bit-parity.
        volume_ref = self._share_array(np.ascontiguousarray(volume))
        labels_shm = self._new_segment(int(np.prod(volume.shape)) * 4)
        labels_ref = _SegmentRef(
            labels_shm.name, tuple(volume.shape), "int32"
        )
        labels_ref.view(labels_shm)[...] = 0
        try:
            receipts = self._run_tasks(volume_ref, labels_ref, specs)
            labels = labels_ref.view(labels_shm)
            slabs = [
                np.array(labels[spec.t0 : spec.t1], dtype=np.int32)
                for spec in specs
            ]
            return slabs, receipts
        finally:
            self._release_segment(volume_ref.name)
            self._release_segment(labels_ref.name)

    def _run_tasks(
        self,
        volume_ref: _SegmentRef,
        labels_ref: _SegmentRef,
        specs: _t.Sequence[ShardSpec],
    ) -> list[ShardReceipt]:
        """Feed tasks to live workers; retry shards off dead ones.

        Dynamic dispatch: each live worker holds at most one in-flight
        shard and is fed the next backlog entry as soon as its result
        lands (natural load balancing — a worker with a heavy shard is
        simply not fed again until it finishes).  Results are tagged
        with a per-call generation so a straggler finishing after the
        call returns (possible only in crash-retry races, where the
        duplicate writes identical bytes) can never be mistaken for a
        result of a later call.
        """
        self._generation += 1
        generation = self._generation
        backlog: list[tuple[ShardSpec, bool]] = [
            (spec, False) for spec in specs
        ]
        backlog.reverse()  # pop() serves tasks in shard-submission order
        inflight: dict[int, tuple[ShardSpec, bool]] = {}
        receipts: dict[int, ShardReceipt] = {}

        def feed() -> None:
            for worker in self.live_workers():
                if worker in inflight or not backlog:
                    continue
                spec, retried = backlog.pop()
                inflight[worker] = (spec, retried)
                self._task_queues[worker].put(
                    ("segment", generation, volume_ref, labels_ref, spec)
                )

        feed()
        while len(receipts) < len(specs):
            try:
                message = self._result_queue.get(timeout=_POLL_S)
            except _queue.Empty:
                self._reap_dead(inflight, backlog, receipts)
                feed()
                continue
            except (EOFError, OSError) as exc:  # pragma: no cover - teardown
                raise PoolError(f"pool result channel broke: {exc!r}") from exc
            kind, msg_generation, shard_index, payload, worker = message
            if msg_generation != generation:  # straggler from a prior call
                continue
            entry = inflight.pop(worker, None)
            if kind == "err":
                raise PoolError(
                    f"shard {shard_index} failed on worker {worker}: {payload}"
                )
            if shard_index in receipts:
                # Crash-retry race: the "dead" worker had already sent
                # its result.  The duplicate run wrote identical bytes;
                # drop the spare receipt and scrub any queued duplicate.
                backlog[:] = [
                    e for e in backlog if e[0].shard_index != shard_index
                ]
            else:
                retried = bool(entry[1]) if entry is not None else False
                receipt = ShardReceipt(
                    shard_index=shard_index,
                    n_objects=int(payload),
                    worker=worker,
                    retried=retried,
                )
                receipts[shard_index] = receipt
                if retried:
                    self.retried.append(receipt)
            self._reap_dead(inflight, backlog, receipts)
            feed()
        return [receipts[spec.shard_index] for spec in specs]

    def _reap_dead(
        self,
        inflight: dict[int, tuple["ShardSpec", bool]],
        backlog: list,
        receipts: dict[int, ShardReceipt],
    ) -> None:
        """Retire dead workers; put their unfinished shards back on the
        backlog (flagged as retries)."""
        for worker, proc in enumerate(self._procs):
            if worker in self.dead_workers or proc.is_alive():
                continue
            self.dead_workers.append(worker)
            entry = inflight.pop(worker, None)
            if entry is not None:
                spec, _retried = entry
                if spec.shard_index not in receipts:
                    backlog.append((spec, True))
            if not self.live_workers():
                raise PoolError(
                    f"all {self.n_workers} pool workers are dead "
                    f"(last exit code {proc.exitcode})"
                )

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Shut the pool down leak-free (idempotent).

        Sends each live worker the shutdown sentinel, joins it
        (terminating on timeout), and closes **and unlinks** every
        shared segment the pool still owns, so nothing survives in
        ``/dev/shm`` and the ``resource_tracker`` ledger balances.
        """
        if self._closed:
            return
        self._closed = True
        for worker, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._task_queues[worker].put(None)
                except (OSError, ValueError):  # pragma: no cover - defensive
                    pass
        for proc in self._procs:
            proc.join(timeout=join_timeout_s)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=join_timeout_s)
        self._result_queue.close()
        self._result_queue.join_thread()
        for name in list(self._segments):
            self._release_segment(name)

    def __enter__(self) -> "SharedMemoryPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self._closed else f"{len(self.live_workers())} live"
        return f"<SharedMemoryPool {self.n_workers} workers ({state})>"
