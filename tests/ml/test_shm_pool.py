"""Lifecycle tests for the persistent shared-memory worker pool.

The pool's contract has three legs:

1. **Bit-identity** — ``distributed_segment`` through the pool matches
   the in-process path exactly, for any worker count.
2. **Resilience** — a worker crashing mid-shard retires the worker,
   retries the shard on a live one, and still returns identical output.
3. **Hygiene** — shutdown leaves no orphaned shared-memory segments and
   the parent's ``resource_tracker`` bookkeeping is balanced (every
   ``register`` matched by an ``unregister``).
"""

import glob
import os
import re
import time

import numpy as np
import pytest

from repro.data.merra import GridSpec, MerraGenerator
from repro.errors import PoolError
from repro.ml import FFNConfig, FFNModel, FFNTrainer
from repro.ml.distributed_inference import distributed_segment
from repro.ml.shm_pool import SharedMemoryPool, ShardSpec


@pytest.fixture(scope="module")
def trained_world():
    grid = GridSpec(nlat=30, nlon=48, nlev=8)
    gen = MerraGenerator(grid, seed=7)
    train_vol, train_lab = gen.ivt_volume(0, 16), gen.label_volume(0, 16)
    model = FFNModel(FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=7))
    FFNTrainer(model, seed=7).train(train_vol, train_lab, steps=80)
    return model, gen.ivt_volume(16, 12)


def _pool_shm_leftovers() -> list[str]:
    return glob.glob("/dev/shm/*repro-pool*")


class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_in_process(self, trained_world, workers):
        model, volume = trained_world
        ref, _ = distributed_segment(
            model, volume, n_workers=4, halo=2, max_workers=1
        )
        out, shards = distributed_segment(
            model, volume, n_workers=4, halo=2, max_workers=workers
        )
        assert np.array_equal(out, ref)
        assert out.dtype == ref.dtype
        assert len(shards) == 4

    def test_persistent_pool_reused_across_volumes(self, trained_world):
        model, volume = trained_world
        other = volume[:, ::-1, :].copy()
        with SharedMemoryPool(model, n_workers=2) as pool:
            for vol in (volume, other):
                ref, _ = distributed_segment(
                    model, vol, n_workers=4, halo=2, max_workers=1
                )
                out, _ = distributed_segment(
                    model, vol, n_workers=4, halo=2, max_workers=2, pool=pool
                )
                assert np.array_equal(out, ref)
            assert pool.live_workers() == [0, 1]

    def test_spawn_start_method(self, trained_world):
        model, volume = trained_world
        ref, _ = distributed_segment(
            model, volume, n_workers=2, halo=2, max_workers=1
        )
        with SharedMemoryPool(model, n_workers=2,
                              start_method="spawn") as pool:
            out, _ = distributed_segment(
                model, volume, n_workers=2, halo=2, max_workers=2, pool=pool
            )
        assert np.array_equal(out, ref)


class TestCrashRecovery:
    def test_crash_mid_shard_retried_on_live_worker(self, trained_world):
        model, volume = trained_world
        ref, _ = distributed_segment(
            model, volume, n_workers=4, halo=2, max_workers=1
        )
        with SharedMemoryPool(model, n_workers=2) as pool:
            pool.inject_crash(0)
            out, _ = distributed_segment(
                model, volume, n_workers=4, halo=2, max_workers=2, pool=pool
            )
            assert np.array_equal(out, ref)
            assert pool.dead_workers == [0]
            assert pool.live_workers() == [1]
            assert len(pool.retried) >= 1
            assert all(r.retried for r in pool.retried)

    def test_crash_injected_while_idle_still_dies_mid_shard(self, trained_world):
        """The worker may dequeue the crash message long before any
        dispatch; it must still die holding a shard, which is retried."""
        model, volume = trained_world
        ref, _ = distributed_segment(
            model, volume, n_workers=4, halo=2, max_workers=1
        )
        with SharedMemoryPool(model, n_workers=2) as pool:
            pool.inject_crash(0)
            time.sleep(0.3)
            out, _ = distributed_segment(
                model, volume, n_workers=4, halo=2, max_workers=2, pool=pool
            )
            assert np.array_equal(out, ref)
            assert pool.dead_workers == [0]
            assert len(pool.retried) >= 1

    def test_all_workers_dead_raises_pool_error(self, trained_world):
        model, volume = trained_world
        specs = [ShardSpec(0, 0, volume.shape[0], 0, volume.shape[0])]
        with SharedMemoryPool(model, n_workers=1) as pool:
            pool.inject_crash(0)
            with pytest.raises(PoolError):
                pool.segment_shards(volume, specs)


class TestHygiene:
    def test_no_orphaned_segments_after_close(self, trained_world):
        model, volume = trained_world
        pool = SharedMemoryPool(model, n_workers=2)
        distributed_segment(
            model, volume, n_workers=4, halo=2, max_workers=2, pool=pool
        )
        pool.close()
        assert pool.closed
        assert _pool_shm_leftovers() == []

    def test_resource_tracker_registrations_balanced(
        self, trained_world, monkeypatch
    ):
        """Every parent-side shared_memory register is unregistered by
        the time the call returns — the resource_tracker ends the run
        with nothing left to clean up (or warn about)."""
        from multiprocessing import resource_tracker

        events: list[tuple[str, str]] = []
        real_register = resource_tracker.register
        real_unregister = resource_tracker.unregister

        def spy_register(name, rtype):
            if rtype == "shared_memory":
                events.append(("register", name))
            return real_register(name, rtype)

        def spy_unregister(name, rtype):
            if rtype == "shared_memory":
                events.append(("unregister", name))
            return real_unregister(name, rtype)

        monkeypatch.setattr(resource_tracker, "register", spy_register)
        monkeypatch.setattr(resource_tracker, "unregister", spy_unregister)

        model, volume = trained_world
        with SharedMemoryPool(model, n_workers=2) as pool:
            distributed_segment(
                model, volume, n_workers=4, halo=2, max_workers=2, pool=pool
            )

        registered = {n for kind, n in events if kind == "register"}
        unregistered = {n for kind, n in events if kind == "unregister"}
        assert registered, "expected the pool to share segments"
        assert registered == unregistered

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_workers_map_only_the_current_calls_segments(self, trained_world):
        """A long-lived worker closes the segments of earlier calls, which
        the parent has unlinked, instead of keeping them mapped."""
        model, volume = trained_world
        with SharedMemoryPool(model, n_workers=2) as pool:
            for _ in range(4):
                distributed_segment(
                    model, volume, n_workers=4, halo=2, max_workers=2,
                    pool=pool,
                )
            for pid in (proc.pid for proc in pool._procs):
                with open(f"/proc/{pid}/maps") as maps:
                    mapped = set(re.findall(r"repro-pool-[\w-]+", maps.read()))
                assert 0 < len(mapped) <= 2, mapped

    def test_close_is_idempotent(self, trained_world):
        model, _ = trained_world
        pool = SharedMemoryPool(model, n_workers=1)
        pool.close()
        pool.close()
        assert pool.closed

    def test_ephemeral_pool_cleaned_up(self, trained_world):
        """distributed_segment's own pool (no pool= argument) is closed
        even though the caller never sees it."""
        model, volume = trained_world
        distributed_segment(
            model, volume, n_workers=4, halo=2, max_workers=2
        )
        assert _pool_shm_leftovers() == []
