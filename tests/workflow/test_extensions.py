"""Tests for the §III-E extension steps and the testbed builder."""

import numpy as np
import pytest

from repro.data.merra import MerraGenerator
from repro.errors import ValidationError
from repro.ml import FFNConfig, FFNModel, FFNTrainer
from repro.testbed import build_nautilus_testbed
from repro.workflow import (
    DistributedPreprocessing,
    DistributedTraining,
    HyperparameterSweep,
)
from repro.workflow.driver import run_single_step
from repro.workflow.extensions import allreduce_seconds, data_parallel_train


@pytest.fixture
def testbed():
    return build_nautilus_testbed(seed=3, scale=0.001)


class TestTestbedBuilder:
    def test_paper_shaped_inventory(self):
        tb = build_nautilus_testbed(seed=1, scale=0.001)
        fig1 = tb.figure1_summary()
        assert fig1["prp_sites"] >= 20
        assert fig1["storage_petabytes"] >= 1.0  # "over a petabyte" (§II)
        assert fig1["gpus"] >= 50  # enough for step 3
        assert fig1["wan_link_speeds_gbps"] == [10.0, 40.0, 100.0]

    def test_scale_controls_archive(self):
        tb = build_nautilus_testbed(seed=1, scale=0.01)
        assert len(tb.archive) == round(112_249 * 0.01)

    def test_invalid_scale_rejected(self):
        # NaN fails both halves of ``scale <= 0 or scale > 1``.
        for scale in (float("nan"), 0.0, 1.5, 2.0):
            with pytest.raises(ValueError, match=r"scale must be in \(0, 1\]"):
                build_nautilus_testbed(scale=scale)

    def test_cluster_nodes_attached_to_network(self):
        tb = build_nautilus_testbed(seed=1, scale=0.001)
        for name in tb.cluster.nodes:
            assert name in tb.topology.hosts

    def test_deterministic_generators(self):
        a = build_nautilus_testbed(seed=9, scale=0.001)
        b = build_nautilus_testbed(seed=9, scale=0.001)
        np.testing.assert_array_equal(
            a.merra_generator().ivt_field(3), b.merra_generator().ivt_field(3)
        )


class TestDistributedPreprocessing:
    def test_parallel_beats_serial_model(self, testbed):
        # Enough bytes that conversion dwarfs pod startup overhead.
        step = DistributedPreprocessing(
            params={"n_workers": 8, "bytes_to_convert": 64e9}
        )
        report = run_single_step(testbed, step)
        assert report.succeeded
        serial = report.artifacts["serial_equivalent_s"]
        assert report.duration_s < serial
        # Outputs landed on CephFS.
        assert report.artifacts["protobuf_objects"]
        for name in report.artifacts["protobuf_objects"]:
            assert testbed.cephfs.exists(name)

    def test_data_cell_sums_the_converted_chunks(self, testbed):
        # Chunks of 4, 4 and 2.5 GB, each converted under an input span.
        step = DistributedPreprocessing(
            params={"n_workers": 2, "bytes_to_convert": 10.5e9}
        )
        report = run_single_step(testbed, step)
        assert report.artifacts["n_chunks"] == 3
        assert report.data_processed_bytes == 10.5e9

    def test_single_worker_approximates_serial(self, testbed):
        step = DistributedPreprocessing(
            params={"n_workers": 1, "bytes_to_convert": 64e9}
        )
        report = run_single_step(testbed, step, workflow_name="serial")
        serial = report.artifacts["serial_equivalent_s"]
        # One worker still pays the serial conversion time (plus I/O).
        assert report.duration_s >= serial


class TestDistributedTraining:
    def test_allreduce_cost_model(self):
        assert allreduce_seconds(1e9, 1) == 0.0
        two = allreduce_seconds(1e9, 2)
        eight = allreduce_seconds(1e9, 8)
        assert two > 0
        assert eight > two  # (K-1)/K grows with K
        assert eight < 2 * two  # but saturates below 2x

    def test_data_parallel_train_learns(self):
        gen = MerraGenerator(seed=5)
        volume = gen.ivt_volume(0, 12)
        labels = gen.label_volume(0, 12)
        config = FFNConfig(fov=(5, 5, 5), filters=4, modules=1, seed=5)
        _, loss = data_parallel_train(
            config, volume, labels, n_workers=4, steps=30, seed=5
        )
        assert loss < 1.0

    @pytest.mark.parametrize(
        "seed, filters, timesteps, expected",
        [
            # Final losses of the per-patch (unbatched) data-parallel
            # loop this trainer replaced, on the same fixtures.
            (5, 4, 12, 0.17478158412935196),  # test_data_parallel_train_learns
            (42, 6, 16, 0.19846886747454728),  # ablation A5
        ],
    )
    def test_data_parallel_train_pinned_loss(self, seed, filters, timesteps,
                                             expected):
        gen = MerraGenerator(seed=seed)
        config = FFNConfig(fov=(5, 5, 5), filters=filters, modules=1, seed=seed)
        _, loss = data_parallel_train(
            config, gen.ivt_volume(0, timesteps), gen.label_volume(0, timesteps),
            n_workers=4, steps=30, seed=seed,
        )
        assert loss == pytest.approx(expected, abs=1e-3)

    def test_one_worker_is_the_trainer_bit_for_bit(self):
        gen = MerraGenerator(seed=5)
        volume, labels = gen.ivt_volume(0, 12), gen.label_volume(0, 12)
        config = FFNConfig(fov=(5, 5, 5), filters=4, modules=1, seed=5)
        model, loss = data_parallel_train(
            config, volume, labels, n_workers=1, steps=12, seed=5
        )
        reference = FFNModel(config)
        report = FFNTrainer(
            reference, batch_size=1, fov_steps=1, seed=5
        ).train(volume, labels, steps=12)
        assert loss == report.final_loss
        for name, weights in reference.state_dict().items():
            assert np.array_equal(model.state_dict()[name], weights), name

    def test_data_parallel_validates_workers(self):
        gen = MerraGenerator(seed=5)
        config = FFNConfig(fov=(5, 5, 5), filters=4, modules=1)
        with pytest.raises(ValidationError):
            data_parallel_train(
                config, gen.ivt_volume(0, 8), gen.label_volume(0, 8), n_workers=0
            )

    def test_step_runs_and_scales_down(self, testbed):
        step = DistributedTraining(
            params={"n_replicas": 4, "real_ml": False}
        )
        report = run_single_step(testbed, step)
        assert report.succeeded
        assert report.gpus == 4  # peak concurrent replicas
        art = report.artifacts
        assert art["modelled_total_seconds"] == pytest.approx(
            art["compute_seconds"] + art["comm_seconds"]
        )
        assert "svc.cluster.local" in art["service_hostname"]
        # ReplicaSet was deleted: no tf-train pods left running.
        from repro.cluster import PodPhase

        running = testbed.cluster.list_pods(phase=PodPhase.RUNNING)
        assert not [p for p in running if "tf-train" in p.meta.name]

    def test_more_replicas_less_compute_time(self, testbed):
        small = DistributedTraining(
            name="dt-2", params={"n_replicas": 2, "real_ml": False}
        )
        big = DistributedTraining(
            name="dt-8", params={"n_replicas": 8, "real_ml": False}
        )
        r2 = run_single_step(testbed, small, workflow_name="w2")
        r8 = run_single_step(testbed, big, workflow_name="w8")
        assert r8.artifacts["compute_seconds"] < r2.artifacts["compute_seconds"]
        assert r8.artifacts["comm_seconds"] > r2.artifacts["comm_seconds"]


class TestHyperparameterSweep:
    def test_sweep_finds_best_params(self, testbed):
        step = HyperparameterSweep(
            params={
                "param_grid": (
                    {"lr": 0.1, "filters": 4},
                    {"lr": 0.1, "filters": 6},
                ),
                "n_workers": 2,
                "train_steps": 10,
            }
        )
        report = run_single_step(testbed, step)
        assert report.succeeded
        art = report.artifacts
        assert art["trials"] == 2
        losses = [r["validation_loss"] for r in art["results"]]
        assert art["best_validation_loss"] == min(losses)
        assert art["best_params"] in [r["params"] for r in art["results"]]

    def test_split_windows_do_not_overlap(self, testbed):
        """§III-E.3: 'it is important to separate training and test data'."""
        step = HyperparameterSweep()
        t0, t1 = step.params["train_window"]
        v0, v1 = step.params["validation_window"]
        assert t1 <= v0 or v1 <= t0
