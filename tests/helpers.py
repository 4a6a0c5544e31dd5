"""Shared test helpers for pinning and checking simulator outputs."""

import hashlib
import re

import pytest

from repro.workflow.connect_steps import TRAIN_DATA_BYTES

_METRIC_NAME = re.compile(r"[a-z][a-z0-9_]*")


def registry_digest(registry) -> str:
    """SHA-256 over every ``(name, labels) -> (times, values)`` series."""
    h = hashlib.sha256()
    for name in registry.names():
        for ts in registry.all_series(name):
            h.update(repr((ts.name, ts.labels, ts.times, ts.values)).encode())
    return h.hexdigest()[:16]


def assert_prometheus_names(registry) -> None:
    """Every series name is snake_case and every counter ends in ``_total``."""
    for name in registry.names():
        assert _METRIC_NAME.fullmatch(name), name
        if registry.counter_sum(name) > 0:
            assert name.endswith("_total"), name


def assert_data_cells_match_their_sources(report, testbed):
    """Table I's data cells, summed from each step's ``input`` spans,
    against the quantities the steps read: the staged training file,
    the archive subset the shards fetch, and the inference results."""
    subset = testbed.archive.total_subset_bytes
    inference = report.step("inference")
    assert report.step("training").data_processed_bytes == TRAIN_DATA_BYTES
    assert inference.data_processed_bytes == subset
    assert (
        report.step("visualization").data_processed_bytes
        == inference.artifacts["result_bytes"]
    )
    assert report.step("download").data_processed_bytes == pytest.approx(
        subset, rel=1e-15
    )

