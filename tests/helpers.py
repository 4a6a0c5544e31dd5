"""Shared test helpers for pinning simulator outputs."""

import hashlib
import re

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
