"""Shared test helpers for pinning simulator outputs."""

import hashlib


def registry_digest(registry) -> str:
    """SHA-256 over every ``(name, labels) -> (times, values)`` series."""
    h = hashlib.sha256()
    for name in registry.names():
        for ts in registry.all_series(name):
            h.update(repr((ts.name, ts.labels, ts.times, ts.values)).encode())
    return h.hexdigest()[:16]
