"""Graceful degradation: trade result richness for survival under load.

When the cluster is saturated, finishing the essential work late beats
finishing all the work never.  A :class:`DegradationPolicy` turns a
saturation signal (typically the admission gateway's
:meth:`~repro.gateway.AdmissionGateway.saturated`, or a cluster
pending-queue threshold) into two concrete behaviours of the overload
drill (:mod:`repro.loadgen`):

- **Drop optional work** — the drill asks :meth:`saturated` before its
  visualization stage and records a dropped stage with
  :meth:`note_skip`.
- **Coarser shard fan-out** — :meth:`effective_fanout` halves a
  requested fan-out under saturation (never below one shard), so each
  workflow holds fewer concurrent pods while the queue drains.

The policy records everything it dropped or coarsened, so a loadtest
report can state exactly what degradation cost.
"""

from __future__ import annotations

import math
import typing as _t

__all__ = ["DegradationPolicy"]

#: Multiplier on a requested fan-out while saturated (half the shards).
FANOUT_FACTOR = 0.5
#: Floor for a coarsened fan-out.
MIN_FANOUT = 1


class DegradationPolicy:
    """Decide what to shed when the control plane reports saturation.

    Parameters
    ----------
    saturation:
        Zero-arg callable returning truthy while the cluster is
        saturated.  Evaluated at each decision point, so the policy
        reacts as load rises and falls.
    """

    def __init__(self, saturation: _t.Callable[[], bool]):
        self._saturation = saturation
        #: names of optional steps skipped under saturation
        self.dropped_steps: list[str] = []
        #: (step name, requested, granted) fan-outs that were coarsened
        self.coarsened_fanouts: list[tuple[str, int, int]] = []

    def saturated(self) -> bool:
        return bool(self._saturation())

    def note_skip(self, step_name: str) -> None:
        self.dropped_steps.append(step_name)

    def effective_fanout(self, requested: int, step_name: str = "") -> int:
        """The shard fan-out to actually use for ``requested`` shards."""
        if requested <= MIN_FANOUT or not self.saturated():
            return requested
        granted = max(MIN_FANOUT, math.ceil(requested * FANOUT_FACTOR))
        if granted < requested:
            self.coarsened_fanouts.append((step_name, requested, granted))
        return granted

    def summary(self) -> dict:
        """JSON-safe account of what degradation cost this run."""
        return {
            "dropped_steps": list(self.dropped_steps),
            "coarsened_fanouts": [
                {"step": s, "requested": r, "granted": g}
                for s, r, g in self.coarsened_fanouts
            ],
        }
