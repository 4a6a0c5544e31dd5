"""Token-bucket rate limiting on the simulation clock.

The admission gateway grants each tenant a bucket: submissions spend one
token each, the bucket refills continuously at ``rate`` tokens/second up
to ``burst``.  Refill is computed lazily from the virtual clock, so an
idle bucket costs nothing — no background process ticks it.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment

__all__ = ["TokenBucket"]


class TokenBucket:
    """A continuously-refilling token bucket on virtual time.

    Parameters
    ----------
    env:
        Simulation environment supplying the clock.
    rate:
        Sustained tokens per second.
    burst:
        Bucket capacity — the largest instantaneous spike allowed.
    """

    def __init__(self, env: "Environment", rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be positive (rate={rate}, burst={burst})"
            )
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_refill = env.now

    def _refill(self) -> None:
        now = self.env.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last_refill = now

    def try_take(self) -> bool:
        """Spend one token if available; ``False`` means rate-limited."""
        self._refill()
        if self._tokens + 1e-12 >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def time_until(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 if already are).

        The gateway surfaces this as ``retry_after_s`` in backpressure
        rejections, so clients can retry exactly when a token exists
        instead of hammering the front door.
        """
        self._refill()
        deficit = n - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate
