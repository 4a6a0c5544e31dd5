"""Retry policies and transient-fault injection for data transfers.

Production transfer stacks treat retries as a first-class policy object:
exponential backoff capped at a maximum delay, jitter to de-correlate
thundering herds, and a bounded attempt count.  :class:`RetryPolicy`
packages those knobs; the decorrelated jitter follows the well-known AWS
architecture-blog scheme (``sleep = min(cap, uniform(base, prev_sleep *
3))``).  :func:`retry_call` is the one retry loop: the THREDDS catalog
lookups, the content fetches and every aria2 stream run through it.

:class:`TransientFaultInjector` is the other half: a seeded source of
the server-side failures the policy exists to absorb — HTTP 5xx on the
catalog, request timeouts (the connection stalls, then dies), and
mid-stream connection resets that abort a transfer partway through.
Both halves are deterministic under a fixed seed, which is what lets
the chaos tests assert byte-for-byte identical fault schedules.
"""

from __future__ import annotations

import dataclasses
import types
import typing as _t

import numpy as np

from repro.errors import NetworkError, TransferError, TransientServerError
from repro.sim.rng import derive_seed

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment

__all__ = ["RetryPolicy", "TransientFaultInjector", "retry_call"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a client retries transient failures.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (so 1 disables retries).
    base_delay_s / multiplier / max_delay_s:
        Exponential-backoff shape: without a generator, the sleep after
        attempt ``k`` (0-based) is
        ``min(max_delay_s, base_delay_s * multiplier**k)``.

    With a seeded generator each delay is a decorrelated-jitter draw in
    ``[base_delay_s, max_delay_s]``, whatever the attempt: it can exceed
    the attempt's exponential value, and the delays need not grow with
    ``k``.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise TransferError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise TransferError(
                "need 0 <= base_delay_s <= max_delay_s "
                f"(got {self.base_delay_s}, {self.max_delay_s})"
            )
        if self.multiplier < 1.0:
            raise TransferError("multiplier must be >= 1")

    def backoff_cap(self, attempt: int) -> float:
        """The exponential backoff after 0-based ``attempt``: the delay
        :meth:`backoff` returns without a generator.  Monotone
        non-decreasing in the attempt number and never above
        ``max_delay_s``.  It does not bound a jittered delay, which can
        lie anywhere in ``[base_delay_s, max_delay_s]``."""
        if attempt < 0:
            raise TransferError(f"attempt must be >= 0, got {attempt}")
        return min(
            self.max_delay_s, self.base_delay_s * self.multiplier**attempt
        )

    def backoff(
        self,
        attempt: int,
        rng: np.random.Generator | None = None,
        prev_delay_s: float | None = None,
    ) -> float:
        """The sleep before retrying after 0-based ``attempt`` failed.

        Without ``rng`` it is :meth:`backoff_cap`; with one it is a
        decorrelated-jitter draw in ``[base_delay_s, max_delay_s]``.
        ``prev_delay_s`` feeds that recurrence; pass each call's return
        value into the next.
        """
        cap = self.backoff_cap(attempt)
        if rng is None:
            return cap
        # Decorrelated jitter: min(max, uniform(base, prev * 3)).
        prev = prev_delay_s if prev_delay_s else self.base_delay_s
        hi = max(self.base_delay_s, prev * 3.0)
        return float(
            min(self.max_delay_s, rng.uniform(self.base_delay_s, hi))
        )


class TransientFaultInjector:
    """Seeded source of transient server failures for THREDDS/aria2.

    Each *request* draws once from a single deterministic stream; under
    the FIFO-stable event kernel the draw order — and therefore the
    whole fault schedule — is identical run-to-run for a fixed seed.

    Parameters
    ----------
    seed:
        Root seed; the stream is derived so other subsystems' draws are
        unaffected.
    error_rate / timeout_rate / reset_rate:
        Per-request probabilities of an HTTP 5xx, a stalled-then-dead
        request, and a mid-stream connection reset.  Must sum to <= 1.
    stall_s:
        How long a timed-out request hangs before failing.
    max_faults / until_s:
        Optional limits: stop injecting after this many faults or past
        this simulation time (so workflows eventually converge).
    env:
        Optional environment for the ``until_s`` clock.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        timeout_rate: float = 0.0,
        reset_rate: float = 0.0,
        stall_s: float = 30.0,
        max_faults: int | None = None,
        until_s: float | None = None,
        env: "Environment | None" = None,
    ):
        total = error_rate + timeout_rate + reset_rate
        if min(error_rate, timeout_rate, reset_rate) < 0 or total > 1.0:
            raise TransferError(
                "fault rates must be non-negative and sum to <= 1, got "
                f"{(error_rate, timeout_rate, reset_rate)}"
            )
        self.rng = np.random.default_rng(derive_seed(seed, "transfer-faults"))
        self.error_rate = error_rate
        self.timeout_rate = timeout_rate
        self.reset_rate = reset_rate
        self.stall_s = stall_s
        self.max_faults = max_faults
        self.until_s = until_s
        self.env = env
        self.injected: dict[str, int] = {"error": 0, "timeout": 0, "reset": 0}

    # -- internals ------------------------------------------------------------

    def _armed(self) -> bool:
        if self.max_faults is not None and self.total_injected >= self.max_faults:
            return False
        if (
            self.until_s is not None
            and self.env is not None
            and self.env.now > self.until_s
        ):
            return False
        return True

    # -- draws ----------------------------------------------------------------

    def server_error(self) -> bool:
        """One catalog/metadata request: does the server 5xx it?"""
        if not self._armed():
            return False
        if self.rng.random() < self.error_rate:
            self.injected["error"] += 1
            return True
        return False

    def draw(self) -> tuple[str, float] | None:
        """One download request: ``None`` (healthy), ``("error", 0)``,
        ``("timeout", stall_s)``, or ``("reset", fraction_transferred)``."""
        if not self._armed():
            return None
        u = self.rng.random()
        if u < self.error_rate:
            self.injected["error"] += 1
            return ("error", 0.0)
        if u < self.error_rate + self.timeout_rate:
            self.injected["timeout"] += 1
            return ("timeout", self.stall_s)
        if u < self.error_rate + self.timeout_rate + self.reset_rate:
            self.injected["reset"] += 1
            # Reset lands somewhere mid-stream: 10–90 % of bytes made it.
            return ("reset", float(self.rng.uniform(0.1, 0.9)))
        return None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TransientFaultInjector injected={self.injected}>"


def retry_call(
    env: "Environment",
    fn: _t.Callable[[], _t.Any],
    policy: RetryPolicy | None,
    rng: np.random.Generator | None = None,
):
    """Generator helper: call ``fn`` under ``policy``, sleeping between
    attempts on the simulation clock.

    Use as ``result = yield from retry_call(env, fn, policy, rng)``.
    When ``fn()`` returns a generator, the attempt runs it with
    ``yield from``, so one attempt may take simulated time.  Retries
    :class:`TransientServerError`/:class:`NetworkError`; anything else
    propagates immediately, and the last attempt's error is re-raised.
    """
    attempts = policy.max_attempts if policy is not None else 1
    prev_delay: float | None = None
    for attempt in range(attempts):
        try:
            result = fn()
            if isinstance(result, types.GeneratorType):
                result = yield from result
            return result
        except (TransferError, NetworkError) as exc:
            if isinstance(exc, TransferError) and not isinstance(
                exc, TransientServerError
            ):
                # Permanent transfer errors (bad request, unknown
                # variable) don't benefit from retrying.
                raise
            if attempt + 1 >= attempts:
                raise
            delay = policy.backoff(attempt, rng, prev_delay)
            prev_delay = delay
            yield env.timeout(delay)
    raise TransferError("unreachable")  # pragma: no cover
