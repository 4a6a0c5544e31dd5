"""Property tests for the retry backoff policy.

The whole resilience layer leans on three guarantees: backoff delays
never exceed the configured ceiling, the deterministic cap grows
monotonically with the attempt number, and a seeded generator replays
the exact same delay sequence — so fault schedules (and hence whole
chaos runs) are reproducible.  A jittered delay lies in
``[base_delay_s, max_delay_s]``; the per-attempt cap does not bound it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransferError
from repro.transfer import RetryPolicy

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=12),
    base_delay_s=st.floats(min_value=0.01, max_value=10.0),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    max_delay_s=st.floats(min_value=10.0, max_value=600.0),
)


class TestBackoffBounded:
    @settings(max_examples=50, deadline=None)
    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**31))
    def test_delay_never_exceeds_ceiling(self, policy, seed):
        rng = np.random.default_rng(seed)
        prev = None
        for attempt in range(policy.max_attempts):
            delay = policy.backoff(attempt, rng, prev)
            assert 0.0 <= delay <= policy.max_delay_s
            prev = delay

    @settings(max_examples=50, deadline=None)
    @given(policy=policies)
    def test_cap_is_monotone_in_attempt(self, policy):
        caps = [policy.backoff_cap(a) for a in range(16)]
        assert caps == sorted(caps)
        assert all(c <= policy.max_delay_s for c in caps)

    @settings(max_examples=30, deadline=None)
    @given(policy=policies, attempt=st.integers(min_value=0, max_value=10))
    def test_no_rng_means_deterministic_cap(self, policy, attempt):
        # Without an rng the policy degrades to pure exponential backoff.
        assert policy.backoff(attempt, None) == policy.backoff_cap(attempt)


    @settings(max_examples=50, deadline=None)
    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**31))
    def test_jittered_delay_lies_between_base_and_ceiling(self, policy, seed):
        # Whatever the attempt: the exponential cap does not bound it.
        rng = np.random.default_rng(seed)
        prev = None
        for attempt in range(policy.max_attempts):
            delay = policy.backoff(attempt, rng, prev)
            assert policy.base_delay_s <= delay <= policy.max_delay_s
            prev = delay

    def test_jitter_can_exceed_the_cap(self):
        policy = RetryPolicy()
        first = policy.backoff(0, np.random.default_rng(0))
        assert first == pytest.approx(1.137, abs=5e-4)
        assert first > policy.backoff_cap(0) == 0.5


class TestBackoffDeterministic:
    @settings(max_examples=25, deadline=None)
    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**31))
    def test_same_seed_same_sequence(self, policy, seed):
        def sequence():
            rng = np.random.default_rng(seed)
            prev = None
            out = []
            for attempt in range(policy.max_attempts):
                prev = policy.backoff(attempt, rng, prev)
                out.append(prev)
            return out

        assert sequence() == sequence()

    def test_different_seeds_differ(self):
        policy = RetryPolicy(max_attempts=8)

        def sequence(seed):
            rng = np.random.default_rng(seed)
            prev = None
            out = []
            for attempt in range(policy.max_attempts):
                prev = policy.backoff(attempt, rng, prev)
                out.append(prev)
            return out

        assert sequence(1) != sequence(2)


class TestDecorrelatedJitter:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        prev=st.floats(min_value=0.5, max_value=100.0),
    )
    def test_jitter_window(self, seed, prev):
        # AWS decorrelated jitter: uniform in [base, prev * 3], clamped.
        policy = RetryPolicy(base_delay_s=0.5, max_delay_s=30.0)
        rng = np.random.default_rng(seed)
        delay = policy.backoff(3, rng, prev_delay_s=prev)
        assert policy.base_delay_s <= delay or delay == policy.max_delay_s
        assert delay <= min(policy.max_delay_s, max(policy.base_delay_s, prev * 3))


class TestValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(TransferError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(TransferError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(TransferError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(TransferError):
            RetryPolicy(max_delay_s=0.0)
