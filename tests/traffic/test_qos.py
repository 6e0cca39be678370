"""Unit tests for the QoS token bucket and per-tenant admission limits."""

from __future__ import annotations

import pytest

from repro.traffic import QosLimits, TokenBucket


def _drain(b: TokenBucket, t_us: float, n: int) -> None:
    for _ in range(n):
        assert b.ready_time_us(t_us) == t_us
        b.take(t_us)


class TestTokenBucket:
    def test_starts_full(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        _drain(b, 0.0, 10)

    def test_drained_bucket_waits_for_refill(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        _drain(b, 0.0, 10)
        # 1 token at 1000/s = 1ms.
        assert b.ready_time_us(0.0) == pytest.approx(1_000.0)

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        _drain(b, 0.0, 10)
        # After 1 simulated minute the bucket holds burst, not 60k.
        _drain(b, 60_000_000.0, 10)
        assert b.ready_time_us(60_000_000.0) > 60_000_000.0

    def test_take_tracks_partial_refill(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        _drain(b, 0.0, 10)
        _drain(b, 5_000.0, 5)  # 5 refilled by then, all consumed
        assert b.ready_time_us(5_000.0) == pytest.approx(6_000.0)

    def test_sustained_rate_is_enforced(self):
        b = TokenBucket(rate_per_s=10_000, burst=4)
        t = 0.0
        for _ in range(1_000):
            t = b.ready_time_us(t)
            b.take(t)
        # 1000 ops after the 4-op burst: >= 996 refill periods of 100us.
        assert t >= 996 * 100.0

    def test_validation(self):
        for rate, burst in ((0.0, 10), (100, 0.0), (float("nan"), 10),
                            (float("inf"), 10), (100, float("nan"))):
            with pytest.raises(ValueError):
                TokenBucket(rate, burst)


class TestQosLimits:
    def test_iops_is_required(self):
        with pytest.raises(TypeError):
            QosLimits()

    def test_iops_bucket(self):
        bucket = QosLimits(iops=500, iops_burst=8).make_bucket()
        assert bucket.rate_per_s == 500
        assert bucket.burst == 8

    def test_buckets_are_fresh_per_call(self):
        limits = QosLimits(iops=100, iops_burst=4)
        _drain(limits.make_bucket(), 0.0, 4)
        _drain(limits.make_bucket(), 0.0, 4)
