"""Per-tenant QoS: token buckets and admission limits.

A tenant's operations pass through up to two token buckets before they
can ride a consistency point: an IOPS bucket (one token per op) and a
dirty-block bucket (``blocks_per_op`` tokens per op).  Buckets refill
continuously at their configured rate up to a burst ceiling, so
admission times are a pure function of arrival times — no sampling, no
timers, fully deterministic.

A bounded admission queue turns throttling into *bounded* latency: an
arrival that would leave more than ``queue_depth`` operations waiting
for admission is rejected instead of queued, so an admitted op waits at
most ``queue_depth / admission_rate`` seconds.  This is the standard
QoS trade — shed load to protect the latency of what you accept.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TokenBucket", "QosLimits"]


class TokenBucket:
    """Continuous-refill token bucket over simulated microseconds.

    The bucket starts full (``burst`` tokens at t=0) and refills at
    ``rate_per_s`` tokens per simulated second, capped at ``burst``.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_us = 0.0

    def _level_at(self, t_us: float) -> float:
        elapsed_s = max(t_us - self._last_us, 0.0) / 1e6
        return min(self.burst, self._tokens + elapsed_s * self.rate_per_s)

    def ready_time_us(self, t_us: float, n: float = 1.0) -> float:
        """Earliest time >= ``t_us`` at which ``n`` tokens are available.

        ``n`` may exceed the burst ceiling; the shortfall is served at
        the refill rate (the op waits for tokens to accumulate past the
        cap conceptually — modeled as a linear delay).
        """
        level = self._level_at(t_us)
        if level >= n:
            return t_us
        return t_us + (n - level) / self.rate_per_s * 1e6

    def take(self, t_us: float, n: float = 1.0) -> None:
        """Consume ``n`` tokens at ``t_us`` (caller must have waited
        until :meth:`ready_time_us`; the level may go slightly negative
        for bursts above the ceiling, which models the linear drain)."""
        self._tokens = self._level_at(t_us) - n
        self._last_us = t_us


@dataclass(frozen=True)
class QosLimits:
    """Per-tenant admission limits (``None`` disables a dimension).

    Parameters
    ----------
    iops:
        Sustained operations per second admitted.
    iops_burst:
        Bucket depth for the IOPS limit (ops admitted back-to-back).
    dirty_blocks_per_s:
        Sustained dirty-block budget (4 KiB blocks per second) — the
        write-bandwidth analogue of the IOPS cap.
    dirty_burst_blocks:
        Bucket depth for the dirty-block budget.
    """

    iops: float | None = None
    iops_burst: float = 64.0
    dirty_blocks_per_s: float | None = None
    dirty_burst_blocks: float = 256.0

    def __post_init__(self) -> None:
        for field in ("iops", "iops_burst", "dirty_blocks_per_s", "dirty_burst_blocks"):
            value = getattr(self, field)
            if value is not None and value <= 0:
                raise ValueError(f"{field} must be positive")

    def make_buckets(self) -> list[tuple[TokenBucket, str]]:
        """Instantiate the configured buckets, tagged by dimension
        (``"ops"`` charges 1 token per op, ``"blocks"`` charges
        ``blocks_per_op`` tokens per op)."""
        buckets: list[tuple[TokenBucket, str]] = []
        if self.iops is not None:
            buckets.append((TokenBucket(self.iops, self.iops_burst), "ops"))
        if self.dirty_blocks_per_s is not None:
            buckets.append(
                (TokenBucket(self.dirty_blocks_per_s, self.dirty_burst_blocks), "blocks")
            )
        return buckets
