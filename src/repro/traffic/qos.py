"""Per-tenant QoS: an IOPS token bucket and admission limits.

A QoS-limited tenant's operations pass through one IOPS token bucket
(one token per op) before they can ride a consistency point.  The
bucket refills continuously at its configured rate up to a burst
ceiling, so admission times are a pure function of arrival times — no
sampling, no timers, fully deterministic.

A bounded admission queue turns throttling into *bounded* latency: an
arrival that would leave more than ``queue_depth`` operations waiting
for admission is rejected instead of queued, so an admitted op waits at
most ``queue_depth / admission_rate`` seconds.  This is the standard
QoS trade — shed load to protect the latency of what you accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TokenBucket", "QosLimits"]


class TokenBucket:
    """Continuous-refill token bucket over simulated microseconds.

    The bucket starts full (``burst`` tokens at t=0) and refills at
    ``rate_per_s`` tokens per simulated second, capped at ``burst``.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        for name, value in (("rate_per_s", rate_per_s), ("burst", burst)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_us = 0.0

    def _level_at(self, t_us: float) -> float:
        elapsed_s = max(t_us - self._last_us, 0.0) / 1e6
        return min(self.burst, self._tokens + elapsed_s * self.rate_per_s)

    def ready_time_us(self, t_us: float) -> float:
        """Earliest time >= ``t_us`` at which one token is available."""
        level = self._level_at(t_us)
        if level >= 1.0:
            return t_us
        return t_us + (1.0 - level) / self.rate_per_s * 1e6

    def take(self, t_us: float) -> None:
        """Consume one token at ``t_us`` (the caller must have waited
        until :meth:`ready_time_us`)."""
        self._tokens = self._level_at(t_us) - 1.0
        self._last_us = t_us


@dataclass(frozen=True)
class QosLimits:
    """Per-tenant admission limits.

    Parameters
    ----------
    iops:
        Sustained operations per second admitted.
    iops_burst:
        Bucket depth for the IOPS limit (ops admitted back-to-back).
    """

    iops: float
    iops_burst: float = 64.0

    def __post_init__(self) -> None:
        for field in ("iops", "iops_burst"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field} must be positive and finite")

    def make_bucket(self) -> TokenBucket:
        """Instantiate this tenant's IOPS bucket."""
        return TokenBucket(self.iops, self.iops_burst)
