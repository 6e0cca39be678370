"""Seeded, deterministic retry-with-backoff for recovery paths.

Mount-time page reads and the background rebuild both retry transient
read failures.  Historically each call site carried its own bounded
loop, so the *mount pipeline as a whole* could retry far more times
than any single knob suggested.  :class:`RetryBudget` fixes that: one
budget object is threaded through every phase of a recovery and every
retry, anywhere, draws from the same bounded pool.  Exhaustion raises
the typed :class:`~repro.common.errors.RecoveryExhaustedError`.

Backoff is *modeled* time (microseconds charged to the caller's
report), never a real sleep, and linear — a recovery replays
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import RecoveryExhaustedError, TransientIOError

__all__ = ["RetryBudget", "retry_with_backoff"]


@dataclass
class RetryBudget:
    """A bounded pool of retries shared across recovery phases."""

    limit: int
    used: int = 0

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)

    def consume(self, where: str = "") -> None:
        """Spend one retry; raises when the pool is dry."""
        if self.used >= self.limit:
            site = f" at {where}" if where else ""
            raise RecoveryExhaustedError(
                f"recovery retry budget exhausted{site} "
                f"({self.used}/{self.limit} retries used)"
            )
        self.used += 1


def retry_with_backoff(
    fn: Callable[[], Any],
    *,
    budget: RetryBudget,
    base_backoff_us: float = 1000.0,
    where: str = "",
) -> tuple[Any, int, float]:
    """Call ``fn`` until it stops raising :class:`TransientIOError`.

    Each retry consumes one unit from ``budget`` (shared with every
    other phase holding the same object) and accrues linear backoff:
    attempt ``k`` charges ``base_backoff_us * k``.  Non-transient
    errors (:class:`~repro.common.errors.MediaError` included)
    propagate immediately.

    Returns ``(result, retries, backoff_us)``.  Raises
    :class:`~repro.common.errors.RecoveryExhaustedError` (chained from
    the last transient failure) when the budget runs out.
    """
    retries = 0
    backoff_us = 0.0
    while True:
        try:
            return fn(), retries, backoff_us
        except TransientIOError as exc:
            if isinstance(exc, RecoveryExhaustedError):
                raise
            try:
                budget.consume(where)
            except RecoveryExhaustedError as dry:
                raise dry from exc
            retries += 1
            backoff_us += base_backoff_us * retries
