"""Tenant arrival processes for the discrete-event traffic engine.

An arrival process is an iterator over operation arrival timestamps in
simulated microseconds.  Two shapes cover the scenarios the engine
ships: memoryless Poisson clients (the open-loop load the paper's
latency-throughput sweeps assume) and bursty on/off clients (the
noisy-neighbor pattern, where a tenant alternates quiet periods with
bursts far above its mean rate).

Every process draws from a seeded :class:`numpy.random.Generator`, so a
traffic run is bit-for-bit reproducible from its scenario seed.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ..common.rng import make_rng

__all__ = ["ArrivalProcess", "PoissonArrivals", "OnOffArrivals"]


class ArrivalProcess(abc.ABC):
    """Generates successive arrival times (simulated microseconds)."""

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self.rng = make_rng(seed)

    @abc.abstractmethod
    def next_after(self, t_us: float) -> float:
        """The next arrival time strictly after ``t_us``."""

    def window(self, first_us: float, until_us: float) -> tuple[np.ndarray, float]:
        """``(arrivals, next)``: the already-drawn arrival ``first_us``
        plus every subsequent arrival before ``until_us``, and the first
        arrival at or past it.

        The base implementation iterates :meth:`next_after`, so it
        consumes the generator exactly as drawing arrival by arrival
        does; subclasses may batch the draws as long as the produced
        times are bit-identical (the op-at-a-time oracle in
        ``tests/traffic/oracle.py`` draws through ``next_after``, and
        the identity tests rest on that).
        """
        if first_us >= until_us:
            return np.empty(0, dtype=np.float64), first_us
        out = []
        t = first_us
        while t < until_us:
            out.append(t)
            t = self.next_after(t)
        return np.asarray(out, dtype=np.float64), t

    @property
    @abc.abstractmethod
    def mean_rate_ops_s(self) -> float:
        """Long-run mean arrival rate (ops/s) — the tenant's offered
        load, used to derive CP intervals and report offered columns."""


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed mean rate (exponential gaps)."""

    def __init__(
        self, rate_ops_s: float, *, seed: int | np.random.Generator | None = None
    ) -> None:
        super().__init__(seed)
        if not (math.isfinite(rate_ops_s) and rate_ops_s > 0):
            raise ValueError("rate_ops_s must be positive and finite")
        self.rate_ops_s = float(rate_ops_s)
        self._mean_gap_us = 1e6 / self.rate_ops_s
        # Pre-drawn arrival times not yet handed out.  Batch draws pull
        # the same value stream from the generator as repeated scalar
        # draws (numpy fills element-wise from the same sampler), and
        # ``np.add.accumulate`` reproduces the scalar left-to-right
        # addition chain, so buffered times are bit-identical to what
        # ``next_after`` would have returned call by call.
        self._buf: np.ndarray | None = None
        self._pos = 0

    def _refill(self, last_us: float, n: int) -> None:
        draws = self.rng.exponential(self._mean_gap_us, size=n)
        self._buf = np.add.accumulate(np.concatenate(([last_us], draws)))[1:]
        self._pos = 0

    def next_after(self, t_us: float) -> float:
        if self._buf is not None:
            v = float(self._buf[self._pos])
            self._pos += 1
            if self._pos == self._buf.size:
                self._buf = None
            return v
        return t_us + self.rng.exponential(self._mean_gap_us)

    def window(self, first_us: float, until_us: float) -> tuple[np.ndarray, float]:
        if first_us >= until_us:
            return np.empty(0, dtype=np.float64), first_us
        chunks = [np.array([first_us])]
        last = first_us
        while True:
            if self._buf is None:
                est = int((until_us - last) / self._mean_gap_us * 1.1) + 16
                self._refill(last, min(est, 65_536))
            buf = self._buf[self._pos:]
            cut = int(np.searchsorted(buf, until_us, side="left"))
            if cut < buf.size:
                chunks.append(buf[:cut])
                nxt = float(buf[cut])
                self._pos += cut + 1
                if self._pos == self._buf.size:
                    self._buf = None
                return np.concatenate(chunks), nxt
            chunks.append(buf)
            if buf.size:
                last = float(buf[-1])
            self._buf = None

    @property
    def mean_rate_ops_s(self) -> float:
        return self.rate_ops_s


class OnOffArrivals(ArrivalProcess):
    """Bursty on/off modulated Poisson arrivals.

    The tenant alternates exponentially distributed ON periods (Poisson
    arrivals at ``on_rate_ops_s``) with silent OFF periods.  The
    long-run mean rate is the duty-cycle weighted average; the *burst*
    rate is what a shared backend has to absorb, which is why on/off
    tenants make good noisy neighbors.
    """

    #: Standard exponentials drawn per buffer refill.
    _BLOCK = 4096

    def __init__(
        self,
        on_rate_ops_s: float,
        *,
        mean_on_us: float = 2_000_000.0,
        mean_off_us: float = 2_000_000.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(seed)
        for name, value in (
            ("on_rate_ops_s", on_rate_ops_s),
            ("mean_on_us", mean_on_us),
            ("mean_off_us", mean_off_us),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        self.on_rate_ops_s = float(on_rate_ops_s)
        self.mean_on_us = float(mean_on_us)
        self.mean_off_us = float(mean_off_us)
        # Every draw, phase length or gap, is the next value of one block-drawn
        # buffer of standard exponentials, scaled where it is consumed: NumPy's
        # ``exponential(s)`` is ``s * standard_exponential()`` and a block fill runs
        # the same sampler per element, so the stream is bit-identical to scalar draws.
        self._exp = np.empty(0, dtype=np.float64)
        self._pos = 0
        # Phase bookkeeping: the process starts ON at t=0.
        self._on = True
        self._phase_end_us = self._draw(self.mean_on_us)

    def _ahead(self, n: int) -> np.ndarray:
        """A view of the next 1..n buffered draws; the caller advances ``_pos``."""
        if self._pos == self._exp.size:
            self._exp = self.rng.standard_exponential(self._BLOCK)
            self._pos = 0
        return self._exp[self._pos : self._pos + n]

    def _draw(self, scale_us: float) -> float:
        e = float(self._ahead(1)[0])
        self._pos += 1
        return scale_us * e

    def _advance_phase(self, t_us: float) -> float:
        """Flip phases until ``t_us`` is inside an ON phase: ``t_us``
        moved past any silent OFF phases."""
        while True:
            while t_us >= self._phase_end_us:
                self._on = not self._on
                mean = self.mean_on_us if self._on else self.mean_off_us
                self._phase_end_us += self._draw(mean)
            if self._on:
                return t_us
            t_us = self._phase_end_us

    def next_after(self, t_us: float) -> float:
        t = t_us
        while True:
            t = self._advance_phase(t)
            candidate = t + self._draw(1e6 / self.on_rate_ops_s)
            if candidate < self._phase_end_us:
                return candidate
            # The gap straddles a phase boundary: restart the draw from
            # the boundary (memorylessness makes this exact for the
            # exponential gap distribution).
            t = self._phase_end_us

    def window(self, first_us: float, until_us: float) -> tuple[np.ndarray, float]:
        # ``next_after`` a phase at a time (``np.add.accumulate`` is its scalar
        # addition chain, as in ``PoissonArrivals.window``): cut at the phase end
        # first — the straddling gap is consumed and discarded — then the window's.
        if first_us >= until_us:
            return np.empty(0, dtype=np.float64), first_us
        chunks = [np.array([first_us])]
        t = first_us
        while True:
            t = self._advance_phase(t)
            gap_us = 1e6 / self.on_rate_ops_s
            span_us = max(min(self._phase_end_us, until_us) - t, 0.0)
            gaps = self._ahead(int(span_us / gap_us * 1.1) + 16) * gap_us
            times = np.add.accumulate(np.concatenate(([t], gaps)))[1:]
            end = int(np.searchsorted(times, self._phase_end_us, side="left"))
            cut = int(np.searchsorted(times[:end], until_us, side="left"))
            chunks.append(times[:cut])
            if cut < end:
                self._pos += cut + 1
                return np.concatenate(chunks), float(times[cut])
            if end < times.size:
                self._pos += end + 1
                t = self._phase_end_us
            else:  # out of drawn gaps inside the phase: go on from the last
                self._pos += end
                t = float(times[-1])

    @property
    def mean_rate_ops_s(self) -> float:
        on_share = self.mean_on_us / (self.mean_on_us + self.mean_off_us)
        return self.on_rate_ops_s * on_share
