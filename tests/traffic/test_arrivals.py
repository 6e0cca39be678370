"""Unit tests for tenant arrival processes: rates, monotonicity,
determinism, and parameter validation."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.traffic import OnOffArrivals, PoissonArrivals


def drain(proc, horizon_us: float) -> list[float]:
    """All arrivals in [0, horizon_us)."""
    times = []
    t = proc.next_after(0.0)
    while t < horizon_us:
        times.append(t)
        t = proc.next_after(t)
    return times


class TestPoisson:
    def test_arrivals_strictly_increase(self):
        p = PoissonArrivals(10_000, seed=1)
        t = 0.0
        for _ in range(1000):
            nxt = p.next_after(t)
            assert nxt > t
            t = nxt

    def test_empirical_rate_matches_mean(self):
        p = PoissonArrivals(50_000, seed=2)
        times = drain(p, 1_000_000.0)  # one simulated second
        assert len(times) == pytest.approx(50_000, rel=0.05)

    def test_mean_rate_property(self):
        assert PoissonArrivals(1234.5, seed=0).mean_rate_ops_s == 1234.5

    def test_same_seed_replays(self):
        a = drain(PoissonArrivals(5_000, seed=9), 200_000.0)
        b = drain(PoissonArrivals(5_000, seed=9), 200_000.0)
        assert a == b

    def test_different_seeds_decorrelate(self):
        a = drain(PoissonArrivals(5_000, seed=9), 200_000.0)
        b = drain(PoissonArrivals(5_000, seed=10), 200_000.0)
        assert a != b

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(-5.0)


class TestOnOff:
    def test_mean_rate_is_duty_cycle_weighted(self):
        p = OnOffArrivals(
            10_000, mean_on_us=100_000.0, mean_off_us=300_000.0, seed=0
        )
        assert p.mean_rate_ops_s == pytest.approx(2_500.0)

    def test_off_phases_are_silent(self):
        p = OnOffArrivals(
            10_000, mean_on_us=100_000.0, mean_off_us=100_000.0, seed=0
        )
        assert p.mean_rate_ops_s == pytest.approx(5_000.0)
        t = 0.0
        for _ in range(2_000):
            t = p.next_after(t)
            assert p._on and t < p._phase_end_us

    def test_empirical_rate_near_mean(self):
        p = OnOffArrivals(
            20_000, mean_on_us=50_000.0, mean_off_us=50_000.0, seed=3
        )
        # Long horizon: many on/off cycles so the duty cycle averages out.
        times = drain(p, 10_000_000.0)
        rate = len(times) / 10.0
        assert rate == pytest.approx(p.mean_rate_ops_s, rel=0.2)

    def test_bursts_exceed_mean_rate(self):
        p = OnOffArrivals(
            20_000, mean_on_us=50_000.0, mean_off_us=50_000.0, seed=3
        )
        gaps = np.diff(np.asarray(drain(p, 2_000_000.0)))
        # ON-phase gaps cluster near 1/on_rate, far below 1/mean_rate.
        assert np.median(gaps) < 0.6 * (1e6 / p.mean_rate_ops_s)

    def test_arrivals_strictly_increase(self):
        p = OnOffArrivals(5_000, mean_on_us=10_000.0, mean_off_us=30_000.0, seed=4)
        t = 0.0
        for _ in range(500):
            nxt = p.next_after(t)
            assert nxt > t
            t = nxt

    def test_same_seed_replays(self):
        mk = lambda: OnOffArrivals(
            8_000, mean_on_us=20_000.0, mean_off_us=20_000.0, seed=11
        )
        assert drain(mk(), 500_000.0) == drain(mk(), 500_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffArrivals(0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                OnOffArrivals(bad)
            with pytest.raises(ValueError):
                OnOffArrivals(100, mean_on_us=bad)
            with pytest.raises(ValueError):
                OnOffArrivals(100, mean_off_us=bad)
        with pytest.raises(ValueError):
            OnOffArrivals(100, mean_on_us=0.0)
        with pytest.raises(ValueError):
            OnOffArrivals(100, mean_off_us=-1.0)


class ScalarOnOff:
    """The on/off process as it was before draws were block-buffered: one
    ``rng.exponential`` per draw, ``window`` by iterating ``next_after``
    (``ArrivalProcess.window``).  The pinned stream: written to be
    obviously right, not fast."""

    def __init__(self, on_rate_ops_s, *, mean_on_us, mean_off_us, seed):
        self.rng = np.random.default_rng(seed)
        self.rates = {True: float(on_rate_ops_s), False: 0.0}
        self.means = {True: float(mean_on_us), False: float(mean_off_us)}
        self.on = True
        self.phase_end = self.rng.exponential(self.means[True])

    def next_after(self, t):
        while True:
            while t >= self.phase_end:
                self.on = not self.on
                self.phase_end += self.rng.exponential(self.means[self.on])
            rate = self.rates[self.on]
            if rate > 0.0:
                candidate = t + self.rng.exponential(1e6 / rate)
                if candidate < self.phase_end:
                    return candidate
            t = self.phase_end

    def window(self, first, until):
        out = []
        while first < until:
            out.append(first)
            first = self.next_after(first)
        return np.asarray(out, dtype=np.float64), first


def _shape(on_rate_ops_s, mean_on_us, mean_off_us, window_us):
    return dict(locals())


#: The fleet's victim shape; many flips per window; one ON phase
#: holding several buffer blocks per window.
ONOFF_SHAPES = [
    _shape(20_000, 100_000.0, 1_100_000.0, 50_000.0),
    _shape(50_000, 500.0, 700.0, 40_000.0),
    _shape(2_000_000, 2_000_000.0, 2_000_000.0, 10_000.0),
]


class TestOnOffPinnedToScalarDraws:
    """``window`` and ``next_after`` share one block-drawn buffer; both
    must hand out, bit for bit, the scalar twin's stream."""

    @staticmethod
    def pair(shape, seed):
        kwargs = {k: v for k, v in shape.items() if k != "window_us"}
        return ScalarOnOff(**kwargs, seed=seed), OnOffArrivals(**kwargs, seed=seed)

    @pytest.mark.parametrize("shape", ONOFF_SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_windows_are_bit_identical(self, shape, seed):
        twin, proc = self.pair(shape, seed)
        a, b = twin.next_after(0.0), proc.next_after(0.0)
        biggest = 0
        for k in range(1, 9):
            until = k * shape["window_us"]
            (xa, a), (xb, b) = twin.window(a, until), proc.window(b, until)
            assert a == b and xa.tolist() == xb.tolist()
            biggest = max(biggest, xa.size)
        if shape["on_rate_ops_s"] == 2_000_000:
            assert biggest > 2 * OnOffArrivals._BLOCK  # one window, several refills

    @pytest.mark.parametrize("shape", ONOFF_SHAPES)
    def test_interleaved_calls_and_window_edges(self, shape):
        twin, proc = self.pair(shape, seed=5)
        rng = np.random.default_rng(5)
        a, b = twin.next_after(0.0), proc.next_after(0.0)
        until = 0.0
        for k in range(40):
            if k % 3 == 0:  # scalar calls draw from the same buffer mid-stream
                a, b = twin.next_after(a), proc.next_after(b)
                assert a == b
            # Steps of 0 leave first_us >= until_us: nothing drawn, nothing returned.
            until += float(rng.choice([0.0, shape["window_us"] / 7, shape["window_us"]]))
            if k % 5 == 4:
                # An arrival landing exactly on until_us is the *next* one:
                # peek the twin's stream on a copy and end the window on it.
                peek = copy.deepcopy(twin)
                t = a
                for _ in range(6):
                    t = peek.next_after(t)
                until = t
            (xa, a), (xb, b) = twin.window(a, until), proc.window(b, until)
            assert a == b and xa.tolist() == xb.tolist()
            if k % 5 == 4:
                assert b == until and xb.size == 6
