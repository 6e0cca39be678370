"""``TrafficEngine._drain`` against ``OracleEngine._serve_until`` on
hand-built backend queues — no simulator, no CP, no arrival process.

The identity suites reach the drain only through whole scenarios, whose
floats almost never coincide.  Here the queues sit on a small dyadic
grid, so the coincidences the SFQ pick has to get right are the common
case: admits equal to ``until_us`` and to another tenant's serve time,
zero occupancies (equal tags — the lowest index must win), several CPs
of backlog with different occupancies, idle gaps.  After every call the
server clock, the virtual time, every tenant's tag and backlog, and the
raw completion/latency arrays are compared exactly.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import PoissonArrivals, TenantSpec, TrafficEngine
from repro.traffic.engine import DRAIN_BLOCK_OPS
from repro.workloads import UniformOverwriteMix

from .oracle import OracleEngine, complete_array, latency_array

#: One tenant's riders in one CP: the gaps between successive admits.
Gaps = list[float]
#: One CP: per-tenant gaps, the CP's (s_occ, s_lat), and how far past
#: the previous ``until_us`` the drain that follows it may serve.
Round = tuple[list[Gaps], float, float, float]


def _engines(n_tenants: int) -> tuple[OracleEngine, TrafficEngine]:
    sim = SimpleNamespace(vols={f"v{i}": None for i in range(n_tenants)})
    tenants = [
        TenantSpec(
            name=f"t{i}",
            volume=f"v{i}",
            arrivals=PoissonArrivals(100, seed=i),
            mix=UniformOverwriteMix(1_000, seed=i),
        )
        for i in range(n_tenants)
    ]
    return (
        OracleEngine(sim, tenants, cp_interval_us=1.0),
        TrafficEngine(sim, tenants, cp_interval_us=1.0),
    )


def _drain_both(oracle, engine, rounds: list[Round]) -> None:
    """Queue each round's riders on both engines, drain both to the
    round's ``until_us`` and compare everything the drain writes."""
    tails = [0.0] * len(engine.states)
    until = 0.0
    for cp, (gaps_by_tenant, s_occ, s_lat, advance) in enumerate(rounds):
        for k, gaps in enumerate(gaps_by_tenant):
            if not gaps:
                continue
            admits = np.add.accumulate(np.asarray([tails[k], *gaps]))[1:]
            tails[k] = float(admits[-1])
            arrivals = admits - 0.25
            engine.states[k].backend_chunks.append((arrivals, admits, s_occ, s_lat))
            oracle.states[k].backend.extend(
                (a, b, s_occ, s_lat) for a, b in zip(arrivals.tolist(), admits.tolist())
            )
        until += advance
        oracle._serve_until(until)
        engine._drain(until)
        assert oracle._server_free_us == engine._server_free_us, cp
        assert oracle._vtime == engine._vtime, cp
        for ref, got in zip(oracle.states, engine.states):
            assert ref.vfinish == got.vfinish, (cp, got.spec.name)
            assert ref.backend_pending() == got.backend_pending(), (cp, got.spec.name)
            assert got.q_head + got.backend_pending() == got.q_admit.size
            for view in (complete_array, latency_array):
                assert np.array_equal(view(ref), view(got)), (
                    cp, got.spec.name, view.__name__,
                )


# Dyadic values: every sum below is exact, so serve times land on
# admits and on ``until_us`` instead of a few ulps beside them.
_GAPS = st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 40.0]), max_size=12)
_OCC = st.sampled_from([0.0, 0.5, 1.0, 3.0])


@st.composite
def _rounds(draw) -> list[Round]:
    n_tenants = draw(st.integers(1, 5))
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(_GAPS, min_size=n_tenants, max_size=n_tenants),
                _OCC,
                st.sampled_from([0.5, 1.0, 4.0]),
                st.sampled_from([0.0, 1.0, 2.5, 8.0, 64.0]),
            ),
            min_size=2,
            max_size=5,
        )
    )
    # One last call far past every admit: nothing may be left behind.
    return [*rounds, ([[] for _ in range(n_tenants)], 1.0, 1.0, 1e6)]


# Derandomised in tier-1 by the root conftest's profile; random on CI.
@settings(max_examples=150)
@given(_rounds())
def test_drain_matches_the_oracle_on_hand_built_queues(rounds):
    oracle, engine = _engines(len(rounds[0][0]))
    _drain_both(oracle, engine, rounds)
    assert all(got.backend_pending() == 0 for got in engine.states)


def test_window_refill_boundaries_match_the_oracle():
    """An aggressor backlog of several blocks inside ONE call, with the
    victims' admits placed on the block seams: a run that ends exactly
    at a block end while a victim becomes eligible at that instant, and
    contested picks that consume the last op of a block."""
    block = float(DRAIN_BLOCK_OPS)
    oracle, engine = _engines(3)
    # t0: every op admitted at 0.0, one time unit each, so alone its
    # op j starts at t = j.
    aggressor = [0.0] * (4 * DRAIN_BLOCK_OPS + 7)
    # t1 turns eligible exactly when t0's first block runs out ...
    seam = [block]
    # ... and t2 interleaves with t0 across the second block's end.
    straddle = [2 * block - 4.0] + [0.0] * 7
    rounds = [([aggressor, seam, straddle], 1.0, 2.0, 3 * block + 100.0)]
    _drain_both(oracle, engine, rounds)
    served = [complete_array(st).size for st in engine.states]
    assert served[0] > 2 * DRAIN_BLOCK_OPS and served[1:] == [1, 8]
    assert engine.states[0].backend_pending() > 0
    # The second call starts mid-backlog and drains it.
    _drain_both(oracle, engine, [([[], [], []], 1.0, 2.0, 1e6)])
    assert engine.states[0].backend_pending() == 0


def _starts(engine) -> list[list[float]]:
    """Every tenant's serve start times so far: completion minus the
    ``s_lat`` of 2.0 every hand-built round below uses."""
    return [(complete_array(st) - 2.0).tolist() for st in engine.states]


def test_idle_server_tie_rescans_the_heads():
    """Heads admitted at the same instant onto an idle server: the pick
    is the SFQ tag, not the lowest index — t0, served before, carries
    the larger tag, so t1 goes first; t1 and t2 tie on tags as well,
    and the lower index wins."""
    oracle, engine = _engines(3)
    rounds = [([[1.0, 3.0], [4.0], [4.0]], 1.0, 2.0, 16.0)]
    _drain_both(oracle, engine, rounds)
    assert _starts(engine) == [[1.0, 6.0], [4.0], [5.0]]


def test_idle_start_run_stops_exactly_at_the_runner_up_admit():
    """A strictly earliest head starts at its admit and keeps the server
    until ``t == bound``, the second head's admit: there t1's smaller
    tag takes the server from t0's backlog."""
    oracle, engine = _engines(2)
    rounds = [([[2.0, 0.0, 0.0], [4.0]], 1.0, 2.0, 16.0)]
    _drain_both(oracle, engine, rounds)
    assert _starts(engine) == [[2.0, 3.0, 5.0], [4.0]]


def test_idle_server_with_every_window_exhausted_mid_call():
    """Every queued op served well before ``until_us``: the server clock
    stays at the last finish, not at ``until_us``, and the next call
    starts a lone head (bounded by ``until_us`` alone) at its admit."""
    oracle, engine = _engines(3)
    _drain_both(oracle, engine, [([[1.0], [5.0], []], 1.0, 2.0, 10.0)])
    assert engine._server_free_us == 6.0
    assert all(st.backend_pending() == 0 for st in engine.states)
    # A fresh call: t2's admits are absolute and ``until_us`` is 20.
    _drain_both(oracle, engine, [([[], [], [12.0, 0.0]], 1.0, 2.0, 20.0)])
    assert _starts(engine) == [[1.0], [5.0], [12.0, 13.0]]
    assert engine._server_free_us == 14.0
