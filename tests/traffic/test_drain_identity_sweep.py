"""Engine↔oracle identity of admission and the backend drain across load.

``test_vectorized_identity`` runs the three canned scenarios, all of
them multi-tenant and contended.  The drain's single-pending pass is
mostly exercised elsewhere: one tenant, or several lightly loaded ones
whose queues empty between bursts.  This sweep runs 1 and 3 tenants
from nearly idle to overloaded, with smooth, bursty (bounded queue, no
bucket) and QoS-throttled arrivals, and compares the engine with the op-at-a-time oracle
(:mod:`tests.traffic.oracle`) after *every* CP interval — server clock,
SFQ tags, admission state, the per-op completion and latency arrays
exactly and in order, and the arrival and rejection counts at every CP
edge.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import WaflSim
from repro.traffic import (
    OnOffArrivals,
    PoissonArrivals,
    QosLimits,
    TenantSpec,
    TrafficEngine,
)
from repro.traffic.scenarios import calibrate_capacity
from repro.workloads import UniformOverwriteMix

from .oracle import OracleEngine, complete_array, latency_array

CP_INTERVAL_US = 20_000.0
UTILISATIONS = (0.05, 0.3, 0.7, 1.0, 1.3)
#: Uneven shares so one tenant's queue regularly outlasts the others'
#: (the interleave → single-pending hand-over).
SHARES = {1: (1.0,), 3: (0.5, 0.3, 0.2)}
BLOCKS_PER_OP = 2


def _sim(n_tenants: int) -> WaflSim:
    phys = 3 * 32768
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="ssd", media="ssd", n_groups=1, ndata=3,
                     blocks_per_disk=32768, stripes_per_aa=2048),
        ),
        volumes=tuple(
            VolumeDecl(f"vol{i}", logical_blocks=phys // (3 * n_tenants))
            for i in range(n_tenants)
        ),
    )
    return WaflSim.build(spec, seed=7)


@functools.cache
def _capacity(n_tenants: int) -> float:
    return calibrate_capacity(_sim(n_tenants), n_cps=3, ops_per_cp=1024).capacity_ops


def _engine(n_tenants: int, util: float, profile: str, engine_cls):
    sim = _sim(n_tenants)
    capacity = _capacity(n_tenants)
    tenants = []
    for i, share in enumerate(SHARES[n_tenants]):
        rate = util * capacity * share
        qos = None
        queue_depth = None
        if profile == "throttled":
            # An IOPS bucket and the bounded queue, sized against the
            # tenant's fair share: the bucket binds once load is
            # sustained, and the queue overflows once offered load
            # passes the budget.
            fair = capacity * share
            qos = QosLimits(iops=0.8 * fair, iops_burst=16.0)
            queue_depth = 24
        if profile == "victim":
            # The cluster's victim (ShardRuntime._tenant_specs on a
            # noisy_fleet_requests victim): short hard bursts at the ON
            # rate, ~8% duty cycle, and a bounded queue without a bucket.
            arrivals = OnOffArrivals(
                rate, mean_on_us=100_000.0, mean_off_us=1_100_000.0, seed=100 + i
            )
            queue_depth = 64
        else:
            arrivals = PoissonArrivals(rate, seed=100 + i)
        tenants.append(
            TenantSpec(
                name=f"t{i}",
                volume=f"vol{i}",
                arrivals=arrivals,
                mix=UniformOverwriteMix(
                    sim.vols[f"vol{i}"].spec.logical_blocks,
                    blocks_per_op=BLOCKS_PER_OP,
                    seed=200 + i,
                ),
                qos=qos,
                queue_depth=queue_depth,
            )
        )
    return engine_cls(sim, tenants, cp_interval_us=CP_INTERVAL_US)


def _inject_carryover(engine: TrafficEngine, n: int) -> None:
    """Already-admitted riders at the epoch origin, the way
    ``ShardRuntime.run_epoch`` re-injects carried operations (and the
    oracle's equivalent per-op form)."""
    if isinstance(engine, OracleEngine):
        st = engine.states[0]
        st.arrivals_us.extend([0.0] * n)
        st.deferred.extend([(0.0, 0.0)] * n)
        st.admitted += n
    else:
        engine.replay({engine.tenants[0].name: n})


def _deferred_admits(st) -> list[float]:
    """Admission times of the ops admitted past the window just closed
    (only a token bucket can push an admit past its arrival)."""
    if hasattr(st, "deferred"):
        return [admit for _, admit in st.deferred]
    return [a for _, adm in st.deferred_arrays for a in adm.tolist()]


def _assert_identical_after_every_step(scalar, batched, n_cps: int) -> int:
    """Returns how many bucket-delayed admits were compared."""
    delayed = 0
    for cp in range(n_cps):
        scalar.step()
        batched.step()
        assert scalar._vtime == batched._vtime, cp
        assert scalar._server_free_us == batched._server_free_us, cp
        for ref, st in zip(scalar.states, batched.states):
            assert ref.vfinish == st.vfinish, (cp, st.spec.name)
            assert ref.admitted == st.admitted, (cp, st.spec.name)
            assert ref.admit_tail_us == st.admit_tail_us, (cp, st.spec.name)
            held = _deferred_admits(st)
            assert _deferred_admits(ref) == held, (cp, st.spec.name)
            delayed += len(held)
            assert ref.backend_pending() == st.backend_pending(), (cp, st.spec.name)
            if st.bucket is None:
                # Admitted at arrival, whatever the queue bound: the
                # per-op admission loop never ran for this tenant.
                assert not st.pending_admits, (cp, st.spec.name)
            for view in (complete_array, latency_array):
                assert np.array_equal(view(ref), view(st)), (
                    cp, st.spec.name, view.__name__,
                )
            edges = np.arange(0.0, batched.clock_us + CP_INTERVAL_US / 2, CP_INTERVAL_US)
            for counted in ("arrivals", "rejected"):
                assert np.array_equal(
                    getattr(ref, f"{counted}_through")(edges),
                    getattr(st, f"{counted}_through")(edges),
                ), (cp, st.spec.name, counted)
            assert ref.arrived_count() == st.arrived_count(), (cp, st.spec.name)
            assert ref.rejected_count() == st.rejected_count(), (cp, st.spec.name)
    assert json.dumps(scalar.summary().as_dict(), sort_keys=True) == json.dumps(
        batched.summary().as_dict(), sort_keys=True
    )
    return delayed


@pytest.mark.parametrize("profile", ["poisson", "victim", "throttled"])
@pytest.mark.parametrize("util", UTILISATIONS)
@pytest.mark.parametrize("n_tenants", [1, 3])
def test_identity_across_load(n_tenants, util, profile):
    # The victim's horizon has to outlast a whole off period.
    n_cps = 70 if profile == "victim" else 12
    scalar = _engine(n_tenants, util, profile, OracleEngine)
    batched = _engine(n_tenants, util, profile, TrafficEngine)
    delayed = _assert_identical_after_every_step(scalar, batched, n_cps)
    served = sum(complete_array(st).size for st in batched.states)
    assert served > 0
    if profile == "throttled":
        # The QoS recurrence really ran: admits held past their window
        # by a token bucket once offered load reaches the sustained
        # budget, queue-depth rejections once it is overloaded.
        if util >= 1.0:
            assert delayed > 0
        if util >= 1.3:
            assert all(st.rejected_count() > 0 for st in batched.states)
    else:
        assert delayed == 0
    if profile == "poisson":
        # The sweep really spans both regimes: the queue empties every
        # interval when nearly idle and a backlog stands when overloaded.
        pending = sum(st.backend_pending() for st in batched.states)
        if util <= 0.05:
            assert pending == 0
        if util >= 1.3:
            assert pending > 0


def test_identity_with_carryover_riders():
    scalar = _engine(3, 0.7, "poisson", OracleEngine)
    batched = _engine(3, 0.7, "poisson", TrafficEngine)
    for engine in (scalar, batched):
        _inject_carryover(engine, 600)
    _assert_identical_after_every_step(scalar, batched, 12)
