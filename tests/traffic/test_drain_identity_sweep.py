"""Scalar↔vectorized identity of the backend drain across load.

``test_vectorized_identity`` runs the three canned scenarios, all of
them multi-tenant and contended.  The drain's single-pending pass is
mostly exercised elsewhere: one tenant, or several lightly loaded ones
whose queues empty between bursts.  This sweep runs 1 and 3 tenants
from nearly idle to overloaded, with smooth and bursty arrivals, and
compares the two pipelines after *every* CP interval — server clock,
SFQ tags and the raw per-op arrays, exactly, in order.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import WaflSim
from repro.traffic import OnOffArrivals, PoissonArrivals, TenantSpec, TrafficEngine
from repro.traffic.scenarios import calibrate_capacity
from repro.workloads import UniformOverwriteMix

CP_INTERVAL_US = 20_000.0
UTILISATIONS = (0.05, 0.3, 0.7, 1.0, 1.3)
#: Uneven shares so one tenant's queue regularly outlasts the others'
#: (the interleave → single-pending hand-over).
SHARES = {1: (1.0,), 3: (0.5, 0.3, 0.2)}


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


def _engine(n_tenants: int, util: float, profile: str, vectorized: bool):
    sim = _sim(n_tenants)
    capacity = _capacity(n_tenants)
    tenants = []
    for i, share in enumerate(SHARES[n_tenants]):
        rate = util * capacity * share
        if profile == "victim":
            # The cluster's victim profile (ShardRuntime._tenant_specs):
            # short hard bursts at the ON rate, ~8% duty cycle.
            arrivals = OnOffArrivals(
                rate, mean_on_us=100_000.0, mean_off_us=1_100_000.0, seed=100 + i
            )
        else:
            arrivals = PoissonArrivals(rate, seed=100 + i)
        tenants.append(
            TenantSpec(
                name=f"t{i}",
                volume=f"vol{i}",
                arrivals=arrivals,
                mix=UniformOverwriteMix(
                    sim.vols[f"vol{i}"].spec.logical_blocks, seed=200 + i
                ),
            )
        )
    return TrafficEngine(
        sim, tenants, cp_interval_us=CP_INTERVAL_US, vectorized=vectorized
    )


def _inject_carryover(engine: TrafficEngine, n: int) -> None:
    """Already-admitted riders at the epoch origin, the way
    ``ShardRuntime.run_epoch`` re-injects carried operations (and the
    scalar pipeline's equivalent per-op form)."""
    st = engine.states[0]
    if engine.vectorized:
        st.arrival_chunks.append(np.zeros(n, dtype=np.float64))
        st.deferred_arrays.append(
            (np.zeros(n, dtype=np.float64), np.zeros(n, dtype=np.float64))
        )
    else:
        st.arrivals_us.extend([0.0] * n)
        st.deferred.extend([(0.0, 0.0)] * n)
    st.admitted += n


def _assert_identical_after_every_step(scalar, batched, n_cps: int) -> None:
    for cp in range(n_cps):
        scalar.step()
        batched.step()
        assert scalar._vtime == batched._vtime, cp
        assert scalar._server_free_us == batched._server_free_us, cp
        for ref, st in zip(scalar.states, batched.states):
            assert ref.vfinish == st.vfinish, (cp, st.spec.name)
            assert ref.admitted == st.admitted, (cp, st.spec.name)
            assert ref.backend_pending() == st.backend_pending(), (cp, st.spec.name)
            for raw in ("arrivals", "rejected", "complete", "latency"):
                assert np.array_equal(
                    getattr(ref, f"{raw}_array")(), getattr(st, f"{raw}_array")()
                ), (cp, st.spec.name, raw)
    assert json.dumps(scalar.summary().as_dict(), sort_keys=True) == json.dumps(
        batched.summary().as_dict(), sort_keys=True
    )


@pytest.mark.parametrize("profile", ["poisson", "victim"])
@pytest.mark.parametrize("util", UTILISATIONS)
@pytest.mark.parametrize("n_tenants", [1, 3])
def test_identity_across_load(n_tenants, util, profile):
    # The victim's horizon has to outlast a whole off period.
    n_cps = 12 if profile == "poisson" else 70
    scalar = _engine(n_tenants, util, profile, vectorized=False)
    batched = _engine(n_tenants, util, profile, vectorized=True)
    _assert_identical_after_every_step(scalar, batched, n_cps)
    served = sum(st.complete_array().size for st in batched.states)
    assert served > 0
    if profile == "poisson":
        # The sweep really spans both regimes: the queue empties every
        # interval when nearly idle and a backlog stands when overloaded.
        pending = sum(st.backend_pending() for st in batched.states)
        if util <= 0.05:
            assert pending == 0
        if util >= 1.3:
            assert pending > 0


def test_identity_with_carryover_riders():
    scalar = _engine(3, 0.7, "poisson", vectorized=False)
    batched = _engine(3, 0.7, "poisson", vectorized=True)
    for engine in (scalar, batched):
        _inject_carryover(engine, 600)
    _assert_identical_after_every_step(scalar, batched, 12)
