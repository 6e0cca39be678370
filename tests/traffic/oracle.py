"""Op-at-a-time reference model of the traffic engine (a test oracle).

The production :class:`~repro.traffic.engine.TrafficEngine` moves each
CP window's operations as arrays.  This model serves the same traffic
one operation at a time — arrivals through ``next_after``, token-bucket
and queue-depth admission, the rider prefix, one real CP per window,
per-op SFQ service — with tuples in deques and floats in lists, so it
can be read against the module docstring of ``repro.traffic.engine``
line by line.  It is written to be obviously right, not fast, and the
identity tests require the production engine to match it bit for bit.

Only the measurement code (``summary`` / ``_record_series``) is shared
with production: :class:`OracleTenant` offers the same views the summary
reads, computed the obviously right way from its per-op lists —
``served()`` (one ``(completions, latencies)`` pair, where production
yields one per drain call), ``*_count()``, and
``arrivals_through(edges)`` / ``rejected_through(edges)``, a
``searchsorted`` of every arrival (rejection) time against the CP edges,
where production tallies counts per interval as it admits.
:func:`complete_array` and :func:`latency_array` join either model's
``served()`` for the tests.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.fs.cp import CPBatch
from repro.traffic.engine import TenantSpec, TrafficEngine
from repro.traffic.scenarios import (
    build_scenario,
    build_traffic_sim,
    calibrate_capacity,
)


class OracleTenant:
    """Per-tenant run state, one Python object per operation."""

    def __init__(self, spec: TenantSpec, first_arrival_us: float) -> None:
        self.spec = spec
        self.bucket = spec.qos.make_bucket() if spec.qos is not None else None
        self.next_arrival_us = first_arrival_us
        self.admit_tail_us = 0.0
        #: Admission times not yet reached (the admission queue).
        self.pending_admits: deque[float] = deque()
        #: Admitted ops waiting for a CP: (arrival_us, admit_us).
        self.deferred: deque[tuple[float, float]] = deque()
        #: Ops that rode a CP and await backend service:
        #: (arrival_us, admit_us, s_occ_us, s_lat_us).
        self.backend: deque[tuple[float, float, float, float]] = deque()
        self.vfinish = 0.0
        self.arrivals_us: list[float] = []
        self.rejected_us: list[float] = []
        self.complete_us: list[float] = []
        self.latency_us: list[float] = []
        self.admitted = 0
        self.charged_cpu_us = 0.0
        self.charged_device_us = 0.0

    def arrivals_through(self, edges: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.sort(self.arrivals_us), edges, side="right")

    def rejected_through(self, edges: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.sort(self.rejected_us), edges, side="right")

    def served(self):
        """The per-op lists as one ``(completions, latencies)`` pair, once
        an op is served (production yields no empty pair either)."""
        if self.complete_us:
            yield (np.asarray(self.complete_us, dtype=np.float64),
                   np.asarray(self.latency_us, dtype=np.float64))

    def arrived_count(self) -> int:
        return len(self.arrivals_us)

    def rejected_count(self) -> int:
        return len(self.rejected_us)

    def backend_pending(self) -> int:
        return len(self.backend)


def _joined(parts) -> np.ndarray:
    parts = list(parts)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def complete_array(st) -> np.ndarray:
    """A tenant's (engine's or oracle's) completions, joined in serve order."""
    return _joined(c for c, _ in st.served())


def latency_array(st) -> np.ndarray:
    """A tenant's latencies, joined in serve order."""
    return _joined(lat for _, lat in st.served())


class OracleEngine(TrafficEngine):
    """:class:`TrafficEngine` with ``step()`` replaced by the per-op
    model; construction, ``run`` and the measurement code are inherited."""

    def __init__(self, sim, tenants: list[TenantSpec], **kwargs) -> None:
        super().__init__(sim, tenants, **kwargs)
        # The production states already drew each tenant's first
        # arrival from its generator; carry it over rather than draw twice.
        self.states = [OracleTenant(st.spec, st.next_arrival_us) for st in self.states]

    def _admit_until(self, st: OracleTenant, until_us: float) -> None:
        spec = st.spec
        while st.next_arrival_us < until_us:
            t = st.next_arrival_us
            st.arrivals_us.append(t)
            while st.pending_admits and st.pending_admits[0] <= t:
                st.pending_admits.popleft()
            if (
                spec.queue_depth is not None
                and len(st.pending_admits) >= spec.queue_depth
            ):
                st.rejected_us.append(t)
            else:
                admit = t if st.admit_tail_us <= t else st.admit_tail_us
                if st.bucket is not None:
                    admit = max(admit, st.bucket.ready_time_us(admit))
                    st.bucket.take(admit)
                st.admit_tail_us = admit
                st.pending_admits.append(admit)
                st.deferred.append((t, admit))
                st.admitted += 1
            st.next_arrival_us = spec.arrivals.next_after(t)

    def _serve_until(self, until_us: float) -> None:
        """Start-time fair queueing, one op per iteration: among tenants
        whose head op is admitted by the serve time, the smallest start
        tag ``max(vtime, vfinish)`` goes next (lowest index on ties)."""
        states = self.states
        while True:
            heads = [st.backend[0][1] for st in states if st.backend]
            if not heads:
                return
            t = max(self._server_free_us, min(heads))
            if t >= until_us:
                return
            pick = None
            pick_tag = 0.0
            for st in states:
                if not st.backend or st.backend[0][1] > t:
                    continue
                tag = st.vfinish if st.vfinish > self._vtime else self._vtime
                if pick is None or tag < pick_tag:
                    pick = st
                    pick_tag = tag
            arrival, _admit, s_occ, s_lat = pick.backend.popleft()
            self._vtime = pick_tag
            pick.vfinish = pick_tag + s_occ
            self._server_free_us = t + s_occ
            complete = t + s_lat
            pick.complete_us.append(complete)
            pick.latency_us.append(complete - arrival)

    def step(self):
        window_end = self.clock_us + self.cp_interval_us
        cp_ops: dict[int, list[tuple[float, float]]] = {}
        for i, st in enumerate(self.states):
            self._admit_until(st, window_end)
            riders = []
            while st.deferred and st.deferred[0][1] < window_end:
                riders.append(st.deferred.popleft())
            if riders:
                cp_ops[i] = riders
        self.clock_us = window_end
        total = sum(len(v) for v in cp_ops.values())
        stats = None
        if total:
            writes: dict[str, np.ndarray] = {}
            deletes: dict[str, np.ndarray] = {}
            ops_by_source: dict[str, int] = {}
            reads = 0
            for i, ops in cp_ops.items():
                spec = self.states[i].spec
                r, n_writes = spec.mix.split(len(ops))
                reads += r
                w, d = spec.mix.next_ops(n_writes)
                if w.size:
                    writes[spec.volume] = w
                if d.size:
                    deletes[spec.volume] = d
                ops_by_source[spec.name] = len(ops)
            stats = self.sim.engine.run_cp(
                CPBatch(writes=writes, ops=total, deletes=deletes, reads=reads,
                        ops_by_source=ops_by_source)
            )
            cpu_per_op = stats.cpu_us / total
            dev_per_op = stats.device_busy_us / total
            core_share = cpu_per_op / self.cores
            s_occ = core_share if core_share > dev_per_op else dev_per_op
            s_lat = cpu_per_op + dev_per_op
            self._occ_weighted_us += s_occ * total
            self._total_ops += total
            for i, ops in cp_ops.items():
                share = len(ops) / total
                st = self.states[i]
                st.charged_cpu_us += stats.cpu_us * share
                st.charged_device_us += stats.device_busy_us * share
                for arrival, admit in ops:
                    st.backend.append((arrival, admit, s_occ, s_lat))
        self._serve_until(window_end)
        self._cp_count += 1
        return stats


def run_oracle(scenario: str, *, seed: int, n_cps: int = 40):
    """``run_traffic(scenario, quick=True, seed=seed)`` on the oracle,
    composed from the same public builders.  Returns
    ``(sim, engine, result)``."""
    sim = build_traffic_sim(4)
    cal = calibrate_capacity(sim)
    tenants = build_scenario(scenario, sim, cal.capacity_ops, n_tenants=4, seed=seed)
    engine = OracleEngine(sim, tenants)
    engine.run(n_cps)
    return sim, engine, engine.summary()
