"""The discrete-event multi-tenant traffic engine.

The one latency model of the repository: what *N tenants with different
arrival processes and QoS limits* see when they share one aggregate —
and, with one tenant per volume swept over offered load, the latency vs
throughput curves of Figures 6, 8 and 9 (:func:`~repro.traffic.
scenarios.load_curve`).  It serves traffic against the CP/allocator
substrate:

1. **Arrivals.** Each tenant (one per FlexVol) generates operation
   arrivals from its own :class:`~repro.traffic.arrivals.ArrivalProcess`
   on a shared simulated clock (microseconds).
2. **Admission.** Arrivals pass the tenant's admission queue and
   token-bucket QoS limit (:mod:`repro.traffic.qos`): an op's
   *admission time* is when its IOPS token is available; a bounded
   queue rejects arrivals that would wait behind more than
   ``queue_depth`` earlier ops.
3. **CP batching.** The scheduler accumulates admitted ops into one
   :class:`~repro.fs.cp.CPBatch` per fixed CP interval (WAFL's timer
   trigger), tags the batch with per-tenant op counts
   (``ops_by_source``), splits each tenant's ops into reads and writes
   and generates the writes' dirty blocks through its
   :class:`~repro.workloads.mixes.OpMix`, and runs a real consistency
   point on the simulator (the reads priced as device reads).
4. **Service and charging.** The CP's measured cost is charged back to
   the tenants whose ops rode in it: per-op CPU and bottleneck-device
   time come from that CP's own :class:`~repro.sim.stats.CPStats`, and
   a start-time fair-queueing (SFQ) backend serves the admitted ops,
   advancing a single server clock by the per-op *occupancy*
   ``max(cpu/cores, device)`` while each op's latency accrues the full
   ``cpu + device`` service.  The server never runs ahead of simulated
   time, so an overloading tenant's excess accumulates as *its own*
   backlog while a tenant using less than its fair share is served at
   the next free slot — per-volume isolation, the property the
   noisy-neighbor tests pin down.  Saturation throughput equals
   ``min(cores/cpu_us, 1/device_us)`` —
   :func:`~repro.sim.stats.bottleneck_capacity_ops` of the same
   measurements, which is what the single-tenant saturation test
   (``tests/traffic/test_knee.py``) pins down.

As in WAFL, client writes are acknowledged from the front end (NVRAM),
not at CP flush: an op's modeled latency is queueing (admission wait +
backend backlog) plus its per-op service share, not the whole CP flush
time.  Every random draw flows from scenario seeds, so a run is
bit-for-bit reproducible and byte-identical across process pools.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Iterator

import numpy as np

from .. import obs
from ..common.constants import CORES
from ..fs.cp import CPBatch
from ..sim.stats import CPStats
from ..workloads.mixes import OpMix
from .arrivals import ArrivalProcess
from .qos import QosLimits, TokenBucket

__all__ = ["TenantSpec", "TenantSummary", "TrafficResult", "TrafficEngine", "interval_p99s"]

#: Ops per CP the engine targets when deriving ``cp_interval_us`` —
#: matches the batch sizes the figure benches measure, so calibrated
#: per-op costs transfer.
TARGET_OPS_PER_CP = 2048

#: Ops per tenant ``_drain`` converts to Python floats at a time: large
#: enough that the refill is noise, small enough that a standing
#: backlog costs a call at most this much beyond what it serves.
DRAIN_BLOCK_OPS = 1024


@dataclass
class TenantSpec:
    """One tenant: a FlexVol plus its traffic shape and QoS contract."""

    name: str
    volume: str
    arrivals: ArrivalProcess
    mix: OpMix
    qos: QosLimits | None = None
    #: Bounded admission queue (None = unbounded open-loop queue).
    queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")


@dataclass
class TenantSummary:
    """Per-tenant outcome of a traffic run (deterministic fields only)."""

    name: str
    volume: str
    offered_ops_s: float
    achieved_ops_s: float
    arrived: int
    admitted: int
    rejected: int
    completed: int
    in_flight: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_queue_depth: int
    mean_queue_depth: float
    #: CP service charged back to this tenant (its ops' share of every
    #: CP it rode in).
    charged_cpu_us: float
    charged_device_us: float


@dataclass
class TrafficResult:
    """Whole-run outcome: per-tenant summaries plus backend totals."""

    tenants: dict[str, TenantSummary]
    #: Backend capacity implied by the run's own CPs (ops/s): the
    #: op-weighted mean occupancy inverted — comparable to
    #: :meth:`repro.bench.harness.ConfigResult.capacity_ops`.
    capacity_ops: float
    horizon_s: float
    cps: int
    total_ops: int

    def as_dict(self) -> dict:
        return {
            "capacity_ops": self.capacity_ops,
            "horizon_s": self.horizon_s,
            "cps": self.cps,
            "total_ops": self.total_ops,
            "tenants": {name: asdict(t) for name, t in sorted(self.tenants.items())},
        }


_EMPTY = np.empty(0, dtype=np.float64)


def _p99(w: np.ndarray) -> float:
    """``np.percentile(w, 99)`` of a non-empty array, bit for bit: the linear method's
    virtual index ``(n − 1) · 0.99`` and NumPy's two-sided lerp, without its per-call cost."""
    v = (w.size - 1) * 0.99
    lo = int(v)
    hi = min(lo + 1, w.size - 1)
    a, b = np.partition(w, (lo, hi))[[lo, hi]].tolist()
    gamma = v - lo
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def _by_completion(served) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``served()``'s pairs, each ordered by completion (a drain call's usually is)."""
    for c, lat in served():
        if (c[1:] < c[:-1]).any():
            order = c.argsort(kind="stable")
            c, lat = c[order], lat[order]
        yield c, lat


def _by_interval(served, edges: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``(cuts, grouped)``: ``cuts[k]`` counts ``served``'s completions at or before ``edges[k]``,
    and ``grouped[cuts[k]:cuts[k + 1]]`` holds, in no particular order, the latencies of
    those in ``(edges[k], edges[k + 1]]``."""
    cuts = np.zeros(edges.size, dtype=np.int64)
    for c, _ in _by_completion(served):
        cuts += c.searchsorted(edges, side="right")
    cuts = cuts.tolist()
    grouped = np.empty(cuts[-1] if cuts else 0, dtype=np.float64)
    fill = [0, *cuts[:-1]]
    for c, lat in _by_completion(served):
        # One slice per interval k, (edges[k - 1], edges[k]], that the pair spans.
        first, last = edges.searchsorted((c[0], c[-1]), side="left").tolist()
        his = c.searchsorted(edges[first:last + 1], side="right").tolist()
        lo = 0
        for k, hi in enumerate(his, start=first):
            grouped[fill[k]:fill[k] + hi - lo] = lat[lo:hi]
            fill[k] += hi - lo
            lo = hi
    return cuts, grouped


def interval_p99s(served, edges: np.ndarray) -> tuple[list[int], list[float]]:
    """``(cuts, p99s)`` of ``served``'s ``(completions, latencies)`` pairs on a grid of
    ``edges``: ``cuts[k]`` counts the completions at or before ``edges[k]``, ``p99s[k]`` is
    the p99 latency of those in ``(edges[k], edges[k + 1]]`` (0.0 when there are none)."""
    cuts, grouped = _by_interval(served, edges)
    return cuts, [_p99(grouped[lo:hi]) if hi > lo else 0.0 for lo, hi in zip(cuts, cuts[1:])]


def _tally(bins: list[int], ts: np.ndarray, interval_us: float) -> None:
    """Add sorted times to ``bins``: ``bins[k]`` counts those in ``((k − 1) · interval_us,
    k · interval_us]``, edges that ``int * float`` computes as ``np.arange(0.0, …)`` does.
    One edge of margin below and two above absorb a rounded quotient."""
    lo = max(int(ts[0] / interval_us) - 1, 0)
    hi = int(ts[-1] / interval_us) + 3
    cum = ts.searchsorted([k * interval_us for k in range(lo, hi)], side="right").tolist()
    bins.extend([0] * (hi - len(bins)))
    for k, below, upto in zip(range(lo, hi), [0, *cum], cum):
        bins[k] += upto - below


def _through(bins: list[int], edges: np.ndarray) -> np.ndarray:
    """``_tally``'s bins as counts at or before each edge of the CP grid."""
    return np.cumsum((bins + [0] * edges.size)[:edges.size])


def _done_latency_ms(served, horizon_us: float) -> tuple[int, float, list[float]]:
    """Count, mean and p50/p95/p99 (ms) of the latencies done by ``horizon_us``, from one
    copy of them: the mean reads it in serve order, then the percentiles partition it."""
    done = [lat if c.max() <= horizon_us else lat[c <= horizon_us] for c, lat in served()]
    ms = np.concatenate(done) if done else _EMPTY
    if not ms.size:
        return 0, 0.0, [0.0, 0.0, 0.0]
    ms /= 1e3
    return ms.size, float(ms.mean()), np.percentile(ms, (50, 95, 99), overwrite_input=True).tolist()


class _TenantState:
    """Mutable per-tenant run state (admission + measurement).

    Per-op values are held only while an op waits (arrival and admit)
    and once it is served (completion and latency).  Arrivals and
    rejections are per-interval counts, and a CP's per-op costs are held
    once per run of its riders in the backend queue.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.bucket: TokenBucket | None = (
            spec.qos.make_bucket() if spec.qos is not None else None
        )
        self.next_arrival_us = spec.arrivals.next_after(0.0)
        self.admit_tail_us = 0.0
        #: Admission times not yet reached (the admission queue).
        self.pending_admits: deque[float] = deque()
        #: SFQ virtual finish tag of this tenant's last served op.
        self.vfinish = 0.0
        self.admitted = 0
        self.charged_cpu_us = 0.0
        self.charged_device_us = 0.0
        #: Arrivals and rejections per CP interval (``_tally``'s bins).
        self.arrived_bins: list[int] = []
        self.rejected_bins: list[int] = []
        self.complete_chunks: list[np.ndarray] = []
        self.latency_chunks: list[np.ndarray] = []
        #: Admitted ops waiting for a CP: (arrival, admit) array pairs,
        #: FIFO.
        self.deferred_arrays: deque[tuple[np.ndarray, np.ndarray]] = deque()
        #: Ops that rode a CP, not yet folded into the queue below:
        #: (arrivals, admits, s_occ_us, s_lat_us) per CP.
        self.backend_chunks: list[tuple[np.ndarray, np.ndarray, float, float]] = []
        #: Backend queue storage: rows arrival/admit, one column per op,
        #: spare capacity past the last queued op.
        self._qbuf = np.empty((2, 0), dtype=np.float64)
        #: The queued ops as views of ``_qbuf`` rows; the first
        #: ``q_head`` of them are already served.
        self.q_arrival = _EMPTY
        self.q_admit = _EMPTY
        self.q_head = 0
        #: One ``(stop, s_occ_us, s_lat_us)`` per CP with riders queued:
        #: the position past its last op, and the costs its ops share.
        self.cp_runs: list[tuple[int, float, float]] = []

    def take_riders(self, before_us: float) -> tuple[np.ndarray, np.ndarray]:
        """Admitted ops whose admission time falls before ``before_us``
        (admission times are FIFO-monotone, so this is a prefix), as
        (arrivals, admits) arrays."""
        ts_parts: list[np.ndarray] = []
        adm_parts: list[np.ndarray] = []
        while self.deferred_arrays:
            ts, adm = self.deferred_arrays[0]
            cut = int(np.searchsorted(adm, before_us, side="left"))
            if cut == adm.size:
                ts_parts.append(ts)
                adm_parts.append(adm)
                self.deferred_arrays.popleft()
                continue
            if cut:
                ts_parts.append(ts[:cut])
                adm_parts.append(adm[:cut])
                self.deferred_arrays[0] = (ts[cut:], adm[cut:])
            break
        if not ts_parts:
            return _EMPTY, _EMPTY
        if len(ts_parts) == 1:
            return ts_parts[0], adm_parts[0]
        return np.concatenate(ts_parts), np.concatenate(adm_parts)

    def consolidate_backend(self) -> None:
        """Append freshly ridden CP chunks to the backend queue.

        Amortised append: chunks are written into the buffer's spare
        capacity.  The served prefix is dropped by moving the live
        suffix to the front, in place, once the prefix is at least as
        long (so no more ops move than were served since the last
        move) or when the tail is full; the buffer is regrown, by a
        quarter, only when live + new ops exceed its capacity.  CPs
        served to their end are dropped; the rest move with their ops.
        """
        if not self.backend_chunks:
            return
        buf = self._qbuf
        head = self.q_head
        end = self.q_admit.size
        live = end - head
        new = sum(ts.size for ts, _, _, _ in self.backend_chunks)
        cap = buf.shape[1]
        if live + new > cap:
            grown = np.empty((2, max(live + new, cap + cap // 4)), dtype=np.float64)
            grown[:, :live] = buf[:, head:end]
            buf = self._qbuf = grown
            head, end = 0, live
        elif head and (head >= live or end + new > cap):
            # Row by row: NumPy moves a 1-D overlap in place (memmove),
            # but copies the source first for an overlapping 2-D one.
            for row in buf:
                row[:live] = row[head:end]
            head, end = 0, live
        done = bisect_right(self.cp_runs, self.q_head, key=itemgetter(0))
        shift = self.q_head - head
        self.cp_runs = [(stop - shift, occ, lat) for stop, occ, lat in self.cp_runs[done:]]
        for ts, adm, s_occ, s_lat in self.backend_chunks:
            stop = end + ts.size
            buf[0, end:stop] = ts
            buf[1, end:stop] = adm
            self.cp_runs.append((stop, s_occ, s_lat))
            end = stop
        self.backend_chunks = []
        self.q_arrival, self.q_admit = buf[:, :end]
        self.q_head = head

    def per_op(self, cost: int, lo: int, hi: int) -> list[float]:
        """Queued ops ``lo..hi``'s ``s_occ`` (``cost`` 1) or ``s_lat`` (2)."""
        out: list[float] = []
        i = bisect_right(self.cp_runs, lo, key=itemgetter(0))
        while lo < hi:
            stop = min(self.cp_runs[i][0], hi)
            out += [self.cp_runs[i][cost]] * (stop - lo)
            lo, i = stop, i + 1
        return out

    def window(self, lo: int, hi: int) -> tuple[list[float], list[float]]:
        """Queued ops ``lo..hi`` as Python floats: (admits, occupancies)."""
        return self.q_admit[lo:hi].tolist(), self.per_op(1, lo, hi)

    # ---- measurement views (the oracle's tenants offer the same) -----
    def arrivals_through(self, edges: np.ndarray) -> np.ndarray:
        return _through(self.arrived_bins, edges)

    def rejected_through(self, edges: np.ndarray) -> np.ndarray:
        return _through(self.rejected_bins, edges)

    def served(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(completions, latencies)`` of the served ops, one non-empty pair per drain call."""
        return zip(self.complete_chunks, self.latency_chunks)

    def arrived_count(self) -> int:
        return sum(self.arrived_bins)

    def rejected_count(self) -> int:
        return sum(self.rejected_bins)

    def backend_pending(self) -> int:
        """Ops ridden into a CP but not yet served."""
        pending = self.q_admit.size - self.q_head
        return pending + sum(ts.size for ts, _, _, _ in self.backend_chunks)


class TrafficEngine:
    """Drives one :class:`~repro.fs.filesystem.WaflSim` with N tenants.

    Parameters
    ----------
    sim:
        The (typically aged) simulator; each tenant's ``volume`` must
        name one of its FlexVols.
    tenants:
        Tenant specs.  Tenant order is the SFQ tie-break: equal start tags
        serve the lowest index first.
    cp_interval_us:
        Simulated time between consistency points.  Default: sized so
        the *offered* load sums to ``target_ops_per_cp`` ops per CP,
        matching the batch sizes the figure benchmarks measure (per-op
        CPU cost amortizes over the batch, so wildly different batch
        sizes would shift the service time).
    target_ops_per_cp:
        Used only to derive the default ``cp_interval_us``.
    cores:
        CP pipeline parallelism for the occupancy model (default: the
        paper's 20-core testbed).
    """

    def __init__(
        self,
        sim,
        tenants: list[TenantSpec],
        *,
        cp_interval_us: float | None = None,
        target_ops_per_cp: int = TARGET_OPS_PER_CP,
        cores: int = CORES,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        for t in tenants:
            if t.volume not in sim.vols:
                raise ValueError(f"tenant {t.name!r}: unknown volume {t.volume!r}")
        if cores < 1:
            raise ValueError("cores must be at least 1")
        self.sim = sim
        self.tenants = list(tenants)
        self.cores = int(cores)
        if cp_interval_us is None:
            offered = sum(t.arrivals.mean_rate_ops_s for t in tenants)
            cp_interval_us = target_ops_per_cp / offered * 1e6
        for name, value in (("target_ops_per_cp", target_ops_per_cp),
                            ("cp_interval_us", cp_interval_us)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        self.cp_interval_us = float(cp_interval_us)
        self.states = [_TenantState(t) for t in tenants]
        self.clock_us = 0.0
        self._cp_count = 0
        self._total_ops = 0
        self._server_free_us = 0.0
        #: SFQ virtual time: the start tag of the op in service.
        self._vtime = 0.0
        self._occ_weighted_us = 0.0
        self._series_recorded = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _generate_arrivals(self, st: _TenantState, until_us: float) -> None:
        """Generate and admit one window of arrivals as one array.

        A tenant without a token bucket admits at ``max(t, tail)`` with
        a monotone tail, so the whole window collapses to one exact
        ``np.maximum`` against the window-entry tail.  Its queue bound
        never binds: every earlier op was admitted by its own arrival,
        so the admission queue is empty when the next one arrives
        (``queue_depth >= 1``).  Token-bucket tenants run the per-op
        recurrence (bucket state is a sequential dependence) over the
        pre-generated array, which still skips the per-arrival
        generator calls.
        """
        spec = st.spec
        ts, st.next_arrival_us = spec.arrivals.window(st.next_arrival_us, until_us)
        if ts.size == 0:
            return
        _tally(st.arrived_bins, ts, self.cp_interval_us)
        bucket = st.bucket
        if bucket is None:
            admits = np.maximum(ts, st.admit_tail_us)
            st.admit_tail_us = float(admits[-1])
            st.admitted += int(ts.size)
            st.deferred_arrays.append((ts, admits))
            return
        admits = np.empty(ts.size, dtype=np.float64)
        keep = np.ones(ts.size, dtype=bool)
        rejected: list[float] = []
        k = 0
        # simlint: disable=B502 — token-bucket tenants only: bucket state
        # and the queue-depth gate are sequential (each admit feeds the next).
        for j, t in enumerate(ts.tolist()):
            while st.pending_admits and st.pending_admits[0] <= t:
                st.pending_admits.popleft()
            if (
                spec.queue_depth is not None
                and len(st.pending_admits) >= spec.queue_depth
            ):
                rejected.append(t)
                keep[j] = False
                continue
            admit = t if st.admit_tail_us <= t else st.admit_tail_us
            ready = bucket.ready_time_us(admit)
            if ready > admit:
                admit = ready
            bucket.take(admit)
            st.admit_tail_us = admit
            st.pending_admits.append(admit)
            admits[k] = admit
            k += 1
            st.admitted += 1
        if rejected:
            _tally(st.rejected_bins, np.asarray(rejected), self.cp_interval_us)
        if k:
            st.deferred_arrays.append((ts[keep], admits[:k]))

    # ------------------------------------------------------------------
    # Backend fair service (start-time fair queueing)
    # ------------------------------------------------------------------
    def _drain(self, until_us: float) -> None:
        """Serve queued backend ops up to simulated time ``until_us``.

        One shared server advances by each op's occupancy.  Among the
        tenants with an eligible head op (admitted by now), the op with
        the smallest SFQ virtual start tag ``max(vtime, vfinish)`` is
        served next (lowest tenant index on ties), and the server never
        starts an op at or past ``until_us``: backlog carries into the
        next CP interval instead of letting the server run ahead of the
        simulated clock (the isolation argument is in the module
        docstring).

        The pick is data-dependent — a newly admitted op can preempt a
        backlogged neighbor the moment the serve clock passes its
        admission — but only *then*.  So the loop serves **runs**: one
        scan of the head admits yields the pick and ``bound``, the
        earliest admit among the ineligible heads (capped at
        ``until_us``).  A lone eligible tenant keeps the server, ``t =
        max(free, admit); free = t + occ; vt = tag; tag += occ`` as a
        plain-float chain (mid-run the virtual time is the tenant's own
        last tag, so ``max(vtime, vfinish)`` is ``vfinish``), until ``t
        >= bound`` — the first moment another head could be eligible —
        or its window ends; a contested pick is a run of one op.  An
        idle server with one strictly earliest head starts that head at
        its admit, with the runner-up's admit as ``bound`` — exactly
        what a scan at that instant would pick.  On a tie it lifts the
        clock to the shared admit and scans again.

        Each tenant's window is a head ``(admit, occupancy)`` plus an
        iterator over the rest of a ``tolist()`` slice of ``q_admit``
        zipped with its ops' occupancies (``per_op``), bounded by admit
        time (ops admitted at or past ``until_us`` cannot start) and
        converted ``DRAIN_BLOCK_OPS`` at a time, so a standing backlog
        costs a call at most one block beyond the ops it serves.  Only
        serve *start* times are recorded; completions (plus ``s_lat``)
        and latencies are one vector op, and one chunk, per call.  Every
        float is produced by the same operation on the same operands as
        serving op by op (the oracle in ``tests/traffic/oracle.py``),
        so results are bit-identical.
        """
        states = self.states
        inf = float("inf")
        stops: list[int] = []
        for st in states:
            st.consolidate_backend()
            h = st.q_head
            stops.append(
                h + int(np.searchsorted(st.q_admit[h:], until_us, side="left"))
            )
        starts: list[list[float]] = [[] for _ in states]
        #: Head admit (INF = nothing more can start this call) and
        #: occupancy per tenant, and an iterator over the rest.
        ha = [inf] * len(states)
        ho = [0.0] * len(states)
        rest = [iter(())] * len(states)
        vf = [st.vfinish for st in states]

        def refill(k: int) -> None:
            lo = states[k].q_head + len(starts[k])
            hi = min(lo + DRAIN_BLOCK_OPS, stops[k])
            rest[k] = window = zip(*states[k].window(lo, hi))
            ha[k], ho[k] = next(window, (inf, 0.0))

        for k in range(len(states)):
            refill(k)
        vt = self._vtime
        t = free = self._server_free_us
        while t < until_us:
            pick = -1
            tag = 0.0
            bound = second = until_us
            for k, admit in enumerate(ha):
                if admit > t:
                    if admit < bound:
                        bound, second, first = admit, bound, k
                    elif admit < second:
                        second = admit
                    continue
                k_tag = vf[k] if vf[k] > vt else vt
                if pick < 0:
                    pick = k
                    tag = k_tag
                    continue
                bound = t  # contested: the run is this one op
                if k_tag < tag:
                    pick = k
                    tag = k_tag
            if pick < 0:
                t = bound  # idle server: the clock moves to the next admit
                if bound == second:
                    continue  # a tie (or nothing left): scan there
                pick, bound = first, second
                tag = vf[pick] if vf[pick] > vt else vt
            out = starts[pick]
            out.append(t)
            occ = ho[pick]
            free = t + occ
            vt = tag
            tag += occ
            for admit, occ in rest[pick]:
                t = free if free > admit else admit
                if t >= bound:
                    ha[pick], ho[pick] = admit, occ
                    break
                out.append(t)
                free = t + occ
                vt = tag
                tag += occ
            else:
                refill(pick)
            vf[pick] = tag
            t = free
        self._vtime = vt
        self._server_free_us = free
        for st, served, vfinish in zip(states, starts, vf):
            if not served:
                continue
            h = st.q_head
            st.q_head = h + len(served)
            st.vfinish = vfinish
            completes = np.add(served, st.per_op(2, h, st.q_head))
            st.complete_chunks.append(completes)
            st.latency_chunks.append(completes - st.q_arrival[h:st.q_head])

    # ------------------------------------------------------------------
    # CP loop
    # ------------------------------------------------------------------
    def step(self) -> CPStats | None:
        """Advance one CP interval; returns the CP's stats (None if no
        ops were admitted in the window).

        Riders move as (arrival, admit) array pairs from admission
        through the backend queue — no per-op tuples.
        """
        # Pin the tracer clock to simulated traffic time so spans from
        # different CP intervals never overlap in the trace timeline.
        obs.sync_us(self.clock_us)
        with obs.span("traffic.step", interval=self._cp_count):
            window_end = self.clock_us + self.cp_interval_us
            traced = obs.active()
            rejected_before = (
                [st.rejected_count() for st in self.states] if traced else None
            )
            # Riders per tenant index, in tenant order.
            cp_ops: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for i, st in enumerate(self.states):
                self._generate_arrivals(st, window_end)
                ts, adm = st.take_riders(window_end)
                if ts.size:
                    cp_ops[i] = (ts, adm)
            if traced:
                for st, before in zip(self.states, rejected_before):
                    delta = st.rejected_count() - before
                    if delta:
                        obs.count("traffic.rejected_ops", delta, tenant=st.spec.name)
                for i, (ts, _) in cp_ops.items():
                    spec = self.states[i].spec
                    obs.count(
                        "traffic.admitted_ops", int(ts.size),
                        tenant=spec.name, vol=spec.volume,
                    )
            self.clock_us = window_end
            total = int(sum(ts.size for ts, _ in cp_ops.values()))
            if total == 0:
                self._drain(window_end)
                self._cp_count += 1
                return None

            writes: dict[str, np.ndarray] = {}
            deletes: dict[str, np.ndarray] = {}
            ops_by_source: dict[str, int] = {}
            reads = 0
            for i, (ts, _) in cp_ops.items():
                spec = self.states[i].spec
                r, n_writes = spec.mix.split(int(ts.size))
                reads += r
                w, d = spec.mix.next_ops(n_writes)
                if w.size:
                    writes[spec.volume] = w
                if d.size:
                    deletes[spec.volume] = d
                ops_by_source[spec.name] = int(ts.size)
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
            for i, (ts, adm) in cp_ops.items():
                share = ts.size / total
                st = self.states[i]
                st.charged_cpu_us += stats.cpu_us * share
                st.charged_device_us += stats.device_busy_us * share
                st.backend_chunks.append((ts, adm, s_occ, s_lat))
            self._drain(window_end)
            self._cp_count += 1
            return stats

    def sims(self) -> tuple:
        """The simulators this engine drives (the drill-subject protocol)."""
        return (self.sim,)

    def run(self, n_cps: int) -> "TrafficEngine":
        for _ in range(n_cps):
            self.step()
        return self

    def replay(self, carried: dict[str, int]) -> None:
        """Before the first step: carried ops (tenant → count) ride the first CP, admitted at 0."""
        for st in self.states:
            if n := carried.get(st.spec.name, 0):
                zeros = np.zeros(n)
                _tally(st.arrived_bins, zeros, self.cp_interval_us)
                st.deferred_arrays.append((zeros, zeros))
                st.admitted += n

    def unridden(self) -> dict[str, int]:
        """Admitted ops per tenant whose CP window has not come yet."""
        return {st.spec.name: sum(ts.size for ts, _ in st.deferred_arrays) for st in self.states}

    def admission(self) -> tuple[tuple[str, int, int], ...]:
        """``(tenant, admitted, rejected)`` so far, in tenant order."""
        return tuple((st.spec.name, st.admitted, st.rejected_count()) for st in self.states)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    @property
    def capacity_ops(self) -> float:
        """Backend capacity implied by the run's CPs (ops/s)."""
        if self._total_ops == 0:
            return 0.0
        return 1e6 / (self._occ_weighted_us / self._total_ops)

    def _record_series(self, st: _TenantState, horizon_us: float) -> None:
        """Per-CP-interval time series into the sim's MetricsLog."""
        metrics = self.sim.metrics
        edges = np.arange(0.0, horizon_us + self.cp_interval_us / 2,
                          self.cp_interval_us)
        name = st.spec.name
        interval_s = self.cp_interval_us / 1e6
        cuts, p99s = interval_p99s(st.served, edges)
        arr_cum = st.arrivals_through(edges).tolist()
        rej_cum = st.rejected_through(edges).tolist()
        for k in range(len(edges) - 1):
            lo_cut, hi_cut = cuts[k], cuts[k + 1]
            metrics.record_point(f"traffic.{name}.achieved_ops_s", (hi_cut - lo_cut) / interval_s)
            metrics.record_point(f"traffic.{name}.p99_ms", p99s[k] / 1e3)
            in_flight = arr_cum[k + 1] - rej_cum[k + 1] - hi_cut
            metrics.record_point(f"traffic.{name}.queue_depth", in_flight)

    def summary(self) -> TrafficResult:
        """Finalize the run: per-tenant percentiles, throughput, queue
        depth (series recorded via the sim's MetricsLog)."""
        horizon_us = self.clock_us
        horizon_s = horizon_us / 1e6
        tenants: dict[str, TenantSummary] = {}
        already_recorded = self._series_recorded
        self._series_recorded = True
        for st in self.states:
            if not already_recorded:
                self._record_series(st, horizon_us)
            completed, mean_ms, (p50, p95, p99) = _done_latency_ms(st.served, horizon_us)
            arrived = st.arrived_count()
            rejected = st.rejected_count()
            qd = np.asarray(
                self.sim.metrics.query(
                    "queue_depth", tenant=st.spec.name, default=[0]
                )
            )
            tenants[st.spec.name] = TenantSummary(
                name=st.spec.name,
                volume=st.spec.volume,
                offered_ops_s=arrived / horizon_s if horizon_s else 0.0,
                achieved_ops_s=completed / horizon_s if horizon_s else 0.0,
                arrived=arrived,
                admitted=st.admitted,
                rejected=rejected,
                completed=completed,
                in_flight=arrived - rejected - completed,
                p50_ms=p50,
                p95_ms=p95,
                p99_ms=p99,
                mean_ms=mean_ms,
                max_queue_depth=int(qd.max()) if qd.size else 0,
                mean_queue_depth=float(qd.mean()) if qd.size else 0.0,
                charged_cpu_us=st.charged_cpu_us,
                charged_device_us=st.charged_device_us,
            )
        return TrafficResult(
            tenants=tenants,
            capacity_ops=self.capacity_ops,
            horizon_s=horizon_s,
            cps=self._cp_count,
            total_ops=self._total_ops,
        )
