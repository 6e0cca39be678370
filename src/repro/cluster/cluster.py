"""The fleet: shard specs, scheduling rounds, and the cluster bench.

A :class:`Cluster` owns a set of :class:`~repro.cluster.stats
.ShardSpec` identities and a *placement history* — for each shard, the
list of ``(VolumeRequest, placed_at_epoch)`` decisions made so far.
That history is the cluster's entire lasting state: the fleet digest is
a pure function of ``(specs, placements, epochs)``, byte-identical
across 1, 2, or 8 workers and between :meth:`Cluster.schedule`, whose
shards stay resident so each epoch runs once, and :meth:`Cluster
.evaluate` on its own, which rebuilds and replays every shard — the
oracle the determinism suite holds the resident result to.

Scheduling runs in rounds, Cinder style: place a chunk of requests
against the current stats snapshots (the scheduler projects each
placement into its winner so a round is internally consistent), then
*refresh* — run the fleet one more epoch and read back measured stats
(free space after COW churn, AA-cache pressure, worst tenant p99) —
and place the next chunk against reality instead of projections.

:func:`run_cluster_bench` is the ``cluster`` bench experiment: the
same noisy-neighbor fleet placed by the filter/weigher scheduler and
by seeded random placement, comparing victim-tenant p99 (the paper's
noisy-neighbor question at fleet scale), plus a worker-scaling curve
on the deterministic digest.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

from ..common.config import TierSpec
from .scheduler import HEADROOM_FRACTION, FilterScheduler, Placement, RandomPlacer
from .shard import EPOCH_CPS, ShardRuntime, advance_shard, digest_of
from .stats import ShardSpec, ShardStats, derive_seed
from .volumes import VolumeRequest, noisy_fleet_requests

__all__ = ["make_shard_specs", "Cluster", "ClusterResult", "run_cluster_bench"]


def make_shard_specs(n_shards: int, *, seed: int) -> list[ShardSpec]:
    """Shard identities for a fleet: the small shard testbed (a cluster
    builds many of these — 2 SSD RAID groups of 4 data disks, 4,096
    blocks per disk), per-shard seeds derived from the fleet seed."""
    tier = TierSpec(
        label="ssd", media="ssd", n_groups=2, ndata=4, blocks_per_disk=4096,
        stripes_per_aa=256, erase_block_blocks=512, program_us_per_block=16.0,
    )
    return [ShardSpec(i, derive_seed(seed, f"shard{i}"), tier) for i in range(n_shards)]


@dataclass
class ClusterResult:
    """A finished fleet evaluation (deterministic payload only)."""

    n_shards: int
    seed: int
    scheduler: str
    epochs: int
    epoch_cps: int
    #: volume name -> hosting shard id.
    placements: dict[str, int]
    #: sha256 over the sorted per-shard digests: the fleet fingerprint.
    digest: str
    shard_digests: dict[int, str]
    #: Final measured stats per shard (``ShardStats.as_dict()``).
    shard_stats: dict[int, dict]
    #: Last-epoch p99 per tenant volume (ms).
    tenant_p99_ms: dict[str, float]
    #: Full per-shard payloads (large; excluded from ``as_dict``).
    payloads: dict[int, dict] = field(repr=False, default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "epochs": self.epochs,
            "epoch_cps": self.epoch_cps,
            "placements": dict(sorted(self.placements.items())),
            "digest": self.digest,
            "shard_digests": {
                str(k): v for k, v in sorted(self.shard_digests.items())
            },
            "tenant_p99_ms": dict(sorted(self.tenant_p99_ms.items())),
        }


def _last_p99s(payloads: dict[int, dict]) -> dict[str, float]:
    """Each tenant's p99 from the last epoch it actually ran in."""
    out: dict[str, float] = {}
    for payload in payloads.values():
        for epoch in payload["epochs"]:
            if epoch is None:
                continue
            for name, summary in epoch["tenants"].items():
                out[name] = summary["p99_ms"]
    return out


class _Fleet:
    """Where a cluster's shards live while it is evaluated (DESIGN §10): in this
    process, or (``workers > 1``) in that many single-process executors, each shard
    pinned to the one that first built it.  Tasks go down, payloads come up."""

    def __init__(self, workers: int) -> None:
        self.residents: dict[int, ShardRuntime] = {}
        self.slots = [ProcessPoolExecutor(max_workers=1) for _ in range(workers) if workers > 1]
        self.home: dict[int, ProcessPoolExecutor] = {}

    def advance(self, tasks: list[tuple]) -> dict[int, dict]:
        if not self.slots:
            return dict(sorted(advance_shard(t, self.residents) for t in tasks))
        todo = {t[0].shard_id: t for t in tasks}
        running, pairs = {}, []  # future -> its slot; finished (shard_id, payload)s
        while todo or running:
            # A shard runs where it lives.  First touch is dynamic: a homeless shard
            # moves into whichever slot runs dry first, as ``pool.map`` would deal it
            # (builds differ; a fixed ``i % n`` deal made evaluate() 20 % slower).
            for sid in list(todo):
                idle = (s for s in self.slots if s not in running.values())
                slot = self.home.get(sid) or next(idle, None)
                if slot is not None:
                    self.home[sid] = slot
                    running[slot.submit(advance_shard, todo.pop(sid))] = slot
            for done in wait(running, return_when=FIRST_COMPLETED).done:
                del running[done]
                pairs.append(done.result())
        return dict(sorted(pairs))

    def close(self) -> None:
        for slot in self.slots:
            slot.shutdown(cancel_futures=True)


#: Scheduling rounds (a stats refresh between rounds).
ROUNDS = 2


class Cluster:
    """A fleet of shards plus its placement history."""

    #: Not an input: ``perfbench/workloads.py`` (which a PR may not edit)
    #: sizes its work from ``cluster.config.cluster.rounds``.  Nothing
    #: under ``src/`` reads this; drop it once perfbench reads ``ROUNDS``.
    config = SimpleNamespace(cluster=SimpleNamespace(rounds=ROUNDS))

    def __init__(
        self,
        specs: list[ShardSpec],
        *,
        scheduler=None,
        epoch_cps: int = EPOCH_CPS,
        workers: int | None = None,
        audit: bool = True,
    ) -> None:
        if epoch_cps <= 0:
            raise ValueError(f"epoch_cps must be positive, got {epoch_cps}")
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive or None, got {workers}")
        self.specs = list(specs)
        self.scheduler = scheduler if scheduler is not None else FilterScheduler()
        self.workers = workers
        self.audit = audit
        self.epoch_cps = epoch_cps
        #: shard id -> [(request, placed_at_epoch), ...]
        self.placements: dict[int, list[tuple[VolumeRequest, int]]] = {
            s.shard_id: [] for s in self.specs
        }
        #: volume name -> hosting shard id.
        self.volume_home: dict[str, int] = {}
        self.decisions: list[Placement] = []
        self._fleet: _Fleet | None = None  # open only inside _resident()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @contextmanager
    def _resident(self):
        """The fleet an enclosing call holds open, else one that lives for this
        call and is closed — every worker joined — however the call ends."""
        if self._fleet is not None:
            yield self._fleet
            return
        # Never more workers than shards; one worker is the caller.
        self._fleet = fleet = _Fleet(min(self.workers or 1, len(self.specs)))
        try:
            yield fleet
        finally:
            self._fleet = None
            fleet.close()

    def current_stats(self, epochs: int) -> tuple[list[ShardStats], dict[int, dict]]:
        """Measured stats and payloads after ``epochs`` epochs — a full replay
        unless an enclosing :meth:`schedule` holds shards that ran some already."""
        tasks = [
            (spec, tuple(self.placements[spec.shard_id]), epochs, self.epoch_cps, self.audit)
            for spec in self.specs
        ]
        with self._resident() as fleet:
            payloads = fleet.advance(tasks)
        return [ShardStats.from_dict(p["stats"]) for p in payloads.values()], payloads

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _place_one(
        self, request: VolumeRequest, stats: list[ShardStats], epoch: int
    ) -> Placement:
        decision = self.scheduler.place(request, stats)
        self.placements[decision.shard_id].append((request, epoch))
        self.volume_home[request.name] = decision.shard_id
        self.decisions.append(decision)
        return decision

    def schedule(
        self, requests: list[VolumeRequest], *, rounds: int = ROUNDS
    ) -> ClusterResult:
        """Place ``requests`` over ``rounds`` scheduling rounds, with a
        stats refresh (one fleet epoch) between rounds, then run the
        last epoch on the still-resident shards and return the
        deterministic fleet result."""
        rounds = max(1, min(rounds, len(requests)))
        chunk = (len(requests) + rounds - 1) // rounds
        with self._resident():
            for k in range(rounds):
                stats, _ = self.current_stats(k)
                for request in requests[k * chunk : (k + 1) * chunk]:
                    self._place_one(request, stats, k)
            return self.evaluate(rounds)

    def evaluate(self, epochs: int) -> ClusterResult:
        """Run the placement history for ``epochs`` epochs and package
        the fleet result (called on its own: a from-scratch replay)."""
        _, payloads = self.current_stats(epochs)
        shard_digests = {sid: p["digest"] for sid, p in payloads.items()}
        fleet_digest = digest_of(
            {str(sid): d for sid, d in sorted(shard_digests.items())}
        )
        return ClusterResult(
            n_shards=len(self.specs),
            seed=min(s.seed for s in self.specs) if self.specs else 0,
            scheduler=getattr(self.scheduler, "name", "custom"),
            epochs=epochs,
            epoch_cps=self.epoch_cps,
            placements=dict(self.volume_home),
            digest=fleet_digest,
            shard_digests=shard_digests,
            shard_stats={sid: p["stats"] for sid, p in payloads.items()},
            tenant_p99_ms=_last_p99s(payloads),
            payloads=payloads,
        )


def _victim_mean_p99(
    requests: list[VolumeRequest], result: ClusterResult
) -> float:
    victims = [r.name for r in requests if r.profile == "victim"]
    p99s = [
        result.tenant_p99_ms[v] for v in victims if v in result.tenant_p99_ms
    ]
    return sum(p99s) / len(p99s) if p99s else 0.0


def run_cluster_bench(
    *,
    quick: bool = False,
    seed: int = 77,
    audit: bool = True,
) -> dict:
    """The ``cluster`` bench experiment payload.

    Places one noisy-neighbor fleet twice over the same rounds —
    filter/weigher scheduler vs seeded random — and compares victim p99;
    then replays the scheduled fleet at several worker counts, asserting
    the digest is identical while recording the wall-clock scaling curve
    (the only nondeterministic output, reported under ``timing``).
    """
    if quick:
        n_shards, per_shard, worker_points = 8, 3, (1, 2)
    else:
        n_shards, per_shard, worker_points = 64, 16, (1, 8)
    n_volumes = n_shards * per_shard
    requests = noisy_fleet_requests(
        n_volumes, seed=derive_seed(seed, "fleet")
    )
    # The full-size fleet deliberately oversubscribes (every 8-slot
    # cycle offers ~2.2x one shard's capacity); widen the QoS admission
    # bound so the run measures placement quality, not admission
    # control.  The quick fleet stays under the default bound.
    offered_per_shard = sum(r.offered_fraction for r in requests) / n_shards
    headroom = max(HEADROOM_FRACTION, offered_per_shard * 1.5)
    specs = make_shard_specs(n_shards, seed=seed)

    scheduled_cluster = Cluster(
        specs,
        scheduler=FilterScheduler(headroom_fraction=headroom),
        audit=audit,
    )
    scheduled = scheduled_cluster.schedule(requests)
    random_cluster = Cluster(
        specs,
        scheduler=RandomPlacer(seed=derive_seed(seed, "random")),
        audit=audit,
    )
    # Same rounds, so the same ``placed_at`` epochs: both fleets' victims are
    # measured in an epoch that replays epoch-0 carry-over.
    random_result = random_cluster.schedule(requests)

    scaling = []
    for w in worker_points:
        scheduled_cluster.workers = w
        # simlint: disable=F801 — worker-scaling wall clock: lands in the
        # result's `timing` block only, never in the fleet digest or any
        # deterministic metric
        t0 = time.perf_counter()
        check = scheduled_cluster.evaluate(scheduled.epochs)
        # simlint: disable=F801 — stops the same reporting clock
        wall = time.perf_counter() - t0
        if check.digest != scheduled.digest:
            raise AssertionError(
                f"fleet digest changed under workers={w}: "
                f"{check.digest} != {scheduled.digest}"
            )
        total_cps = n_shards * scheduled.epochs * scheduled.epoch_cps
        scaling.append(
            {
                "shards": n_shards,
                "workers": w,
                "wall_s": wall,
                "cps_per_s": total_cps / wall if wall > 0 else 0.0,
            }
        )
    metrics = {
        "n_shards": n_shards,
        "n_volumes": n_volumes,
        "epochs": scheduled.epochs,
        "epoch_cps": scheduled.epoch_cps,
        "digest": scheduled.digest,
        "digest_random": random_result.digest,
        "placements": scheduled.as_dict()["placements"],
        "shard_stats": [
            scheduled.shard_stats[sid] for sid in sorted(scheduled.shard_stats)
        ],
        "victim_p99_ms": _victim_mean_p99(requests, scheduled),
        "victim_p99_ms_random": _victim_mean_p99(requests, random_result),
        "max_volumes_per_shard": max(
            len(v) for v in scheduled_cluster.placements.values()
        ),
    }
    return {"metrics": metrics, "timing": {"scaling": scaling}}
