"""One benchmark run of one workload: the command ``BENCHMARK.json`` names.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``

Run from the root of a checkout.  The process first does an untimed
smoke-size warm-up of the same workload (imports, first touch), then
iterates *set-up + fixed-size timed phase + output checks* until
``--seconds`` of measuring have passed (at least twice), and prints

* every metric by name with its unit (``--trace 0``: end-to-end;
  ``--trace 1``: the per-layer table from alternating untraced/traced
  iterations, plus the trace file ``perfbench/out/trace_<W>.json``),
* a ``detail:`` line of machine-readable extras (aliases, simulated
  metrics, ``sim_digest``, per-iteration rates),
* and, last, the one-line JSON result the driver reads.

Exits non-zero without printing a result when the program under test is
not there to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

perf = time.perf_counter

#: Iterations a run makes at least, whatever ``--seconds`` says.
MIN_ITERATIONS = 2
#: A short set-up is repeated (fresh system each time) until this much
#: set-up time has been sampled in the iteration, or MAX_SETUPS builds.
SETUP_SAMPLE_S = 1.0
MAX_SETUPS = 8


@dataclass
class Iteration:
    #: Wall of every set-up made (short set-ups are repeated).
    setups: list = field(default_factory=list)
    blocks_generated: int = 0
    segments: list = field(default_factory=list)
    #: ``host_calibration()`` samples taken through the iteration.
    calibration: list = field(default_factory=list)
    outcome: object = None
    digest: str = ""
    extras: dict = field(default_factory=dict)
    tracer: object = None
    error: str = ""

    @property
    def timed_s(self) -> float:
        return sum(s.wall_s for s in self.segments)

    @property
    def work(self) -> float:
        return sum(s.work for s in self.segments)

    @property
    def host_speed(self) -> float:
        """How fast the host ran during this iteration, relative to the
        reference (1.0 = the quiet reference host; 0.8 = everything,
        the calibration kernel included, took 1.25x as long)."""
        from perfbench.workloads import REFERENCE_CALIBRATION_S

        if not self.calibration:
            return 1.0
        return REFERENCE_CALIBRATION_S / statistics.median(self.calibration)


def run_iteration(cls, seed: int, smoke: bool, traced: bool = False) -> Iteration:
    """Set up, run and check one iteration of workload class ``cls``.

    Never raises: an iteration that does counts all its work as failed
    (``error`` holds the traceback, which the caller prints)."""
    from perfbench import tracing
    from perfbench.workloads import Outcome, Stopwatch, digest_of, host_calibration

    it = Iteration()
    wl = cls()
    undo: list = []
    try:
        gc.collect()
        while True:
            it.calibration.append(host_calibration())
            t0 = perf()
            wl.build(seed, smoke)
            it.setups.append(perf() - t0)
            if sum(it.setups) >= SETUP_SAMPLE_S or len(it.setups) == MAX_SETUPS or smoke:
                break
            wl = None  # drop the finished system before building its twin
            wl = cls()
        if traced:
            it.tracer = tracing.Tracer()
            undo = tracing.install(it.tracer)
            if hasattr(wl, "sim"):
                tracing.register_keepers(it.tracer, wl.sim)
        it.blocks_generated = wl.prepare()
        gc.collect()
        watch = Stopwatch(it.tracer)
        it.segments = wl.run(watch)
        it.calibration += watch.calibration
        it.outcome = wl.finish()
        it.digest = digest_of(it.outcome)
        if traced and hasattr(wl, "extras"):
            it.extras = wl.extras(it.tracer)
    except Exception:  # noqa: BLE001 - the boundary that must keep the run going
        it.error = traceback.format_exc()
        work = int(getattr(wl, "work", 1))
        it.outcome = Outcome(attempted=work, failed=work, failures=["iteration raised"])
        it.segments = []
    finally:
        tracing.uninstall(undo)
    return it


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def profile_rate(iterations: list[Iteration], label: str | None = None) -> float:
    """Work per second of the fixed timed phase at reference host speed.

    Every iteration runs the same segments on the same inputs.  Each
    segment wall is first scaled by its iteration's ``host_speed`` (what
    it would have taken on the quiet reference host); segment ``j`` then
    costs its *fastest* scaled execution over the iterations, and the
    rate is total work over the sum of those costs.

    All of the work counts.  Both steps are there because of what this
    kind of host does (README, *Noise band*): its speed drifts by
    20-30% over minutes — the calibration kernel drifts with it, so
    scaling removes that — and on top of the drift, noise only ever
    slows a segment down, so the minimum over iterations removes the
    bursts.  Over ten runs the quartile spread fell from 22-34% (raw
    medians) to 4-15%."""
    good = [it for it in iterations if it.segments]
    if not good:
        return 0.0
    speeds = [it.host_speed for it in good]
    work = cost = 0.0
    for j, seg in enumerate(good[0].segments):
        if label is not None and seg.label != label:
            continue
        work += seg.work
        cost += min(it.segments[j].wall_s * speed for it, speed in zip(good, speeds))
    return work / cost if cost else 0.0


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation past the sample)."""
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)] if ordered else 0.0


# ----------------------------------------------------------------------
# Per-layer table of one traced iteration
# ----------------------------------------------------------------------
def layer_metrics(it: Iteration) -> dict[str, float]:
    """Every per-layer metric this iteration produced (others are 0)."""
    from perfbench import spec

    tr, out = it.tracer, it.outcome
    m: dict[str, float] = {}
    for layer in spec.LAYERS:
        m[f"{layer}.calls"], m[f"{layer}.self_s"] = tr.layers.get(layer, (0, 0.0))
    m.update(tr.counters)
    m.update(out.counters)
    m.update(out.sim)
    m.update(it.extras)
    m["workloads.blocks_generated"] = it.blocks_generated
    cp_s = tr.timed_durations("CPEngine.run_cp")
    cp_ms = [d * 1e3 for d in cp_s]
    m["fs.cp.wall_ms_p50"] = quantile(cp_ms, 0.50)
    m["fs.cp.wall_ms_p95"] = quantile(cp_ms, 0.95)
    m["fs.aggregate.price_self_s"] = tr.name_self("RAIDGroupRuntime.price_cp_writes")
    m["fs.aggregate.frees_self_s"] = tr.name_self("RAIDGroupRuntime.apply_frees")
    switches = m.get("core.allocator.aa_switches", 0)
    m["core.allocator.blocks_per_switch"] = (
        m.get("core.allocator.blocks_allocated", 0) / switches if switches else 0.0
    )
    m["core.cache.refills"] = max(
        m.get("core.cache.refills", 0),
        tr.name_calls("RAIDAwareAACache.refill") + tr.name_calls("RAIDAgnosticAACache.refill"),
    )
    if m.get("core.cache.best_score"):
        m["core.cache.selected_vs_best"] = m["core.cache.selected_score"] / m["core.cache.best_score"]
    stripes = m.get("raid.stripes", 0)
    m["raid.full_stripe_frac"] = m.get("raid.full_stripes", 0) / stripes if stripes else 0.0
    step_s = sum(tr.timed_durations("TrafficEngine.step"))
    m["traffic.summary_s"] = tr.name_total("TrafficEngine.summary")
    m["traffic.cp_share"] = sum(cp_s) / step_s if step_s else 0.0
    m["cluster.shard.build_s"] = tr.name_total("ShardRuntime.__init__")
    m["cluster.shard.epoch_s"] = tr.name_total("ShardRuntime.run_epoch")
    m["trace.unattributed_frac"] = (
        tr.window_root_self_s / tr.window_root_s if tr.window_root_s else 0.0
    )
    m["trace.spans"] = len(tr.spans) + tr.dropped
    return m


def reconcile(it: Iteration) -> list[str]:
    """The traced pass's own output checks, over the timed windows: the
    spans' self times must add up to the root spans (within 1%), and
    root spans must cover at least 95% of the timed wall."""
    tr = it.tracer
    problems = []
    if abs(tr.window_self_s - tr.window_root_s) > 0.01 * tr.window_root_s:
        problems.append(
            f"sum(self_s)={tr.window_self_s:.4f}s != root spans {tr.window_root_s:.4f}s"
        )
    if tr.window_s and tr.window_root_s < 0.95 * tr.window_s:
        problems.append(
            f"root spans cover {tr.window_root_s / tr.window_s:.1%} of the timed wall (<95%)"
        )
    return problems


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """The whole run; returns the result dict (see module docstring)."""
    from perfbench import spec
    from perfbench.workloads import WORKLOAD_CLASSES

    cls = WORKLOAD_CLASSES[workload]
    if not smoke:  # a smoke run is its own warm-up
        warm = run_iteration(cls, seed, smoke=True)
        if warm.error:
            print(warm.error, file=sys.stderr)

    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    began = perf()
    while True:
        it = run_iteration(cls, seed, smoke)
        untraced.append(it)
        if trace:
            traced.append(run_iteration(cls, seed, smoke, traced=True))
        done = len(untraced) >= (1 if trace or smoke else MIN_ITERATIONS)
        if done and perf() - began >= seconds:
            break

    iterations = untraced + traced
    for it in iterations:
        if it.error:
            print(it.error, file=sys.stderr)
    attempted = sum(it.outcome.attempted for it in iterations)
    failed = sum(it.outcome.failed for it in iterations)
    failures = sorted({f for it in iterations for f in it.outcome.failures})
    digests = {it.digest for it in iterations if not it.error}
    if len(digests) > 1:
        attempted += 1
        failed += 1
        failures.append("sim_digest differs between iterations of one seed")

    good = [it for it in untraced if not it.error]
    alias = spec.ALIASES[workload]
    throughput = profile_rate(good)
    detail = {
        "workload": workload,
        "seed": seed,
        "iterations": len(untraced),
        "alias": alias,
        alias: throughput,
        "raw_iteration_rates": [it.work / it.timed_s for it in good if it.timed_s],
        "host_speed": [it.host_speed for it in good],
        "sim_digest": sorted(digests)[0] if digests else "",
        "sim": good[-1].outcome.sim if good else {},
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures,
    }
    if workload == "mount_cycle":
        detail["mounts_per_s"] = profile_rate(good, "topaa")
        detail["walk_mounts_per_s"] = profile_rate(good, "walk")

    if not trace:
        metrics = {
            "throughput": throughput,
            "setup_s": statistics.median(
                s * it.host_speed for it in good for s in it.setups
            ) if good else 0.0,
            "peak_rss_mb": peak_rss_mb(include_children=workload == "fleet_epochs"),
        }
        units = {m.name: m.unit for m in spec.END_TO_END}
    else:
        metrics, problems = traced_metrics(workload, good, [t for t in traced if not t.error])
        if problems:
            attempted += len(problems)
            failed += len(problems)
            failures += problems  # the list ``detail`` holds
        units = {m.name: m.unit for m in spec.PER_LAYER}

    print_report(workload, seed, detail, metrics, units)
    correct = failed == 0 and bool(good) and all(v == v for v in metrics.values())
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def traced_metrics(workload: str, untraced, traced) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: the median over traced iterations of each
    number, the tracing overhead against the untraced iterations, the
    kernels (``cache_scale``), and the reconciliation problems."""
    from perfbench import spec
    from perfbench.kernels import run_kernels

    tables = [layer_metrics(it) for it in traced]
    problems = [p for it in traced for p in reconcile(it)]
    metrics: dict[str, float] = {}
    for m in spec.PER_LAYER:
        values = [t.get(m.name, 0.0) for t in tables]
        metrics[m.name] = statistics.median(values) if values else 0.0
    if untraced and traced:
        plain = statistics.median(it.timed_s * it.host_speed for it in untraced)
        with_spans = statistics.median(it.timed_s * it.host_speed for it in traced)
        metrics["trace.overhead_frac"] = with_spans / plain - 1.0
    if workload == "cache_scale":
        metrics.update(run_kernels())
    if traced:
        tr = traced[-1].tracer
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.chrome_trace(os.path.join(OUT_DIR, f"trace_{workload}.json"), f"perfbench {workload}")
        if tr.missing:
            print("not wrapped (target gone):", ", ".join(tr.missing))
    return metrics, problems


def print_report(workload, seed, detail, metrics, units) -> None:
    print(f"perfbench {workload} seed={seed} iterations={detail['iterations']}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for name, value in detail["sim"].items():
        if name not in metrics:
            print(f"  {name:<40} {value:>16.6g} (simulated)")
    print(f"  sim_digest {detail['sim_digest']}")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")
    print("detail: " + json.dumps(detail, sort_keys=True))


def pin_allocator() -> None:
    """Start the run with glibc malloc in the state a long-lived process
    reaches anyway.

    glibc raises its mmap threshold as a process frees large blocks, so
    a process that has built and dropped one system serves the next
    build from the heap without a page fault: ``mount_cycle``'s set-up
    fell from 0.12 s to 0.06 s between the first and second iteration
    of a run, and the run's median landed on either side.  Pinning the
    thresholds (which also switches the adaptation off) makes every
    iteration of a run see the same allocator."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: nothing to pin
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_mmap_threshold, 32 * 1024 * 1024)  # the most glibc accepts
    mallopt(m_trim_threshold, 2**31 - 1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken sizes, one iteration (tests only)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import spec

    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {', '.join(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    pin_allocator()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
