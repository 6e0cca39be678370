"""``python -m perfbench run|aa`` — run the whole benchmark and read it.

Every measurement is one child process running ``perfbench/run.py``
(the command ``BENCHMARK.json`` names), started one at a time, round
robin over the workloads so host drift hits all of them equally.  This
module only starts the children, takes medians and quartiles over
their results, and prints tables.

``run``  the six workloads, ``--repeats`` children each; ``--traced``
         adds one traced child per workload and prints its layer table.
``aa``   the untraced set twice, interleaved: both medians, the
         quartile spread and the bound per metric; exits non-zero if a
         pair differs by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from perfbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
DEFAULT_OUT = os.path.join(ROOT, "perfbench", "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

BOUNDS = {m.name: m.bound for m in spec.END_TO_END}
BETTER = {m.name: m.better for m in spec.END_TO_END}


def default_seconds() -> float:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return float(json.load(f)["run_seconds"])


def child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run in a fresh process; returns its result plus ``detail``.

    A child that dies without a result is a failed run, not an abort:
    the other workloads still get measured."""
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["detail"] = json.loads(
            next(ln for ln in lines if ln.startswith("detail: "))[len("detail: "):]
        )
    except (IndexError, ValueError, StopIteration):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"sim": {}, "sim_digest": "", "failures": ["child produced no result"]}}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) the way the acceptance check computes them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(workloads, seed, repeats, seconds, smoke, vary_seeds, sets=1):
    """``sets`` interleaved result sets: ``out[s][workload]`` is the
    list of child results.  Repeat ``r`` uses the same seed in every
    set, so simulated outputs must agree pairwise."""
    out = [{w: [] for w in workloads} for _ in range(sets)]
    rounds = max(repeats(w) for w in workloads)
    for r in range(rounds):
        for w in workloads:
            if r >= repeats(w):
                continue
            for s in range(sets):
                t0 = time.perf_counter()
                res = child(w, seed + r if vary_seeds else seed, seconds, False, smoke)
                out[s][w].append(res)
                value = res["metrics"].get("throughput", {}).get("value", 0.0)
                print(f"  [{'AB'[s] if sets > 1 else ' '}] {w:<14} repeat {r + 1}: "
                      f"{value:12.6g} {spec.WORKLOADS[w][0]}/s  "
                      f"({time.perf_counter() - t0:.1f}s)", flush=True)
    return out


def summarise(results: list[dict]) -> dict:
    """Medians/quartiles of one workload's children plus its checks."""
    names = [m.name for m in spec.END_TO_END]
    summary = {"n": len(results), "metrics": {}}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        q1, med, q3 = quartiles(values)
        summary["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0,
        }
    for extra in ("mounts_per_s", "walk_mounts_per_s"):
        values = [r["detail"][extra] for r in results if extra in r["detail"]]
        if values:
            summary["metrics"][extra] = {"median": statistics.median(values), "n": len(values)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary["failed_frac"] = failed / attempted if attempted else 1.0
    summary["failures"] = sorted({f for r in results for f in r["detail"]["failures"]})
    summary["digests"] = [r["detail"]["sim_digest"] for r in results]
    summary["sim"] = results[-1]["detail"]["sim"] if results else {}
    return summary


def print_summary(workload: str, s: dict) -> None:
    unit, _ = spec.WORKLOADS[workload]
    print(f"\n{workload}  (n={s['n']}, throughput = {spec.ALIASES[workload]}, {unit}/s host)")
    for m in spec.END_TO_END:
        v = s["metrics"][m.name]
        print(f"  {m.name:<20} {v['median']:>14.6g} {m.unit:<5} host   "
              f"Q1 {v['q1']:.6g}  Q3 {v['q3']:.6g}  spread {v['spread']:.1%}  "
              f"bound {m.bound:.0%}  n={v['n']}")
    for extra in ("mounts_per_s", "walk_mounts_per_s"):
        if extra in s["metrics"]:
            print(f"  {extra:<20} {s['metrics'][extra]['median']:>14.6g} 1/s   host")
    print(f"  {'failed_frac':<20} {s['failed_frac']:>14.6g} ratio")
    for name, value in s["sim"].items():
        print(f"  {name:<20} {value:>14.6g}       simulated")
    digests = set(s["digests"])
    print(f"  sim_digest           {s['digests'][0] if s['digests'] else '-'}"
          + ("" if len(digests) <= 1 else f"  (+{len(digests) - 1} more: seeds vary)"))
    for failure in s["failures"]:
        print(f"  FAILED: {failure}")


def host_info() -> dict:
    """Where the numbers come from, so files from different hosts are
    not silently compared.  ``host_calib_s`` is a fixed NumPy kernel
    (sort + cumsum + flatnonzero on 2^20 int64), informational only."""
    data = np.random.default_rng(0).integers(0, 2**40, size=2**20)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        ordered = np.sort(data)
        np.flatnonzero(np.cumsum(ordered) & 1)
        best = min(best, time.perf_counter() - t0)
    return {
        "host_calib_s": best,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def write_out(out_dir: str, name: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")


def repeats_of(args):
    """workload -> children to run for it."""
    if args.smoke:
        return lambda w: 1
    return lambda w: args.repeats or spec.REPEATS.get(w, spec.REPEATS["default"])


def cmd_run(args) -> int:
    repeats = repeats_of(args)
    sets = run_set(args.workload, args.seed, repeats, args.seconds, args.smoke, args.vary_seeds)
    summaries = {w: summarise(rs) for w, rs in sets[0].items()}
    bad = False
    for w, s in summaries.items():
        print_summary(w, s)
        bad |= s["failed_frac"] > 0
        if not args.vary_seeds and len(set(s["digests"])) > 1:
            print("  FAILED: sim_digest differs between repeats of one seed")
            bad = True
    layers = {}
    if args.traced:
        for w in args.workload:
            res = child(w, args.seed, args.seconds, True, args.smoke)
            layers[w] = {k: v["value"] for k, v in res["metrics"].items()}
            bad |= not res["correct"]
            print(f"\n{w}: per-layer table (traced pass; zero rows omitted)")
            units = {m.name: m.unit for m in spec.PER_LAYER}
            for name, value in layers[w].items():
                if value:
                    print(f"  {name:<40} {value:>16.6g} {units[name]}")
            for failure in res["detail"]["failures"]:
                print(f"  FAILED: {failure}")
    write_out(args.out, "results.json",
              {"host": host_info(), "seed": args.seed, "seconds": args.seconds,
               "smoke": args.smoke, "workloads": summaries, "layers": layers})
    return 1 if bad else 0


def cmd_aa(args) -> int:
    repeats = repeats_of(args)
    host = host_info()
    print("host:", json.dumps(host))
    sets = run_set(args.workload, args.seed, repeats, args.seconds, args.smoke,
                   args.vary_seeds, sets=args.sets)
    summaries = [{w: summarise(rs) for w, rs in s.items()} for s in sets]
    bad = False
    print(f"\n{'workload':<14} {'metric':<12} " + " ".join(f"{'median ' + 'AB'[i]:>14}" for i in range(args.sets))
          + f" {'worse by':>9} {'spread':>8} {'bound':>6}")
    for w in args.workload:
        for m in spec.END_TO_END:
            meds = [s[w]["metrics"][m.name]["median"] for s in summaries]
            spread = max(s[w]["metrics"][m.name]["spread"] for s in summaries)
            base, other = meds[0], meds[-1]
            worse = (base - other) / base if m.better == "higher" else (other - base) / base
            verdict = ""
            if abs(worse) > m.bound:
                verdict = "  DIFFERS BY MORE THAN THE BOUND"
                bad = True
            print(f"{w:<14} {m.name:<12} " + " ".join(f"{v:>14.6g}" for v in meds)
                  + f" {worse:>+9.1%} {spread:>8.1%} {m.bound:>6.0%}{verdict}")
        digests = [s[w]["digests"] for s in summaries]
        same = all(d == digests[0] for d in digests)
        failed = max(s[w]["failed_frac"] for s in summaries)
        print(f"{w:<14} sim_digest   {'identical' if same else 'DIFFERENT'}; "
              f"failed_frac {failed:g}")
        bad |= not same or failed > 0
    write_out(args.out, "aa.json", {"host": host, "seed": args.seed, "seconds": args.seconds,
                                    "sets": summaries})
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn in (("run", cmd_run), ("aa", cmd_aa)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                       help="repeatable; default: all six")
        p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
        p.add_argument("--vary-seeds", action="store_true",
                       help="repeat r uses seed+r (the acceptance check's way)")
        p.add_argument("--repeats", type=int, default=0,
                       help=f"children per workload (default {spec.REPEATS})")
        p.add_argument("--seconds", type=float, default=None,
                       help="measuring time per child (default: BENCHMARK.json run_seconds)")
        p.add_argument("--smoke", action="store_true",
                       help="shrunken workloads, one repeat: a <25 s self-test, not a measurement")
        p.add_argument("--out", default=DEFAULT_OUT)
        if name == "run":
            p.add_argument("--traced", action="store_true")
        else:
            p.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    args.workload = args.workload or list(spec.WORKLOADS)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else default_seconds()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
