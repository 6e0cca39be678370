"""Self-tests of the benchmark, on the smoke-size workloads.

Run with ``python -m pytest perfbench/tests`` from the repo root (not
part of tier-1: ``testpaths`` there is ``tests``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import run, spec, tracing  # noqa: E402
from perfbench.workloads import WORKLOAD_CLASSES, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke_results() -> dict:
    """One smoke run of every workload in both modes, in this process."""
    return {
        (w, trace): run.measure(w, seed=1, seconds=0.0, trace=trace, smoke=True)
        for w in spec.WORKLOADS
        for trace in (False, True)
    }


# -- BENCHMARK.json ------------------------------------------------------
def test_benchmark_json_shape(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert all(not part.startswith("/") and ".." not in part for part in doc["command"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    everything = doc["workloads"] + doc["end_to_end"] + doc["per_layer"]
    names = [x["name"] for x in everything]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.fullmatch(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_benchmark_json_matches_the_code(benchmark_json):
    doc = benchmark_json
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS) == list(WORKLOAD_CLASSES)
    as_tuple = lambda m: (m["name"], m["unit"], m["better"], m.get("bound"))  # noqa: E731
    assert [as_tuple(m) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [as_tuple(m) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better, None) for m in spec.PER_LAYER
    ]
    for layer in spec.LAYERS:
        assert any(t.layer == layer for t in tracing.TARGETS), f"nothing wraps {layer}"


# -- what a run emits ----------------------------------------------------
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_run_emits_exactly_the_named_metrics(smoke_results, workload):
    for trace, expected in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
        result = smoke_results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in expected]
        for m in expected:
            assert result["metrics"][m.name]["unit"] == m.unit
    for m in spec.END_TO_END:
        assert smoke_results[workload, False]["metrics"][m.name]["value"] > 0


def test_layer_split_is_real(smoke_results):
    """Workloads built to stress different layers do."""
    layers = {w: {k: v["value"] for k, v in smoke_results[w, True]["metrics"].items()}
              for w in spec.WORKLOADS}
    ssd = layers["overwrite_ssd"]
    assert ssd["tiering.calls"] == 0 and ssd["devices.hdd.calls"] == 0 and ssd["fs.cp.calls"] > 0
    tiered = layers["churn_tiered"]
    assert min(tiered[k] for k in ("tiering.calls", "devices.hdd.calls", "devices.smr.calls",
                                   "fs.azcs.calls", "fs.flexvol.blocks_deleted")) > 0
    assert layers["traffic_noisy"]["traffic.self_s"] > 0
    assert layers["mount_cycle"]["fs.mount.calls"] > 0 and layers["mount_cycle"]["core.topaa.bytes"] > 0
    assert layers["fleet_epochs"]["cluster.pool.self_s"] > 0
    assert layers["fleet_epochs"]["cluster.migration.blocks_copied"] > 0
    cache = layers["cache_scale"]
    assert cache["fs.cp.calls"] == 0 and cache["core.cache.self_s"] > 0
    assert all(cache[k] > 0 for k in spec.KERNELS)
    for w, table in layers.items():
        if w != "cache_scale":
            assert all(table[k] == 0 for k in spec.KERNELS)


# -- determinism and the wrappers ------------------------------------------
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_seed_drives_the_digest_and_wrappers_do_not(workload):
    cls = WORKLOAD_CLASSES[workload]
    plain = run.run_iteration(cls, seed=1, smoke=True)
    again = run.run_iteration(cls, seed=1, smoke=True, traced=True)
    other = run.run_iteration(cls, seed=2, smoke=True)
    assert not (plain.error or again.error or other.error)
    assert plain.digest == again.digest, "tracing changed a simulated output"
    assert plain.digest != other.digest, "the seed does not reach the workload"
    assert plain.outcome.failed == 0
    assert not run.reconcile(again), "traced pass does not reconcile"


def test_install_then_uninstall_restores_every_attribute():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    assert undo and not tracer.missing
    patched = list(undo)  # uninstall() empties the log
    for owner, attr, _had, _value in patched:
        assert hasattr(getattr(owner, attr), "__wrapped__")
    tracing.uninstall(undo)
    for owner, attr, had, value in patched:
        if had:
            assert vars(owner)[attr] is value
        else:
            assert attr not in vars(owner)
        assert not hasattr(getattr(owner, attr), "__wrapped__")


# -- failure accounting ----------------------------------------------------
def test_an_iteration_that_raises_counts_all_its_work_as_failed():
    class Broken:
        name = "broken"

        def build(self, seed, smoke):
            self.work = 7

        def prepare(self):
            return 0

        def run(self, watch):
            raise RuntimeError("boom")

    it = run.run_iteration(Broken, seed=1, smoke=True)
    assert "boom" in it.error and not it.segments
    assert (it.outcome.attempted, it.outcome.failed) == (7, 7)


def test_a_failed_check_is_counted_not_swallowed():
    out = Outcome(attempted=10)
    out.check("ok", True)
    out.check("broken invariant", False)
    assert (out.attempted, out.failed, out.failures) == (12, 1, ["broken invariant"])


def test_profile_rate_rejects_one_noisy_segment():
    from perfbench.workloads import Segment

    def iteration(walls):
        it = run.Iteration()
        it.segments = [Segment("cp", 10, w) for w in walls]
        return it

    quiet = [iteration([1.0, 1.0]), iteration([1.0, 1.0]), iteration([1.0, 1.0])]
    noisy = [iteration([1.0, 1.0]), iteration([5.0, 1.0]), iteration([1.0, 1.0])]
    assert run.profile_rate(quiet) == run.profile_rate(noisy) == 10.0


# -- the command, as the driver starts it ------------------------------------
def test_run_py_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "overwrite_ssd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_smoke_cli_prints_every_metric_and_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cache_scale",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for m in spec.END_TO_END:
        assert any(m.name in ln and m.unit in ln for ln in lines[:-1])
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail: "))[8:])
    assert detail["alias"] == "cache_ops_per_s" and len(detail["sim_digest"]) == 64


def test_host_speed_scales_walls_to_the_reference_host():
    from perfbench.workloads import REFERENCE_CALIBRATION_S, Segment

    def iteration(wall, slowdown):
        it = run.Iteration()
        it.segments = [Segment("cp", 10, wall * slowdown)]
        it.calibration = [REFERENCE_CALIBRATION_S * slowdown] * 3
        return it

    # The same work on a host running 1.25x slower reads the same.
    assert run.profile_rate([iteration(1.0, 1.0)]) == pytest.approx(10.0)
    assert run.profile_rate([iteration(1.0, 1.25)]) == pytest.approx(10.0)
    assert iteration(1.0, 1.25).host_speed == pytest.approx(0.8)
