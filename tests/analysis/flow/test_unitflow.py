"""F802 unit typestate: unit tags crossing function boundaries into
differently-united parameters, bindings, and returns — the cases the
purely per-line U301 rule cannot see."""

from __future__ import annotations

from repro.analysis import FlowConfig, lint_paths
from repro.analysis.passes import infer_return_units

from .conftest import hops

CONFIG = FlowConfig(hot_root_modules=())


def f802(report):
    return [f for f in report.findings if f.rule == "F802"]


class TestCallSiteChecking:
    def test_blocks_into_bytes_parameter_cross_module(self, make_tree):
        # Each module is U301-clean on its own; only the call boundary
        # mixes units.
        root = make_tree({
            "app/geom.py": "def reserve(size_bytes):\n"
                           "    return size_bytes\n",
            "app/run.py": "from app.geom import reserve\n"
                          "def run():\n"
                          "    free_blocks = 12\n"
                          "    return reserve(free_blocks)\n",
        })
        (finding,) = lint_paths([root], CONFIG).findings  # U301 is blind to this
        assert finding.rule == "F802"
        assert hops(finding) == ["app.run.run", "app.geom.reserve"]
        assert ("carrying _blocks passed to parameter 'size_bytes' (_bytes) "
                "of 'app.geom.reserve'") in finding.message

    def test_keyword_argument_mix(self, make_tree):
        root = make_tree({
            "app/geom.py": "def reserve(count, size_bytes=0):\n"
                           "    return size_bytes\n",
            "app/run.py": "from app.geom import reserve\n"
                          "def run(n_blocks):\n"
                          "    return reserve(1, size_bytes=n_blocks)\n",
        })
        (finding,) = f802(lint_paths([root], CONFIG))
        assert ("carrying _blocks passed to parameter 'size_bytes' (_bytes) "
                "of 'app.geom.reserve'") in finding.message

    def test_method_call_skips_self(self, make_tree):
        root = make_tree({
            "app/mod.py": "class Pool:\n"
                          "    def grab(self, n_blocks):\n"
                          "        return n_blocks\n"
                          "def run():\n"
                          "    pool = Pool()\n"
                          "    chunk_bytes = 4096\n"
                          "    return pool.grab(chunk_bytes)\n",
        })
        (finding,) = f802(lint_paths([root], CONFIG))
        assert ("carrying _bytes passed to parameter 'n_blocks' (_blocks) "
                "of 'app.mod.Pool.grab'") in finding.message

    def test_matching_units_are_clean(self, make_tree):
        root = make_tree({
            "app/geom.py": "def reserve(size_bytes):\n"
                           "    return size_bytes\n",
            "app/run.py": "from app.geom import reserve\n"
                          "def run():\n"
                          "    hdr_bytes = 24\n"
                          "    return reserve(hdr_bytes)\n",
        })
        assert f802(lint_paths([root], CONFIG)) == []

    def test_unitless_argument_is_clean(self, make_tree):
        root = make_tree({
            "app/geom.py": "def reserve(size_bytes):\n"
                           "    return size_bytes\n",
            "app/run.py": "from app.geom import reserve\n"
                          "def run(amount):\n"
                          "    return reserve(amount)\n",
        })
        assert f802(lint_paths([root], CONFIG)) == []


class TestReturnUnitInference:
    def test_fixpoint_propagates_through_return_chain(self, make_graph):
        graph = make_graph({
            "app/mod.py": "def leaf():\n"
                          "    elapsed_us = 5\n"
                          "    return elapsed_us\n"
                          "def mid():\n    return leaf()\n"
                          "def top():\n    return mid()\n",
        })
        units = infer_return_units(graph)
        assert units["app.mod.leaf"] == frozenset({"_us"})
        assert units["app.mod.mid"] == frozenset({"_us"})
        assert units["app.mod.top"] == frozenset({"_us"})

    def test_inferred_unit_feeds_call_site_check(self, make_tree):
        # run() passes latency() [us, two hops deep] into a _ms param.
        root = make_tree({
            "app/time.py": "def raw():\n"
                           "    delay_us = 9\n"
                           "    return delay_us\n"
                           "def latency():\n    return raw()\n",
            "app/sink.py": "def record(wait_ms):\n    return wait_ms\n",
            "app/run.py": "from app.sink import record\n"
                          "from app.time import latency\n"
                          "def run():\n"
                          "    return record(latency())\n",
        })
        (finding,) = lint_paths([root], CONFIG).findings
        assert finding.rule == "F802"
        assert ("carrying _us passed to parameter 'wait_ms' (_ms) "
                "of 'app.sink.record'") in finding.message

    def test_mixed_return_units_stay_ambiguous(self, make_graph):
        graph = make_graph({
            "app/mod.py": "def either(flag):\n"
                          "    n_blocks = 1\n"
                          "    n_bytes = 2\n"
                          "    if flag:\n        return n_blocks\n"
                          "    return n_bytes\n",
        })
        units = infer_return_units(graph)
        assert units["app.mod.either"] == frozenset({"_blocks", "_bytes"})


class TestAssignmentsAndSignatures:
    def test_binding_return_to_wrong_unit_name(self, make_tree):
        root = make_tree({
            "app/geom.py": "def free_blocks():\n"
                           "    n_blocks = 7\n"
                           "    return n_blocks\n",
            "app/run.py": "from app.geom import free_blocks\n"
                          "def run():\n"
                          "    total_bytes = free_blocks()\n"
                          "    return total_bytes\n",
        })
        (finding,) = lint_paths([root], CONFIG).findings
        assert finding.rule == "F802"
        assert ("returned by 'app.geom.free_blocks' carries _blocks but is "
                "bound to a _bytes name") in finding.message

    def test_function_name_contradicts_return_unit(self, make_tree):
        root = make_tree({
            "app/geom.py": "def capacity_bytes():\n"
                           "    n_blocks = 3\n"
                           "    return n_blocks\n",
        })
        (finding,) = f802(lint_paths([root], CONFIG))
        assert hops(finding) == ["app.geom.capacity_bytes"]
        assert "named with _bytes returns a _blocks value" in finding.message

    def test_converter_names_are_exempt(self, make_tree):
        # blocks_to_bytes *is* the conversion; its name ends in _bytes
        # while consuming blocks, and that is the point.
        root = make_tree({
            "app/units.py": "def blocks_to_bytes(n_blocks):\n"
                            "    return n_blocks * 4096\n",
        })
        assert f802(lint_paths([root], CONFIG)) == []

    def test_ambiguous_return_does_not_fire(self, make_tree):
        root = make_tree({
            "app/geom.py": "def either(flag):\n"
                           "    n_blocks = 1\n"
                           "    n_us = 2\n"
                           "    if flag:\n        return n_blocks\n"
                           "    return n_us\n",
            "app/run.py": "from app.geom import either\n"
                          "def run():\n"
                          "    total_bytes = either(True)\n"
                          "    return total_bytes\n",
        })
        assert f802(lint_paths([root], CONFIG)) == []
