"""F801 determinism taint: nondeterminism sources anywhere in the call
cone of a hot-path root, including laundering through modules, method
dispatch, and pool workers that the per-file D rules cannot see."""

from __future__ import annotations

from repro.analysis import FlowConfig, lint_paths

from .conftest import hops


def hot(config_modules=("app.hot",)):
    return FlowConfig(hot_root_modules=config_modules)


def f801(report):
    return [f for f in report.findings if f.rule == "F801"]


#: A hot path two hops from a reporting clock; ``{pragma}`` is where a
#: waiver goes.
STAMPED = {
    "app/hot.py": "from app.util import stamp, stamp2\n"
                  "def advance():\n    return stamp() + stamp2()\n",
    "app/util.py": "import time\n"
                   "def stamp():\n    return time.perf_counter(){pragma}\n"
                   "def stamp2():\n    return time.perf_counter()\n",
}


def stamped(pragma: str) -> dict[str, str]:
    return {k: v.replace("{pragma}", pragma) for k, v in STAMPED.items()}


class TestTruePositives:
    def test_perf_counter_two_hops_from_hot_path(self, make_tree):
        # time.perf_counter is *allowed* by the per-file rules (D103
        # permits it for bench timing), so only the flow pass can see
        # it leak into a simulation hot path.
        root = make_tree({
            "app/hot.py": "from app.util import stamp\n"
                          "def advance():\n    return stamp()\n",
            "app/util.py": "import time\n"
                           "def stamp():\n    return time.perf_counter()\n",
        })
        (finding,) = lint_paths([root], hot()).findings  # no per-file rule fires
        assert finding.rule == "F801"
        assert hops(finding)[-1] == "app.util.stamp"
        assert "app.hot.advance" in finding.message
        assert "(wall-clock: time.perf_counter())" in finding.message

    def test_trace_runs_root_to_source(self, make_tree):
        root = make_tree({
            "app/hot.py": "from app.mid import relay\n"
                          "def advance():\n    return relay()\n",
            "app/mid.py": "from app.leaf import noisy\n"
                          "def relay():\n    return noisy()\n",
            "app/leaf.py": "import time\n"
                           "def noisy():\n    return time.perf_counter_ns()\n",
        })
        (finding,) = f801(lint_paths([root], hot()))
        assert hops(finding) == ["app.hot.advance", "app.mid.relay",
                                 "app.leaf.noisy"]
        # The last hop pins the source line in the source's own file.
        assert finding.trace[-1].endswith("leaf.py:3)")
        assert finding.line == 3

    def test_unseeded_rng_in_pool_worker(self, make_tree):
        # The worker only ever runs through submit(); no syntactic rule
        # connects it to the hot path.
        root = make_tree({
            "app/hot.py": "from app.work import worker\n"
                          "def advance(pool):\n"
                          "    return pool.submit(worker, 3)\n",
            "app/work.py": "import numpy as np\n"
                           "def worker(n):\n"
                           "    rng = np.random.default_rng()"
                           "  # simlint: disable=D102\n"
                           "    return rng.random()\n",
        })
        (finding,) = lint_paths([root], hot()).findings  # D102 is waived
        assert finding.rule == "F801"
        assert hops(finding)[-1] == "app.work.worker"
        assert "(unseeded-rng: " in finding.message

    def test_source_through_method_dispatch(self, make_tree):
        root = make_tree({
            "app/hot.py": "from app.eng import Engine\n"
                          "def advance():\n"
                          "    eng = Engine()\n"
                          "    return eng.tick()\n",
            "app/eng.py": "import os\n"
                          "class Engine:\n"
                          "    def __init__(self):\n        self.n = 0\n"
                          "    def tick(self):\n"
                          "        return os.urandom(4)\n",
        })
        (finding,) = f801(lint_paths([root], hot()))
        assert hops(finding)[-1] == "app.eng.Engine.tick"
        assert "(entropy: os.urandom())" in finding.message


class TestNegatives:
    def test_source_outside_the_cone_is_ignored(self, make_tree):
        root = make_tree({
            "app/hot.py": "def advance():\n    return 1\n",
            "app/bench.py": "import time\n"
                            "def measure():\n    return time.perf_counter()\n",
        })
        assert f801(lint_paths([root], hot())) == []

    def test_clean_cone_is_clean(self, make_tree):
        root = make_tree({
            "app/hot.py": "from app.util import double\n"
                          "def advance():\n    return double(2)\n",
            "app/util.py": "def double(n):\n    return 2 * n\n",
        })
        assert f801(lint_paths([root], hot())) == []

    def test_purity_whitelist_suppresses_with_justification(self, make_tree):
        # The purity whitelist is the in-place pragma on the source line.
        root = make_tree(stamped("  # simlint: disable=F801 — reporting only"))
        report = lint_paths([root], hot())
        (waived,) = [f for f in report.waived if f.rule == "F801"]
        assert hops(waived)[-1] == "app.util.stamp"
        assert waived.waiver == "reporting only"

    def test_whitelist_does_not_leak_to_other_functions(self, make_tree):
        root = make_tree(stamped("  # simlint: disable=F801 — reporting only"))
        (finding,) = lint_paths([root], hot()).findings
        assert finding.rule == "F801"
        assert hops(finding)[-1] == "app.util.stamp2"

    def test_set_iteration_through_a_bound_name_is_a_source(self, make_tree):
        # The same bound-name tracking D104 uses feeds F801.
        root = make_tree({
            "app/hot.py": "from app.util import drain\n"
                          "def advance():\n    return drain()\n",
            "app/util.py": "def drain():\n"
                           "    pending = {3, 1}\n"
                           "    return [x for x in pending]"
                           "  # simlint: disable=D104\n",
        })
        (finding,) = lint_paths([root], hot()).findings
        assert finding.rule == "F801" and "(set-iteration: " in finding.message

    def test_only_the_configured_modules_are_roots(self, make_tree):
        root = make_tree({
            "app/misc.py": "import time\n"
                           "def special():\n    return time.process_time()\n",
        })
        assert f801(lint_paths([root], hot(()))) == []
        (finding,) = f801(lint_paths([root], hot(("app.misc",))))
        assert hops(finding) == ["app.misc.special"]
