"""Call-graph construction: symbol extraction, import canonicalization,
method dispatch through the class hierarchy, and indirect edges
(partials, pool submissions, process targets)."""

from __future__ import annotations

from .conftest import edge_pairs


class TestResolution:
    def test_same_module_call(self, make_graph):
        graph = make_graph({
            "app/mod.py": "def helper():\n    return 1\n"
                          "def run():\n    return helper()\n",
        })
        assert ("app.mod.run", "app.mod.helper", "direct") in edge_pairs(graph)

    def test_cross_module_from_import(self, make_graph):
        graph = make_graph({
            "app/util.py": "def helper():\n    return 1\n",
            "app/hot.py": "from app.util import helper\n"
                          "def run():\n    return helper()\n",
        })
        assert ("app.hot.run", "app.util.helper", "direct") in edge_pairs(graph)

    def test_relative_import_canonicalizes(self, make_graph):
        graph = make_graph({
            "app/util.py": "def helper():\n    return 1\n",
            "app/hot.py": "from .util import helper\n"
                          "def run():\n    return helper()\n",
        })
        assert ("app.hot.run", "app.util.helper", "direct") in edge_pairs(graph)

    def test_module_attribute_call(self, make_graph):
        graph = make_graph({
            "app/util.py": "def helper():\n    return 1\n",
            "app/hot.py": "from app import util\n"
                          "def run():\n    return util.helper()\n",
        })
        assert ("app.hot.run", "app.util.helper", "direct") in edge_pairs(graph)

    def test_constructor_resolves_to_init(self, make_graph):
        graph = make_graph({
            "app/mod.py": "class Engine:\n"
                          "    def __init__(self):\n        self.x = 1\n"
                          "def run():\n    return Engine()\n",
        })
        assert (
            "app.mod.run", "app.mod.Engine.__init__", "direct"
        ) in edge_pairs(graph)

    def test_unresolved_external_calls_counted(self, make_graph):
        graph = make_graph({
            "app/mod.py": "import math\n"
                          "def run():\n    return math.sqrt(4)\n",
        })
        assert graph.unresolved == 1
        assert edge_pairs(graph) == set()


class TestMethodDispatch:
    def test_self_call_resolves_within_class(self, make_graph):
        graph = make_graph({
            "app/mod.py": "class C:\n"
                          "    def helper(self):\n        return 1\n"
                          "    def run(self):\n        return self.helper()\n",
        })
        assert (
            "app.mod.C.run", "app.mod.C.helper", "direct"
        ) in edge_pairs(graph)

    def test_self_call_resolves_through_inheritance(self, make_graph):
        graph = make_graph({
            "app/base.py": "class Base:\n"
                           "    def helper(self):\n        return 1\n",
            "app/sub.py": "from app.base import Base\n"
                          "class Sub(Base):\n"
                          "    def run(self):\n        return self.helper()\n",
        })
        assert (
            "app.sub.Sub.run", "app.base.Base.helper", "direct"
        ) in edge_pairs(graph)

    def test_virtual_dispatch_includes_overrides(self, make_graph):
        graph = make_graph({
            "app/mod.py": "class Base:\n"
                          "    def step(self):\n        return 0\n"
                          "    def run(self):\n        return self.step()\n"
                          "class Sub(Base):\n"
                          "    def step(self):\n        return 1\n",
        })
        pairs = edge_pairs(graph)
        assert ("app.mod.Base.run", "app.mod.Base.step", "direct") in pairs
        assert ("app.mod.Base.run", "app.mod.Sub.step", "direct") in pairs

    def test_locally_typed_receiver(self, make_graph):
        graph = make_graph({
            "app/mod.py": "class Engine:\n"
                          "    def tick(self):\n        return 1\n"
                          "def run():\n"
                          "    eng = Engine()\n"
                          "    return eng.tick()\n",
        })
        assert (
            "app.mod.run", "app.mod.Engine.tick", "direct"
        ) in edge_pairs(graph)

    def test_cha_fallback_on_unknown_receiver(self, make_graph):
        graph = make_graph({
            "app/mod.py": "class Engine:\n"
                          "    def advance_cp(self):\n        return 1\n"
                          "def run(eng):\n    return eng.advance_cp()\n",
        })
        assert (
            "app.mod.run", "app.mod.Engine.advance_cp", "direct"
        ) in edge_pairs(graph)

    def test_cha_stoplist_suppresses_generic_names(self, make_graph):
        graph = make_graph({
            "app/mod.py": "class Bag:\n"
                          "    def append(self, x):\n        return x\n"
                          "def run(items):\n    items.append(1)\n",
        })
        # ``.append`` on an unknown receiver is almost surely a list.
        assert edge_pairs(graph) == set()


class TestIndirectEdges:
    def test_functools_partial(self, make_graph):
        graph = make_graph({
            "app/mod.py": "from functools import partial\n"
                          "def worker(n):\n    return n\n"
                          "def run():\n    return partial(worker, 3)\n",
        })
        assert ("app.mod.run", "app.mod.worker", "partial") in edge_pairs(graph)

    def test_executor_submit(self, make_graph):
        graph = make_graph({
            "app/mod.py": "def worker(n):\n    return n\n"
                          "def run(pool):\n    return pool.submit(worker, 3)\n",
        })
        assert ("app.mod.run", "app.mod.worker", "submit") in edge_pairs(graph)

    def test_pool_map(self, make_graph):
        graph = make_graph({
            "app/mod.py": "def worker(n):\n    return n\n"
                          "def run(pool):\n    return pool.map(worker, [1])\n",
        })
        assert ("app.mod.run", "app.mod.worker", "submit") in edge_pairs(graph)

    def test_process_target(self, make_graph):
        graph = make_graph({
            "app/mod.py": "from multiprocessing import Process\n"
                          "def worker():\n    return 1\n"
                          "def run():\n"
                          "    return Process(target=worker)\n",
        })
        assert ("app.mod.run", "app.mod.worker", "target") in edge_pairs(graph)
