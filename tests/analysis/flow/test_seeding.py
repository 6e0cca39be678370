"""F804 seed threading: a function holding a seed or generator must
thread it into callees whose seed parameters would otherwise fall back
to a default and silently re-seed the subsystem."""

from __future__ import annotations

from repro.analysis import FlowConfig, lint_paths

from .conftest import hops

CONFIG = FlowConfig(hot_root_modules=())


def f804(report):
    return [f for f in report.findings if f.rule == "F804"]


class TestTruePositives:
    def test_dropped_seed_across_modules(self, make_tree):
        root = make_tree({
            "app/build.py": "def build_sim(nblocks, seed=42):\n"
                            "    return (nblocks, seed)\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def run(seed):\n"
                          "    return build_sim(1024)\n",
        })
        (finding,) = lint_paths([root], CONFIG).findings  # no per-file rule sees this
        assert finding.rule == "F804"
        assert hops(finding) == ["app.run.run", "app.build.build_sim"]
        assert "'seed'" in finding.message
        assert "calls 'app.build.build_sim'" in finding.message

    def test_local_rng_holder_counts(self, make_tree):
        root = make_tree({
            "app/build.py": "def shuffle(items, seed=7):\n"
                            "    return items\n",
            "app/run.py": "from app.build import shuffle\n"
                          "from repro.common.rng import make_rng\n"
                          "def run(items):\n"
                          "    rng = make_rng(3)\n"
                          "    rng.random()\n"
                          "    return shuffle(items)\n",
        })
        (finding,) = f804(lint_paths([root], CONFIG))
        assert "locally constructed rng" in finding.message

    def test_suffixed_seed_parameter_counts(self, make_tree):
        root = make_tree({
            "app/build.py": "def build(n, layout_seed=1):\n"
                            "    return (n, layout_seed)\n",
            "app/run.py": "from app.build import build\n"
                          "def run(sweep_seed):\n"
                          "    return build(4)\n",
        })
        (finding,) = f804(lint_paths([root], CONFIG))
        assert "calls 'app.build.build'" in finding.message


class TestContractSatisfied:
    def test_seed_passed_by_keyword(self, make_tree):
        root = make_tree({
            "app/build.py": "def build_sim(nblocks, seed=42):\n"
                            "    return (nblocks, seed)\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def run(seed):\n"
                          "    return build_sim(1024, seed=seed)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []

    def test_seed_passed_positionally(self, make_tree):
        root = make_tree({
            "app/build.py": "def build_sim(seed=42):\n"
                            "    return seed\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def run(seed):\n"
                          "    return build_sim(seed)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []

    def test_explicit_constant_seed_is_deliberate(self, make_tree):
        # Pinning a canonical seed is visible at the call site and
        # reviewable; the contract only bans the silent default.
        root = make_tree({
            "app/build.py": "def build_sim(nblocks, seed=42):\n"
                            "    return (nblocks, seed)\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def run(seed):\n"
                          "    return build_sim(1024, seed=777)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []

    def test_threading_a_spawned_generator(self, make_tree):
        root = make_tree({
            "app/build.py": "def shuffle(items, rng=None):\n"
                            "    return items\n",
            "app/run.py": "from app.build import shuffle\n"
                          "from repro.common.rng import make_rng\n"
                          "def run(items):\n"
                          "    rng = make_rng(3)\n"
                          "    return shuffle(items, rng=rng)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []


class TestOutOfScope:
    def test_callee_without_seed_default_is_fine(self, make_tree):
        # A *required* seed parameter cannot silently default.
        root = make_tree({
            "app/build.py": "def build_sim(seed):\n"
                            "    return seed\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def run(seed):\n"
                          "    return build_sim(seed)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []

    def test_holderless_caller_is_fine(self, make_tree):
        # A caller with no seed in scope has nothing to thread; its
        # callee's default *is* the subsystem's seed.
        root = make_tree({
            "app/build.py": "def build_sim(nblocks, seed=42):\n"
                            "    return (nblocks, seed)\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def quick_demo():\n"
                          "    return build_sim(64)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []

    def test_star_args_are_not_second_guessed(self, make_tree):
        root = make_tree({
            "app/build.py": "def build_sim(nblocks, seed=42):\n"
                            "    return (nblocks, seed)\n",
            "app/run.py": "from app.build import build_sim\n"
                          "def run(seed, **kw):\n"
                          "    return build_sim(1024, **kw)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []

    def test_recursion_is_exempt(self, make_tree):
        root = make_tree({
            "app/run.py": "def run(depth, seed=9):\n"
                          "    if depth == 0:\n        return seed\n"
                          "    return run(depth - 1)\n",
        })
        assert f804(lint_paths([root], CONFIG)) == []
