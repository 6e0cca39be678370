"""F803 commit-path effects: committed-image writes are legal only on
call paths rooted at the sanctioned commit entry points.  The key true
positive is the "mutate via helper" hole: a helper *inside* the
sanctioned file is C601-clean syntactically, but becomes a launder
path the moment unsanctioned code can call it."""

from __future__ import annotations

from repro.analysis import FlowConfig, lint_paths

from .conftest import hops


def f803(report):
    return [f for f in report.findings if f.rule == "F803"]


#: Only the commit() entry point is sanctioned — not the whole module.
STRICT = FlowConfig(
    hot_root_modules=(),
    sanctioned_commit_modules=(),
    sanctioned_commit_fqns=("repro.crash.persistence.Model.commit",),
)

#: The persistence file, with a helper any code can call.  Its path
#: makes every write C601-clean for syntactic simlint.
PERSISTENCE = (
    "class Model:\n"
    "    def commit(self, image):\n"
    "        self.committed = image\n"
    "    def sneak_write(self, image):\n"
    "        self.committed = image\n"
)


class TestLaunderPathDetection:
    def test_helper_in_sanctioned_file_reached_from_outside(self, make_tree):
        root = make_tree({
            "repro/crash/persistence.py": PERSISTENCE,
            "repro/app.py": "from repro.crash.persistence import Model\n"
                            "def tamper(image):\n"
                            "    m = Model()\n"
                            "    m.sneak_write(image)\n",
        })
        # Syntactic C601 trusts the persistence module wholesale: the
        # launder path is the only finding.
        (finding,) = lint_paths([root], STRICT).findings
        assert finding.rule == "F803"
        assert hops(finding)[-1] == "repro.crash.persistence.Model.sneak_write"
        assert "'.committed'" in finding.message
        assert "'repro.app.tamper'" in finding.message

    def test_cross_module_chain_names_the_entry_point(self, make_tree):
        root = make_tree({
            "repro/crash/persistence.py": PERSISTENCE,
            "repro/mid.py": "from repro.crash.persistence import Model\n"
                            "def relay(m, image):\n"
                            "    m.sneak_write(image)\n",
            "repro/app.py": "from repro.mid import relay\n"
                            "def outer(m, image):\n"
                            "    relay(m, image)\n",
        })
        (finding,) = f803(lint_paths([root], STRICT))
        assert "entry point 'repro.app.outer'" in finding.message
        assert hops(finding) == [
            "repro.app.outer",
            "repro.mid.relay",
            "repro.crash.persistence.Model.sneak_write",
        ]

    def test_writer_outside_sanctioned_tree(self, make_tree):
        config = FlowConfig(
            hot_root_modules=(),
            sanctioned_commit_modules=("app.persist",),
        )
        root = make_tree({
            "app/state.py": "def clobber(model, image):\n"
                            "    model.committed = image"
                            "  # simlint: disable=C601\n",
            "app/main.py": "from app.state import clobber\n"
                           "def run(model, image):\n"
                           "    clobber(model, image)\n",
        })
        (finding,) = f803(lint_paths([root], config))
        assert hops(finding) == ["app.main.run", "app.state.clobber"]
        assert "entry point 'app.main.run'" in finding.message


class TestSanctionedPaths:
    def test_commit_entry_point_itself_is_trusted(self, make_tree):
        root = make_tree({
            "repro/crash/persistence.py": (
                "class Model:\n"
                "    def commit(self, image):\n"
                "        self.committed = image\n"
            ),
            "repro/app.py": "from repro.crash.persistence import Model\n"
                            "def run(image):\n"
                            "    m = Model()\n"
                            "    m.commit(image)\n",
        })
        assert f803(lint_paths([root], STRICT)) == []

    def test_helper_called_only_through_commit(self, make_tree):
        # commit() -> _install() is a path *through* the sanctioned
        # entry: reach_up must stop climbing there.
        root = make_tree({
            "repro/crash/persistence.py": (
                "class Model:\n"
                "    def commit(self, image):\n"
                "        self._install(image)\n"
                "    def _install(self, image):\n"
                "        self.committed = image\n"
            ),
            "repro/app.py": "from repro.crash.persistence import Model\n"
                            "def run(image):\n"
                            "    m = Model()\n"
                            "    m.commit(image)\n",
        })
        assert f803(lint_paths([root], STRICT)) == []

    def test_mixed_paths_still_flag_the_unsanctioned_entry(self, make_tree):
        root = make_tree({
            "repro/crash/persistence.py": (
                "class Model:\n"
                "    def commit(self, image):\n"
                "        self._install(image)\n"
                "    def _install(self, image):\n"
                "        self.committed = image\n"
            ),
            "repro/app.py": "from repro.crash.persistence import Model\n"
                            "def bypass(m, image):\n"
                            "    m._install(image)\n",
        })
        (finding,) = f803(lint_paths([root], STRICT))
        assert "entry point 'repro.app.bypass'" in finding.message

    def test_whole_sanctioned_module_is_trusted_by_default(self, make_tree):
        # Matches the shipped config: any writer inside the sanctioned
        # *module* is trusted, however it is reached.
        config = FlowConfig(
            hot_root_modules=(),
            sanctioned_commit_modules=("repro.crash.persistence",),
        )
        root = make_tree({
            "repro/crash/persistence.py": PERSISTENCE,
            "repro/app.py": "from repro.crash.persistence import Model\n"
                            "def tamper(m, image):\n"
                            "    m.sneak_write(image)\n",
        })
        assert f803(lint_paths([root], config)) == []
