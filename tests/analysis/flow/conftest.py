"""Fixture-tree helpers for the whole-program (F-rule) tests.

Each test builds a tiny synthetic package under ``tmp_path`` (with
``__init__.py`` chains so modules get real dotted names), then runs
:func:`repro.analysis.lint_paths` over it with a :class:`FlowConfig`
pointing at the toy modules.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.callgraph import build_graph, load_project


@pytest.fixture()
def make_tree(tmp_path):
    """Write ``{relpath: source}`` files (creating ``__init__.py`` in
    every package directory) and return the tree root."""

    def _make(files: dict[str, str]) -> Path:
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            d = path.parent
            while d != tmp_path:
                (d / "__init__.py").touch()
                d = d.parent
            path.write_text(source, encoding="utf-8")
        return tmp_path

    return _make


@pytest.fixture()
def make_graph(make_tree):
    """Build a fixture tree and return its resolved call graph."""

    def _make(files: dict[str, str]):
        root = make_tree(files)
        return build_graph(load_project([root]))

    return _make


def edge_pairs(graph) -> set[tuple[str, str, str]]:
    """Every (caller, callee, kind) triple in the graph."""
    return {
        (e.caller, e.callee, e.kind)
        for edges in graph.edges.values()
        for e in edges
    }


def hops(finding) -> list[str]:
    """The function names along a finding's call-chain trace."""
    return [h.removeprefix("-> ").split(" ")[0] for h in finding.trace]
