"""Project symbol table and call graph for the whole-program passes.

:func:`load_project` extracts every module under the given roots (the
one AST walk, :mod:`repro.analysis.symbols`); :func:`build_graph` links
the raw call sites into a resolved :class:`CallGraph`;
:func:`reach_down` is the reachability primitive, with witness edges
for root -> source traces.  All iteration orders are sorted, so every
pass output is deterministic for a given project.

Resolution strategy, in decreasing precision:

1. **Canonical dotted names** — imports are canonicalized during
   extraction, so ``make_rng(...)`` resolves straight to
   ``repro.common.rng.make_rng``; ``mod.Class(...)`` resolves to the
   class constructor through its hierarchy.
2. **``self.m()`` / ``cls.m()``** — resolved through the caller's
   class hierarchy: the nearest ancestor definitions *plus* every
   descendant override (virtual dispatch may pick any of them).
3. **Locally typed receivers** — ``st = TenantState(...); st.m()``
   binds ``st`` for the rest of the function.
4. **Class-hierarchy analysis by method name** — an unknown receiver's
   ``.m()`` resolves to every project class that defines ``m``, except
   for a stoplist of ubiquitous builtin-container method names.

``functools.partial``, pool submissions (``submit``/``map``/...) and
``Process(target=...)`` contribute ``kind != "direct"`` edges: the
wrapped callable is eventually invoked, so taint must flow through it,
but its argument mapping is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .symbols import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    extract_module,
    module_name_for,
)

__all__ = ["CallEdge", "CallGraph", "Project", "build_graph", "load_project",
           "reach_down"]

#: Method names too generic to resolve by class-hierarchy analysis on
#: an unknown receiver: they are overwhelmingly builtin container /
#: numpy / file methods and would wire the graph into a hairball.
CHA_STOPLIST: frozenset[str] = frozenset(
    {
        "add", "all", "any", "append", "astype", "clear", "close", "copy",
        "count", "cumsum", "decode", "discard", "encode", "endswith",
        "extend", "fill", "findall", "finditer", "flush", "format", "get",
        "group", "hexdigest", "index", "insert", "item", "items", "join",
        "keys", "lower", "lstrip", "match", "max", "mean", "min", "nonzero",
        "partition", "pop", "popleft", "read", "remove", "replace",
        "reshape", "rstrip", "search", "seek", "setdefault", "sort",
        "split", "startswith", "strip", "sum", "tell", "tobytes", "tolist",
        "update", "upper", "values", "view", "write",
    }
)


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller -> callee edge."""

    caller: str
    callee: str
    lineno: int
    kind: str
    site: CallSite


@dataclass
class Project:
    """Every module's extracted symbols, fully indexed."""

    modules: list[ModuleInfo]
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mod in self.modules:
            self.functions.update(mod.functions)
            self.classes.update(mod.classes)


@dataclass
class CallGraph:
    """Resolved caller -> callee edges, plus the owning project."""

    project: Project
    edges: dict[str, list[CallEdge]] = field(default_factory=dict)
    #: Call sites that resolved to no project function (external or
    #: builtin callees) — kept for diagnostics.
    unresolved: int = 0

    def out_edges(self, fqn: str) -> list[CallEdge]:
        return self.edges.get(fqn, [])


def load_project(paths: Iterable[str | Path]) -> Project:
    """Extract every ``*.py`` file under the given files/directories."""
    modules: list[ModuleInfo] = []
    for entry in paths:
        p = Path(entry)
        for file in sorted(p.rglob("*.py")) if p.is_dir() else [p]:
            modules.append(extract_module(
                file.read_text(encoding="utf-8"), file, module_name_for(file)))
    return Project(modules)


class _Resolver:
    """Resolves raw call sites against the project indexes."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: (module, simple name) -> fqn for every function in a module.
        self.by_module_name: dict[tuple[str, str], str] = {}
        #: method name -> sorted fqns of every method with that name.
        self.by_method_name: dict[str, list[str]] = {}
        #: class simple name -> sorted class fqns.
        self.class_by_name: dict[str, list[str]] = {}
        #: class fqn -> direct subclass fqns.
        self.subclasses: dict[str, list[str]] = {}
        for fn in project.functions.values():
            self.by_module_name.setdefault((fn.module, fn.name), fn.fqn)
            if fn.cls is not None:
                self.by_method_name.setdefault(fn.name, []).append(fn.fqn)
        for lst in self.by_method_name.values():
            lst.sort()
        for cls in project.classes.values():
            self.class_by_name.setdefault(cls.name, []).append(cls.fqn)
        for lst in self.class_by_name.values():
            lst.sort()
        for cls in project.classes.values():
            for base in cls.bases:
                base_fqn = self._class_fqn(base)
                if base_fqn is not None:
                    self.subclasses.setdefault(base_fqn, []).append(cls.fqn)
        for lst in self.subclasses.values():
            lst.sort()

    def _class_fqn(self, dotted: str) -> str | None:
        if dotted in self.project.classes:
            return dotted
        candidates = self.class_by_name.get(dotted.split(".")[-1], [])
        return candidates[0] if len(candidates) == 1 else None

    def _ancestors(self, cls_fqn: str) -> list[str]:
        seen: list[str] = []
        work = [cls_fqn]
        while work:
            current = work.pop(0)
            if current in seen:
                continue
            seen.append(current)
            info = self.project.classes.get(current)
            if info is None:
                continue
            for base in info.bases:
                base_fqn = self._class_fqn(base)
                if base_fqn is not None:
                    work.append(base_fqn)
        return seen

    def _descendants(self, cls_fqn: str) -> list[str]:
        seen: list[str] = []
        work = list(self.subclasses.get(cls_fqn, []))
        while work:
            current = work.pop(0)
            if current in seen:
                continue
            seen.append(current)
            work.extend(self.subclasses.get(current, []))
        return seen

    def resolve_method(self, cls_fqn: str, name: str) -> list[str]:
        """Definitions of ``name`` visible from ``cls_fqn``: nearest
        ancestor definitions plus descendant overrides."""
        targets: list[str] = []
        for candidate in self._ancestors(cls_fqn) + self._descendants(cls_fqn):
            info = self.project.classes.get(candidate)
            if info is not None and name in info.methods:
                fqn = info.methods[name]
                if fqn not in targets:
                    targets.append(fqn)
        return targets

    def resolve_ctor(self, cls_fqn: str) -> list[str]:
        for candidate in self._ancestors(cls_fqn):
            info = self.project.classes.get(candidate)
            if info is not None and "__init__" in info.methods:
                return [info.methods["__init__"]]
        return []

    def resolve(self, caller: FunctionInfo, site: CallSite) -> list[str]:
        dotted = site.dotted
        parts = dotted.split(".")
        # 1. fully qualified function or class.
        if dotted in self.project.functions:
            return [dotted]
        if dotted in self.project.classes:
            return self.resolve_ctor(dotted)
        # 2. simple name: same-module function or class.
        if len(parts) == 1:
            fqn = self.by_module_name.get((caller.module, dotted))
            if fqn is not None:
                return [fqn]
            cls_fqn = f"{caller.module}.{dotted}"
            if cls_fqn in self.project.classes:
                return self.resolve_ctor(cls_fqn)
            return []
        # 3. method call on a typed receiver.
        head, tail = parts[0], parts[-1]
        if len(parts) == 2:
            if head in ("self", "cls") and caller.cls is not None:
                cls_fqn = f"{caller.module}.{caller.cls}"
                targets = self.resolve_method(cls_fqn, tail)
                if targets:
                    return targets
            receiver_cls = caller.local_types.get(head)
            if receiver_cls is not None:
                cls_fqn2 = self._class_fqn(receiver_cls)
                if cls_fqn2 is not None:
                    targets = self.resolve_method(cls_fqn2, tail)
                    if targets:
                        return targets
        # 4. dotted tail might be a module-level function referenced
        #    through a partially-canonical prefix (``rng.make_rng``).
        prefix = ".".join(parts[:-1])
        for module in (prefix, f"{caller.module}.{prefix}"):
            fqn2 = self.by_module_name.get((module, tail))
            if fqn2 is not None:
                return [fqn2]
        # 5. class-hierarchy analysis by method name.
        if tail not in CHA_STOPLIST and not dotted.startswith(
                ("numpy.", "np.")):
            return list(self.by_method_name.get(tail, []))
        return []


def build_graph(project: Project) -> CallGraph:
    """Link every raw call site into a resolved call graph."""
    resolver = _Resolver(project)
    graph = CallGraph(project=project)
    for fqn in sorted(project.functions):
        fn = project.functions[fqn]
        seen: set[tuple[str, int, str]] = set()
        for site in fn.calls:
            targets = resolver.resolve(fn, site)
            if not targets:
                graph.unresolved += 1
                continue
            for target in targets:
                key = (target, site.lineno, site.kind)
                if key in seen:
                    continue
                seen.add(key)
                edge = CallEdge(caller=fqn, callee=target,
                                lineno=site.lineno, kind=site.kind, site=site)
                graph.edges.setdefault(fqn, []).append(edge)
    return graph


def reach_down(graph: CallGraph, roots: list[str]) -> dict[str, list[CallEdge]]:
    """Forward reachability from ``roots`` along call edges: every
    reachable function mapped to the edge chain from its root (roots
    map to ``[]``).  The BFS visits functions in sorted order, so the
    chain (and every reported trace) is deterministic."""
    chains: dict[str, list[CallEdge]] = {}
    frontier = sorted(set(roots) & set(graph.project.functions))
    for root in frontier:
        chains[root] = []
    while frontier:
        next_frontier: list[str] = []
        for fqn in frontier:
            for edge in graph.out_edges(fqn):
                if edge.callee not in chains:
                    chains[edge.callee] = chains[fqn] + [edge]
                    next_frontier.append(edge.callee)
        frontier = sorted(set(next_frontier))
    return chains

