"""The whole-program passes: determinism across function boundaries,
over the resolved call graph.

* **F801** determinism taint — a function is a *source* when its body
  consults ambient entropy (wall clocks, stdlib ``random``, unseeded
  numpy generators, ``os.urandom``-style calls) or iterates an
  unordered set.  Every source inside the forward call cone of the
  simulation hot paths (:attr:`FlowConfig.hot_root_modules`) is
  reported with the root -> ... -> source chain — laundered through any
  number of calls, modules, method dispatch, partials and pool workers.
* **F804** seed threading — a function that *holds* a seed or generator
  (a ``seed``/``rng``-ish parameter, or a local bound from
  ``make_rng``/``default_rng``/``spawn``) must thread it into every
  callee whose seed parameter would otherwise fall back to its default
  and silently re-seed that subsystem.  A call satisfies the contract
  when the seed parameter receives *any* argument (an explicit constant
  is visible and deliberate) or any argument expression is seed-ish.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import CallEdge, CallGraph, reach_down
from .symbols import Finding, FunctionInfo

__all__ = ["FlowConfig", "run_passes"]


@dataclass(frozen=True)
class FlowConfig:
    """Where the determinism-taint pass anchors its roots.

    The default describes the repro tree; fixture tests substitute
    their own roots so the pass can be exercised on a toy project.
    """

    #: Modules whose functions are the simulation hot paths: anything
    #: they (transitively) call must be deterministic (F801).  These
    #: are the layers whose digests and baselines are contractual.
    hot_root_modules: tuple[str, ...] = (
        "repro.fs.cp",
        "repro.core.allocator",
        "repro.traffic.engine",
        "repro.crash.explorer",
        "repro.drill.driver",
        "repro.drill.events",
        "repro.cluster.cluster",
        "repro.cluster.shard",
        "repro.cluster.migration",
        "repro.cluster.scheduler",
        "repro.tiering.migration",
        "repro.fs.aggregate",
    )


Hop = tuple[str, int | None]


def _along(chain: list[CallEdge], last: str, last_line: int | None) -> list[Hop]:
    """A call chain ending in ``last`` as hops: each carries the line
    *in its own file* where it calls the next one, the last carries
    ``last_line`` (the interesting statement)."""
    return [(edge.caller, edge.lineno) for edge in chain] + [(last, last_line)]


def _trace(graph: CallGraph, hops: list[Hop]) -> tuple[str, ...]:
    """Render hops as ``fqn (path:line)``; a None line is the
    function's definition line."""
    functions = graph.project.functions
    return tuple(
        f"{'-> ' if i else ''}{fqn} ({functions[fqn].path}:"
        f"{line if line is not None else functions[fqn].lineno})"
        for i, (fqn, line) in enumerate(hops))


def _determinism_taint(graph: CallGraph, config: FlowConfig) -> list[Finding]:
    functions = graph.project.functions
    chains = reach_down(
        graph, [f for f, fn in functions.items()
                if fn.module in config.hot_root_modules])
    findings: list[Finding] = []
    for fqn in sorted(chains):
        fn, chain = functions[fqn], chains[fqn]
        root = chain[0].caller if chain else fqn
        for src in fn.sources:
            findings.append(Finding(
                "F801", fn.path, src.lineno, 0,
                f"nondeterministic source ({src.kind}: {src.detail}) is "
                f"reachable from hot path '{root}'",
                _trace(graph, _along(chain, fqn, src.lineno))))
    return findings


def _caller_view(fn: FunctionInfo) -> tuple[str, ...]:
    """Positional parameters as seen by a caller (``self``/``cls``
    dropped for methods)."""
    if fn.cls is not None and fn.params[:1] in (("self",), ("cls",)):
        return fn.params[1:]
    return fn.params


def _seed_is_passed(edge: CallEdge, target: FunctionInfo) -> bool:
    positional = iter(_caller_view(target))
    for fact in edge.site.args:
        param = fact.keyword if fact.keyword is not None else next(positional, None)
        if fact.seedish or param in target.seed_params:
            return True
    return False


def _seed_threading(graph: CallGraph) -> list[Finding]:
    functions = graph.project.functions
    findings: list[Finding] = []
    for fqn in sorted(functions):
        fn = functions[fqn]
        if not fn.seed_params and not fn.has_local_rng:
            continue
        #: One finding per callee per function: its first such call.
        seen: set[str] = set()
        for edge in graph.out_edges(fqn):
            target = functions[edge.callee]
            if (edge.kind != "direct" or edge.site.has_star
                    or edge.callee == fqn or edge.callee in seen
                    or not target.seed_defaults
                    or _seed_is_passed(edge, target)):
                continue
            seen.add(edge.callee)
            holder = (f"parameter '{fn.seed_params[0]}'" if fn.seed_params
                      else "a locally constructed rng")
            findings.append(Finding(
                "F804", fn.path, edge.lineno, 0,
                f"holds {holder} but calls '{target.fqn}' without threading "
                f"it; '{target.seed_defaults[0]}' silently falls back to its "
                f"default and re-seeds the subsystem",
                _trace(graph, _along([edge], edge.callee, None))))
    return findings


def run_passes(graph: CallGraph, config: FlowConfig) -> list[Finding]:
    """Every whole-program finding, before waivers.  Seed threading is
    checked tree-wide; only F801's roots come from ``config``."""
    return _determinism_taint(graph, config) + _seed_threading(graph)
