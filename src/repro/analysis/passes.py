"""The whole-program passes: the D/U/C properties across function
boundaries, over the resolved call graph.

* **F801** determinism taint — a function is a *source* when its body
  consults ambient entropy (wall clocks, stdlib ``random``, unseeded
  numpy generators, ``os.urandom``-style calls) or iterates an
  unordered set.  Every source inside the forward call cone of the
  simulation hot paths (:attr:`FlowConfig.hot_root_modules`) is
  reported with the root -> ... -> source chain — laundered through any
  number of calls, modules, method dispatch, partials and pool workers.
* **F802** unit typestate — unit tags (``_bytes``, ``_blocks``,
  ``_us``...) are propagated through returns (a least fixpoint over
  ``return g(...)`` chains), and checked at call arguments, at
  ``x_bytes = f(...)`` bindings, and against unit-named functions.
* **F803** commit-path effects — a committed-image write is legal only
  when *every* call path reaching it is rooted in the sanctioned commit
  entry points; a helper writing on behalf of an unsanctioned caller —
  the "mutate via helper" hole in C601 — is reported with the launder
  path entry -> ... -> writer.
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

from .callgraph import CallEdge, CallGraph, reach_down, reach_up
from .rules import COMMIT_PATH_MODULE
from .symbols import Finding, FunctionInfo, unit_suffix_of

__all__ = ["FlowConfig", "infer_return_units", "run_passes"]


@dataclass(frozen=True)
class FlowConfig:
    """Where the whole-program passes anchor their roots and sinks.

    The defaults describe the repro tree; fixture tests substitute
    their own roots so each pass can be exercised on a toy project.
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
        "repro.tiering.store",
    )
    #: Extra hot-path root functions by fqn.
    hot_root_fqns: tuple[str, ...] = ()
    #: Modules forming the sanctioned commit path: committed-image
    #: writes rooted here are legal (F803).
    sanctioned_commit_modules: tuple[str, ...] = (COMMIT_PATH_MODULE,)
    #: Extra sanctioned entry-point fqns.
    sanctioned_commit_fqns: tuple[str, ...] = ()

    def is_hot_root(self, fn: FunctionInfo) -> bool:
        return (fn.module in self.hot_root_modules
                or fn.fqn in self.hot_root_fqns)

    def is_sanctioned(self, fn: FunctionInfo) -> bool:
        return (fn.module in self.sanctioned_commit_modules
                or fn.fqn in self.sanctioned_commit_fqns)


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
        graph, [f for f, fn in functions.items() if config.is_hot_root(fn)])
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


def infer_return_units(graph: CallGraph) -> dict[str, frozenset[str]]:
    """Unit tags each function can return: the least fixpoint of
    ``units[f] = own return suffixes | units[g] for every return g(...)``."""
    functions = graph.project.functions
    units = {fqn: frozenset(fn.return_units) for fqn, fn in functions.items()}
    deps = {
        fqn: sorted({e.callee for e in graph.out_edges(fqn)
                     if e.kind == "direct" and e.site.dotted in fn.return_calls})
        for fqn, fn in functions.items() if fn.return_calls
    }
    changed = True
    while changed:
        changed = False
        for fqn in sorted(deps):
            merged = units[fqn].union(*(units[d] for d in deps[fqn]))
            if merged != units[fqn]:
                units[fqn], changed = merged, True
    return units


def _caller_view(fn: FunctionInfo) -> tuple[str, ...]:
    """Positional parameters as seen by a caller (``self``/``cls``
    dropped for methods)."""
    if fn.cls is not None and fn.params[:1] in (("self",), ("cls",)):
        return fn.params[1:]
    return fn.params


def _resolve_value_call(
    dotted: str, caller: FunctionInfo, graph: CallGraph
) -> str | None:
    """Resolve a value-producing call (argument / assignment RHS) to a
    unique project function, mirroring the high-precision resolver
    cases only."""
    functions = graph.project.functions
    if dotted in functions:
        return dotted
    local = f"{caller.module}.{dotted}"
    if "." not in dotted and local in functions:
        return local
    # A method call recorded at this site resolves through the graph's
    # own edges (same dotted string, direct kind, unique target).
    candidates = {e.callee for e in graph.out_edges(caller.fqn)
                  if e.kind == "direct" and e.site.dotted == dotted}
    return candidates.pop() if len(candidates) == 1 else None


def _unit_typestate(graph: CallGraph) -> list[Finding]:
    functions = graph.project.functions
    ret_units = infer_return_units(graph)
    findings: list[Finding] = []

    def returned_unit(dotted: str | None, caller: FunctionInfo) -> tuple[str, str] | None:
        """(callee, unit) when the call resolves to one function with
        exactly one inferred return unit."""
        callee = _resolve_value_call(dotted, caller, graph) if dotted else None
        units = ret_units.get(callee or "", frozenset())
        return (callee or "", next(iter(units))) if len(units) == 1 else None

    for fqn in sorted(functions):
        fn = functions[fqn]
        #: One finding per (callee, parameter, unit) per function.
        seen: set[tuple[str, str, str]] = set()
        for edge in graph.out_edges(fqn):
            if edge.kind != "direct" or edge.site.has_star:
                continue
            target = functions[edge.callee]
            positional = iter(_caller_view(target))
            for fact in edge.site.args:
                if fact.keyword is None:
                    param = next(positional, None)
                else:
                    param = (fact.keyword
                             if fact.keyword in target.params + target.kwonly
                             else None)
                param_unit = unit_suffix_of(param)
                if param is None or param_unit is None:
                    continue
                arg_unit = fact.unit
                if arg_unit is None:
                    inferred = returned_unit(fact.call_dotted, fn)
                    arg_unit = inferred[1] if inferred else None
                if (arg_unit is None or arg_unit == param_unit
                        or (target.fqn, param, arg_unit) in seen):
                    continue
                seen.add((target.fqn, param, arg_unit))
                findings.append(Finding(
                    "F802", fn.path, edge.lineno, 0,
                    f"argument carrying {arg_unit} passed to parameter "
                    f"'{param}' ({param_unit}) of '{target.fqn}'; convert "
                    f"through repro.common.units first",
                    _trace(graph, _along([edge], edge.callee, None))))
        # ``x_bytes = f(...)`` against f's inferred return unit.
        for target_unit, dotted, lineno in fn.unit_assigns:
            inferred = returned_unit(dotted, fn)
            if inferred is None or inferred[1] == target_unit:
                continue
            callee, ret_unit = inferred
            if (callee, "=", target_unit) in seen:
                continue
            seen.add((callee, "=", target_unit))
            findings.append(Finding(
                "F802", fn.path, lineno, 0,
                f"value returned by '{callee}' carries {ret_unit} but is bound "
                f"to a {target_unit} name; convert through repro.common.units "
                f"first",
                _trace(graph, [(fqn, lineno), (callee, None)])))
        # A function whose name names a unit must return that unit.
        name_unit = unit_suffix_of(fn.name)
        if name_unit is not None and "_to_" not in fn.name:
            for ret_unit in sorted(ret_units[fqn] - {name_unit}):
                findings.append(Finding(
                    "F802", fn.path, fn.lineno, 0,
                    f"function named with {name_unit} returns a {ret_unit} value",
                    _trace(graph, [(fqn, None)])))
    return findings


def _commit_effects(graph: CallGraph, config: FlowConfig) -> list[Finding]:
    functions = graph.project.functions
    findings: list[Finding] = []
    for writer in sorted(functions):
        fn = functions[writer]
        if not fn.committed_writes or config.is_sanctioned(fn):
            continue
        # Climb the caller chains, cutting at sanctioned functions:
        # a path that enters the writer *through* the commit path is
        # legal and must not be explored further upward.
        chains = reach_up(graph, writer,
                          stop=lambda f: config.is_sanctioned(functions[f]))
        bad_entries = sorted(
            f for f in chains
            if not graph.in_edges(f) and not config.is_sanctioned(functions[f]))
        if not bad_entries:
            continue
        entry = bad_entries[0]
        attr, line = fn.committed_writes[0]
        extra = (f" (and {len(bad_entries) - 1} more unsanctioned entry "
                 f"point(s))" if len(bad_entries) > 1 else "")
        findings.append(Finding(
            "F803", fn.path, line, 0,
            f"committed-image attribute '.{attr}' is written on a path rooted "
            f"at unsanctioned entry point '{entry}'{extra}; route the "
            f"mutation through PersistenceModel.commit()",
            _trace(graph, _along(chains[entry], writer, line))))
    return findings


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
    """Every whole-program finding, before waivers.  Units and seed
    threading are checked tree-wide; only F801's roots and F803's
    sanctioned entry points come from ``config``."""
    return (_determinism_taint(graph, config) + _unit_typestate(graph)
            + _commit_effects(graph, config) + _seed_threading(graph))
