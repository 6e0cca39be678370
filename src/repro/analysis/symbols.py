"""The one AST walk: per-file findings and interprocedural facts.

:func:`extract_module` parses a module once and visits it once.  Every
detector runs in that single pass and feeds both consumers:

* the **per-file rules** (D/L/B/E in :mod:`repro.analysis.rules`)
  emit a :class:`Finding` on the spot;
* the **whole-program passes** (:mod:`repro.analysis.passes`) get the
  nondeterminism sources as facts on the enclosing
  :class:`FunctionInfo`, plus every call site with the argument facts
  the passes consume (seed-ish expressions, partial/pool-worker
  indirections).

The walk is deliberately syntactic: no imports are executed and no
types are inferred beyond (a) names bound to a set / ndarray / class
constructor and (b) the canonical dotted origin of imported names.  It
also collects the module's ``# simlint:`` waiver comments; applying
them is :mod:`repro.analysis.simlint`'s job, after the passes ran.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .rules import (
    ENTROPY_CALLS,
    HOT_PATH_PACKAGES,
    LAYER_RANK,
    REPORTING_CLOCK_CALLS,
    RULES,
    WALL_CLOCK_CALLS,
)

__all__ = [
    "ArgFact",
    "CallSite",
    "ClassInfo",
    "Finding",
    "FunctionInfo",
    "ModuleInfo",
    "Pragma",
    "SourceFact",
    "extract_module",
    "module_name_for",
]

#: Rank assigned to modules outside the package DAG (``repro.cli``,
#: ``repro/__init__`` ...): above everything, so ranked packages may
#: not import them.
_TOP_RANK = 99

#: Legacy ``numpy.random`` module-level (global-state) entry points.
_NP_RANDOM_LEGACY = frozenset(
    {"seed", "random", "rand", "randn", "randint", "random_sample", "choice",
     "shuffle", "permutation", "uniform", "normal", "binomial", "poisson",
     "exponential"}
)

#: ``numpy.<tail>`` callables whose result B502 treats as an ndarray.
#: Deliberately conservative: only constructors/transforms that always
#: return arrays, so a tracked name is an array with high confidence.
_NP_ARRAY_CTORS = frozenset(
    {"empty", "zeros", "ones", "full", "array", "asarray",
     "ascontiguousarray", "arange", "linspace", "concatenate", "stack",
     "frombuffer", "fromiter", "where", "cumsum", "sort", "argsort",
     "maximum", "minimum", "repeat", "tile", "copy", "diff", "empty_like",
     "zeros_like", "ones_like", "full_like", "add.accumulate",
     "maximum.accumulate", "minimum.accumulate"}
)

#: Parameter / local names that carry a seed or generator.
_SEEDISH_EXACT = frozenset({"seed", "rng", "generator", "seed_seq"})
_SEEDISH_SUFFIXES = ("_seed", "_rng")

#: Callables that *produce* a generator; a local assigned from one of
#: these gives the enclosing function a seed in scope.
_RNG_FACTORY_TAILS = frozenset({"make_rng", "default_rng", "spawn"})

#: Pool/executor submission method names: the first callable argument
#: runs later (possibly in another process) — an indirect call edge.
_SUBMIT_TAILS = frozenset({"submit", "map", "imap", "imap_unordered",
                           "starmap", "apply_async", "apply"})

#: Thread/process constructors taking ``target=``.
_TARGET_CTORS = frozenset({"Process", "Thread", "Timer"})

_PRAGMA = re.compile(
    r"#\s*simlint:\s*disable(?P<file>-file)?="
    r"(?P<ids>[A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)(?:\s*—\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One violation of one rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Call-chain hops, outermost first (F-rules; empty for per-file
    #: rules).
    trace: tuple[str, ...] = ()
    #: The reason text of the in-place pragma that waived this finding;
    #: None when it is not waived.
    waiver: str | None = None

    def __str__(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        return "\n".join([head, *(f"    {hop}" for hop in self.trace)])


@dataclass(frozen=True)
class Pragma:
    """One rule id waived by one ``# simlint: disable`` comment."""

    rule: str
    #: The line whose findings it waives; 0 waives the whole file.
    covers: int
    reason: str
    #: Where the comment itself sits (what P901 points at).
    line: int
    col: int


@dataclass(frozen=True)
class ArgFact:
    """What the passes need to know about one call argument."""

    #: Keyword name, or None for a positional argument.
    keyword: str | None
    #: True when the expression mentions a seed/rng-ish name or an RNG
    #: factory — it satisfies a seed parameter.
    seedish: bool


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: Canonical dotted callee: imports are resolved to their origin
    #: (``make_rng`` -> ``repro.common.rng.make_rng``); method calls
    #: keep their receiver head (``self.run_cp``, ``st.take_riders``).
    dotted: str
    lineno: int
    #: "direct" for ordinary calls; "partial" / "submit" / "target"
    #: for functools.partial, pool submissions, and Process(target=...)
    #: indirections (edges only — argument facts are not mapped).
    kind: str
    args: tuple[ArgFact, ...]
    #: True when *args/**kwargs make the argument mapping unknowable.
    has_star: bool


@dataclass(frozen=True)
class SourceFact:
    """A direct nondeterminism source inside a function body."""

    #: "wall-clock" | "stdlib-random" | "unseeded-rng" | "entropy"
    #: | "set-iteration"
    kind: str
    detail: str
    lineno: int


@dataclass
class FunctionInfo:
    """One function or method definition and the facts of its body
    (nested definitions excluded — they get their own entry)."""

    fqn: str
    module: str
    name: str
    cls: str | None
    path: str
    lineno: int
    #: Parameter names in positional order, including ``self``.
    params: tuple[str, ...] = ()
    #: Number of trailing positional parameters that carry defaults.
    n_defaults: int = 0
    #: Keyword-only parameters that carry defaults.
    kwonly_defaults: tuple[str, ...] = ()
    #: Parameters (positional or kw-only) that carry a seed/generator.
    seed_params: tuple[str, ...] = ()
    #: True when the body binds a local from an RNG factory.
    has_local_rng: bool = False
    #: Direct nondeterminism sources in the body.
    sources: list[SourceFact] = field(default_factory=list)
    #: Every call site in the body.
    calls: list[CallSite] = field(default_factory=list)
    #: Local variable -> dotted class name for ``var = ClassName(...)``.
    local_types: dict[str, str] = field(default_factory=dict)

    @property
    def seed_defaults(self) -> tuple[str, ...]:
        """Seed parameters that carry a default (omittable at the call
        site — the silent-reseed hazard F804 guards)."""
        defaulted = set(self.kwonly_defaults)
        if self.n_defaults:
            defaulted.update(self.params[-self.n_defaults:])
        return tuple(p for p in self.seed_params if p in defaulted)


@dataclass
class ClassInfo:
    """One class definition with its (canonical dotted) base names."""

    fqn: str
    name: str
    bases: tuple[str, ...] = ()
    #: method name -> function fqn
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything extracted from one source file."""

    module: str
    path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Per-file rule findings, before waivers.
    findings: list[Finding] = field(default_factory=list)
    pragmas: list[Pragma] = field(default_factory=list)


def _seedish_name(name: str) -> bool:
    """True when ``name`` conventionally carries a seed or generator."""
    return name in _SEEDISH_EXACT or name.endswith(_SEEDISH_SUFFIXES)


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from the package ``__init__.py``
    chain: ``src/repro/fs/cp.py`` -> ``repro.fs.cp``; works equally for
    test fixture trees rooted anywhere."""
    p = path.resolve()
    names = [] if p.stem == "__init__" else [p.stem]
    d = p.parent
    while (d / "__init__.py").exists() and d.parent != d:
        names.append(d.name)
        d = d.parent
    return ".".join(reversed(names)) or p.stem


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` for a ``self.attr`` expression, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _annotation_tail(annotation: ast.AST | None) -> str:
    """Last dotted component of an annotation's base (``np.ndarray`` ->
    ``ndarray``, ``set[int]`` -> ``set``), "" when there is none."""
    if annotation is None:
        return ""
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return (_dotted(base) or "").split(".")[-1]


def _is_set_ctor(node: ast.AST | None) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _dotted(node.func) in ("set", "frozenset")


def _classify_source(
    canonical: str, node: ast.Call
) -> tuple[str, str, str | None] | None:
    """``(kind, detail, per-file rule)`` when the call consults ambient
    entropy, else None.  Every kind is an F801 source; the per-file
    D-rule (None for the reporting clocks and entropy calls D103
    tolerates outside hot paths) is the subset flagged wherever it
    appears."""
    parts = canonical.split(".")
    if parts[0] == "random":
        return "stdlib-random", f"{canonical}()", "D101"
    if canonical in WALL_CLOCK_CALLS:
        return "wall-clock", f"{canonical}()", "D103"
    if canonical in REPORTING_CLOCK_CALLS:
        return "wall-clock", f"{canonical}()", None
    if canonical in ENTROPY_CALLS:
        return "entropy", f"{canonical}()", None
    if parts[0] not in ("numpy", "np") or parts[1:2] != ["random"] or len(parts) != 3:
        return None
    if parts[2] == "default_rng":
        none_seed = (len(node.args) == 1
                     and isinstance(node.args[0], ast.Constant)
                     and node.args[0].value is None)
        if none_seed or not (node.args or node.keywords):
            return "unseeded-rng", "numpy default_rng() with no seed", "D102"
    elif parts[2] in _NP_RANDOM_LEGACY:
        return ("unseeded-rng",
                f"legacy global-state call np.random.{parts[2]}(); draw from a "
                f"seeded Generator (repro.common.rng.make_rng) instead", "D102")
    return None


class _Bindings:
    """Names (per scope) and ``self.<attr>``s (module-wide) known to
    hold one kind of value: sets for D104, ndarrays for B502."""

    def __init__(self) -> None:
        self.scopes: list[set[str]] = [set()]
        self.attrs: set[str] = set()

    def record(self, target: ast.AST, holds: bool) -> None:
        attr = _self_attr(target)
        if isinstance(target, ast.Name):
            group, key = self.scopes[-1], target.id
        elif attr is not None:
            group, key = self.attrs, attr
        else:
            return
        (group.add if holds else group.discard)(key)

    def holds(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self.scopes)
        return _self_attr(node) in self.attrs


class _Extractor(ast.NodeVisitor):
    """Single-pass visitor: applies every per-file rule and records the
    facts of every function body."""

    def __init__(self, path: str, module: str, is_package: bool) -> None:
        self.info = ModuleInfo(module=module, path=path)
        self.is_package = is_package
        parts = module.split(".")
        chain = parts[1:] if is_package else parts[1:-1]
        #: The repro subpackage that positions this module in the DAG;
        #: None for top-level modules and files outside the repro tree.
        self.package = chain[0] if parts[0] == "repro" and chain else None
        #: local alias -> canonical dotted origin ("np" -> "numpy").
        self.aliases: dict[str, str] = {}
        self.sets = _Bindings()
        self.arrays = _Bindings()
        #: The function / class whose body is being visited.
        self.fn: FunctionInfo | None = None
        self.cls: ClassInfo | None = None

    # -- helpers -------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, detail: str = "") -> None:
        self.info.findings.append(Finding(
            rule, self.info.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), RULES[rule].summary + detail))

    def _canonical(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head

    def _canonical_callee(self, node: ast.AST) -> str | None:
        """Canonical dotted callee when ``node`` is a direct call."""
        raw = _dotted(node.func) if isinstance(node, ast.Call) else None
        return self._canonical(raw) if raw is not None else None

    # -- imports: the alias table, D101, L201 --------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self.aliases[alias.asname or root] = alias.name if alias.asname else root
            if root == "random":
                self._emit("D101", node)
            if root == "repro":
                self._check_layering(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # ``level`` dots climb from the containing package (which,
            # for a package __init__, is the module itself).
            parts = self.info.module.split(".")
            keep = len(parts) - node.level + (1 if self.is_package else 0)
            base = ".".join(parts[:max(keep, 0)] + ([base] if base else []))
        for alias in node.names:
            if alias.name != "*":
                self.aliases[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name)
        root = base.split(".")[0]
        if root == "random" and not node.level:
            self._emit("D101", node)
        if base == "repro":
            # ``from repro import obs`` / ``from .. import obs``: each
            # imported name is the actual target package.
            for alias in node.names:
                self._check_layering(node, f"repro.{alias.name}")
        elif root == "repro":
            self._check_layering(node, base)

    def _check_layering(self, node: ast.AST, target_module: str) -> None:
        source_rank = LAYER_RANK.get(self.package or "")
        if source_rank is None:
            return
        parts = target_module.split(".")
        # ``import repro``: the root package re-exports high-level
        # names; treat as top.
        target_pkg = parts[1] if len(parts) > 1 else "repro"
        if target_pkg == self.package:
            return
        target_rank = LAYER_RANK.get(target_pkg, _TOP_RANK)
        if target_rank >= source_rank:
            self._emit(
                "L201", node,
                f": package '{self.package}' (rank {source_rank}) may not "
                f"import '{target_pkg}' (rank {target_rank}); the DAG is "
                + " -> ".join(sorted(LAYER_RANK, key=LAYER_RANK.__getitem__)))

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = (_dotted(base) for base in node.bases)
        cls = ClassInfo(
            fqn=f"{self.info.module}.{node.name}", name=node.name,
            bases=tuple(self._canonical(b) for b in bases if b is not None))
        self.info.classes[cls.fqn] = cls
        outer, self.cls = self.cls, cls
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # Decorators, defaults and annotations run in the enclosing scope.
        for expr in node.decorator_list:
            self.visit(expr)
        self.visit(node.args)
        args = node.args
        params = tuple(a.arg for a in args.posonlyargs + args.args)
        kwonly = tuple(a.arg for a in args.kwonlyargs)
        # A nested function stays attributed to its enclosing class;
        # calls to it resolve by simple name within the module.
        qualname = f"{self.cls.name}.{node.name}" if self.cls else node.name
        fn = FunctionInfo(
            fqn=f"{self.info.module}.{qualname}", module=self.info.module,
            name=node.name, cls=self.cls.name if self.cls else None,
            path=self.info.path, lineno=node.lineno, params=params,
            n_defaults=len(args.defaults),
            kwonly_defaults=tuple(
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None),
            seed_params=tuple(p for p in params + kwonly if _seedish_name(p)),
        )
        self.info.functions[fn.fqn] = fn
        if self.cls is not None:
            self.cls.methods[node.name] = fn.fqn
        outer, self.fn = self.fn, fn
        self.sets.scopes.append(set())
        self.arrays.scopes.append({
            a.arg for a in [*args.args, *args.kwonlyargs]
            if _annotation_tail(a.annotation) in ("ndarray", "NDArray")})
        for stmt in node.body:
            self.visit(stmt)
        self.sets.scopes.pop()
        self.arrays.scopes.pop()
        self.fn = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- calls: D101-D103/F801 sources, E404, call sites ---------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            canonical = self._canonical(dotted)
            source = _classify_source(canonical, node)
            if source is not None:
                kind, detail, rule = source
                if rule is not None:
                    self._emit(rule, node, f": {detail}")
                if self.fn is not None:
                    self.fn.sources.append(SourceFact(kind, detail, node.lineno))
            if self.fn is not None:
                self._record_call(self.fn, node, canonical)
            if dotted == "print" and self.package is not None:
                # Top-level modules (cli.py, __main__) are the
                # sanctioned user-facing output sites.
                self._emit("E404", node)
            consumer = dotted.split(".")[-1]
            if consumer in ("list", "tuple", "enumerate", "iter"):
                for arg in node.args:
                    self._check_iteration(
                        arg, f" (materialized via {consumer}(); wrap the set "
                             f"in sorted())")
        self.generic_visit(node)

    def _arg_fact(self, node: ast.AST, keyword: str | None) -> ArgFact:
        seedish = False
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if (name is not None and _seedish_name(name)) or (
                    isinstance(sub, ast.Call)
                    and (_dotted(sub.func) or "").split(".")[-1] in _RNG_FACTORY_TAILS):
                seedish = True
                break
        return ArgFact(keyword, seedish)

    def _record_call(self, fn: FunctionInfo, node: ast.Call, canonical: str) -> None:
        has_star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords)
        facts = tuple(
            [self._arg_fact(a, None) for a in node.args
             if not isinstance(a, ast.Starred)]
            + [self._arg_fact(kw.value, kw.arg) for kw in node.keywords
               if kw.arg is not None])
        fn.calls.append(CallSite(canonical, node.lineno, "direct", facts, has_star))
        # functools.partial / pool submission / Process(target=...):
        # the wrapped callable eventually runs — an indirect edge.
        tail = canonical.split(".")[-1]
        callee: ast.AST | None = None
        kind = ""
        if tail == "partial" and node.args:
            callee, kind = node.args[0], "partial"
        elif tail in _SUBMIT_TAILS and node.args:
            callee, kind = node.args[0], "submit"
        elif tail in _TARGET_CTORS:
            for kw in node.keywords:
                if kw.arg == "target":
                    callee, kind = kw.value, "target"
        raw = _dotted(callee) if callee is not None else None
        if raw is not None:
            fn.calls.append(CallSite(self._canonical(raw), node.lineno, kind, (), True))

    # -- D104 / F801: unordered-set iteration --------------------------
    def _check_iteration(
        self, node: ast.AST,
        hint: str = "; wrap it in sorted() for a stable order",
    ) -> None:
        if _is_set_ctor(node) or self.sets.holds(node):
            self._emit("D104", node, hint)
            if self.fn is not None:
                self.fn.sources.append(SourceFact(
                    "set-iteration", "iteration over an unordered set",
                    getattr(node, "lineno", self.fn.lineno)))

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_iteration(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self._check_array_index_loop(node)
        self.generic_visit(node)

    # -- B502: element-at-a-time array loops in hot-path packages ------
    def _is_array_expr(self, node: ast.AST | None) -> bool:
        if isinstance(node, ast.Call):
            head, _, tail = (self._canonical_callee(node) or "").partition(".")
            return head == "numpy" and tail in _NP_ARRAY_CTORS
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            return self._is_array_expr(node.value)  # a view is still an array
        return node is not None and self.arrays.holds(node)

    def _is_array_ctor(self, node: ast.AST | None) -> bool:
        """What makes a *binding* an array: a numpy constructor or a
        slice of an array — a bare alias of a tracked name does not."""
        return isinstance(node, (ast.Call, ast.Subscript)) and self._is_array_expr(node)

    def _check_array_index_loop(self, node: ast.For) -> None:
        """A for body subscripting a tracked ndarray with the loop
        variable is the interpreter-bound pattern the batch pipeline
        replaced; flag it only inside the hot-path packages."""
        if self.package not in HOT_PATH_PACKAGES:
            return
        loop_vars = {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Name)
                        and sub.slice.id in loop_vars
                        and self._is_array_expr(sub.value)):
                    name = _dotted(sub.value) or "<array>"
                    self._emit("B502", node,
                               f": '{name}[{sub.slice.id}]' inside this loop; "
                               f"batch the operation or waive the reference "
                               f"path explicitly")
                    return

    # -- bindings: set/array/class/rng tracking -----------------------
    def _bind(self, target: ast.AST, value: ast.AST | None,
              is_set: bool, is_array: bool) -> None:
        self.sets.record(target, is_set)
        self.arrays.record(target, is_array)
        callee = self._canonical_callee(value) if value is not None else None
        if self.fn is None or callee is None or not isinstance(target, ast.Name):
            return
        tail = callee.split(".")[-1]
        if tail in _RNG_FACTORY_TAILS:
            self.fn.has_local_rng = True
        if tail[:1].isupper():
            self.fn.local_types[target.id] = callee

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value, _is_set_ctor(node.value),
                       self._is_array_ctor(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        tail = _annotation_tail(node.annotation)
        self._bind(
            node.target, node.value,
            _is_set_ctor(node.value) if node.value is not None
            else tail.lower() in ("set", "frozenset"),
            self._is_array_ctor(node.value) or tail in ("ndarray", "NDArray"))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, (ast.BitOr, ast.BitAnd)):
            self.sets.record(node.target, False)
        self.generic_visit(node)


def _pragmas(source: str) -> list[Pragma]:
    """Every waiver in the module's comments.

    ``# simlint: disable=D104[,B502] [— reason]`` after code waives
    those rules on its own line; alone on a comment line it waives them
    on the next code line, and its reason may run on over the comment
    lines in between.  ``disable-file=`` waives a rule for the whole
    module.
    """
    if "simlint:" not in source:
        return []
    comments = {
        tok.start[0]: tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }

    def own_line(tok: tokenize.TokenInfo) -> bool:
        return not tok.line[: tok.start[1]].strip()

    pragmas: list[Pragma] = []
    for row, tok in comments.items():
        match = _PRAGMA.search(tok.string)
        if match is None:
            continue
        reason = (match["reason"] or "").strip()
        covers = row
        if match["file"]:
            covers = 0
        elif own_line(tok):
            covers += 1
            while covers in comments and own_line(comments[covers]):
                reason += " " + comments[covers].string.lstrip("# ").rstrip()
                covers += 1
        pragmas.extend(
            Pragma(rule.strip(), covers, reason, row, tok.start[1] + match.start())
            for rule in match["ids"].split(","))
    return pragmas


def extract_module(
    source: str, path: str | Path, module: str | None = None
) -> ModuleInfo:
    """Parse and walk one module: its per-file findings, symbols, raw
    call facts and waiver comments.  ``module`` is its dotted name
    (default: the file stem, i.e. a top-level module)."""
    p = Path(path)
    tree = ast.parse(source, filename=str(p))
    extractor = _Extractor(
        str(path), module if module is not None else p.stem,
        is_package=p.stem == "__init__")
    extractor.visit(tree)
    extractor.info.pragmas = _pragmas(source)
    return extractor.info
