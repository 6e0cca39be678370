"""The simlint rule catalogue and the enforced dependency DAG.

Rule identifiers are stable and documented in the README; the one
waiver mechanism is the in-place pragma (see
:mod:`repro.analysis.simlint`).

Rule families
-------------
* **D — determinism.**  Every experiment must be bit-for-bit
  reproducible from a seed, so hot-path code may not consult ambient
  entropy (wall clocks, unseeded generators, the stdlib ``random``
  module) or iterate Python ``set`` objects, whose order is salted per
  process.
* **L — layering.**  Packages form a strict DAG; an import reaching a
  *later* package is a leak that eventually turns into a cycle (the
  pre-existing ``bitmap -> core`` edge this linter was dogfooded on).
* **U — unit safety.**  Identifiers carry unit suffixes (``_bytes``,
  ``_blocks``, ``_us``...); additive arithmetic across different
  suffixes is a unit mix-up unless it flows through
  :mod:`repro.common.units` converters.
* **B — bitmap discipline.**  The bitmap layer's perf contract is that
  bit expansion happens behind :class:`repro.bitmap.Bitmap`, where the
  candidate-byte scan keeps searches proportional to the result, not
  the device; unbounded ``np.unpackbits`` elsewhere reintroduces the
  O(nblocks) walks the paper exists to avoid.
* **E — error hygiene.**  Bare/over-broad excepts and silently dropped
  library errors hide exactly the corruption the auditor exists to
  surface.
* **C — crash consistency.**  The committed metadata image is the
  state a crash recovers to; only the sanctioned commit path in
  :mod:`repro.crash.persistence` may replace it.
* **P — pragma hygiene.**  A ``# simlint: disable=`` pragma must
  suppress a finding: one that names an unknown rule, or whose violation
  has been fixed, waives nothing and is itself reported.
* **F — flow (interprocedural).**  The same properties as the D/U/C
  families, checked across function boundaries over the project call
  graph (:mod:`repro.analysis.passes`): determinism taint, unit
  typestate, commit-path effects, and seed threading.  Their findings
  carry the call chain as a trace, and their waivers must state a
  reason.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Rule",
    "RULES",
    "LAYER_RANK",
    "TIER_ROLE_LITERALS",
    "UNIT_SUFFIXES",
    "ORDER_SAFE_CONSUMERS",
    "REPRO_ERROR_NAMES",
    "WALL_CLOCK_CALLS",
    "REPORTING_CLOCK_CALLS",
    "ENTROPY_CALLS",
    "COMMITTED_IMAGE_ATTRS",
    "COMMIT_PATH_MODULE",
    "HOT_PATH_PACKAGES",
]


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, summary, and what it protects."""

    id: str
    summary: str
    rationale: str


#: The enforced dependency DAG: a package may import only packages with
#: a strictly *smaller* rank.  Top-level modules (``cli``, ``__main__``,
#: the root ``__init__``) sit above every package and are unconstrained.
LAYER_RANK: dict[str, int] = {
    "common": 0,
    #: The tracer sits just above common so every simulation layer may
    #: emit spans/counters into it; it imports nothing from the simulator.
    "obs": 1,
    "devices": 2,
    "raid": 3,
    "bitmap": 4,
    "core": 5,
    "sim": 6,
    "fs": 7,
    "workloads": 8,
    #: The traffic engine consumes the whole substrate (fs CPs, sim
    #: stats, workload mixes) and is itself consumed only by the
    #: drivers above it (faults' chaos-under-load, bench, cli).
    "traffic": 9,
    "faults": 10,
    "analysis": 12,
    #: Heterogeneous multi-tier aggregates: composes fs stores and uses
    #: the auditor/Iron for its bench demo; fs reaches it by name via
    #: importlib only (tier policies attach from above).
    "tiering": 13,
    #: The crash-consistency subsystem drives the whole stack (mount,
    #: traffic, the invariant auditor).
    "crash": 14,
    #: The drill driver and its single-aggregate event vocabulary: it
    #: schedules the mechanisms of every layer below (faults, tiering,
    #: crash) over live traffic; the fleet's events sit above it.
    "drill": 15,
    #: The fleet layer, top of the *simulation* stack: many
    #: aggregate-scale sims as shards, scheduled and migrated from
    #: above.  It may import everything below it; nothing below
    #: (traffic, fs, crash, drill, ...) may import it.
    "cluster": 16,
    #: The experiment table and its runner: the one consumer of every
    #: simulation layer (it imports them statically), itself consumed
    #: only by cli.
    "bench": 17,
}

RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "D101",
            "stdlib `random` module used",
            "the stdlib RNG is process-global; all randomness must flow "
            "through a seeded numpy Generator (repro.common.rng).",
        ),
        Rule(
            "D102",
            "unseeded numpy RNG (`default_rng()` with no seed, or legacy "
            "`np.random.*` global-state calls)",
            "an unseeded generator draws OS entropy and silently breaks "
            "same-seed reproducibility of a whole sweep.",
        ),
        Rule(
            "D103",
            "wall-clock call (`time.time`, `datetime.now`, ...) in "
            "simulation code",
            "simulated time is microseconds of modeled work; wall clocks "
            "leak host state into results.",
        ),
        Rule(
            "D104",
            "iteration over an unordered `set`/`frozenset`",
            "set iteration order is hash-salted per process; wrap the "
            "iterable in sorted() to fix the order.",
        ),
        Rule(
            "L201",
            "import violates the package dependency DAG",
            "the layering "
            + " -> ".join(sorted(LAYER_RANK, key=LAYER_RANK.__getitem__))
            + " is acyclic by construction; upward imports create cycles.",
        ),
        Rule(
            "U301",
            "additive arithmetic or comparison mixes unit suffixes",
            "adding `_bytes` to `_blocks` (etc.) without a "
            "repro.common.units conversion silently corrupts accounting.",
        ),
        Rule(
            "B501",
            "np.unpackbits on an unbounded or whole-bitmap buffer "
            "outside bitmap.py",
            "unpacking expands the buffer 8x; whole-bitmap expansions "
            "outside the Bitmap class bypass its candidate-byte scan "
            "(bytes != 0xFF) and turn O(free) searches back into "
            "O(nblocks) — route bit expansion through repro.bitmap "
            "helpers or slice an explicit [lo:hi] window first.",
        ),
        Rule(
            "B502",
            "Python for loop indexes a NumPy array element-by-element "
            "in a hot-path package",
            "boxing one scalar per iteration through the interpreter is "
            "what the vectorized CP pipeline exists to avoid; in the "
            "fs/bitmap/traffic/sim hot paths, rewrite the loop as a "
            "whole-array expression (np.maximum, np.add.accumulate, "
            "boolean masks) or waive a deliberately scalar reference "
            "path with a pragma naming this rule.",
        ),
        Rule(
            "E401",
            "bare `except:`",
            "catches SystemExit/KeyboardInterrupt and hides programming "
            "errors; name the exception.",
        ),
        Rule(
            "E402",
            "over-broad `except Exception`/`except BaseException`",
            "swallows unrelated failures; catch the narrowest repro error "
            "class that the handler can actually recover from.",
        ),
        Rule(
            "E403",
            "caught-and-dropped repro error (handler body is only "
            "pass/...)",
            "a swallowed SimError/MediaError/CacheError turns detectable "
            "corruption into silent corruption.",
        ),
        Rule(
            "E404",
            "direct print() in library code",
            "ad-hoc print instrumentation bypasses the structured tracer "
            "(repro.obs) and corrupts machine-readable CLI output; emit "
            "spans/counters via repro.obs, or format output in cli.py.",
        ),
        Rule(
            "P901",
            "pragma suppresses nothing",
            "a waiver that names a rule id outside the catalogue (a typo "
            "like D99 for D104), whose violation has since been fixed, or "
            "that excuses an F-rule without a reason hides or outlives "
            "what it meant to document; fix the id, delete the comment, "
            "or state the reason.",
        ),
        Rule(
            "T701",
            "raw tier-name string literal outside repro.tiering",
            "tier routing is typed: code talks about tiers through "
            "repro.tiering.Tier members (or TierSpec labels), never "
            "through bare 'fast'/'capacity'/'archive' literals — the "
            "string-keyed duck hooks they fed silently no-opped on "
            "stores that did not recognize the name.",
        ),
        Rule(
            "C601",
            "committed-image attribute mutated outside the crash-"
            "consistency commit path",
            "the committed metadata image is what a crash recovers to; "
            "it may change only through PersistenceModel.commit() "
            "(repro.crash.persistence) — any other assignment silently "
            "moves the recovery target and voids the crash-consistency "
            "guarantee.",
        ),
        Rule(
            "F801",
            "nondeterministic source reachable from a simulation hot path",
            "wall clocks, stdlib random, unseeded generators, ambient "
            "entropy, and unordered-set iteration anywhere in the call "
            "cone of the CP/allocator/traffic/crash/cluster/tiering hot "
            "paths break bit-for-bit reproducibility, no matter how many "
            "calls deep.",
        ),
        Rule(
            "F802",
            "unit value crosses a function boundary into a different unit",
            "a *_blocks value passed into a size_bytes parameter (or "
            "returned from a *_us function) corrupts accounting invisibly "
            "to the per-line U301 check.",
        ),
        Rule(
            "F803",
            "committed-image write on a path not rooted at the commit path",
            "helpers that mutate the committed image on behalf of "
            "unsanctioned callers move the crash-recovery target; the "
            "call-graph check closes the 'mutate via helper' hole in C601.",
        ),
        Rule(
            "F804",
            "held seed/rng not threaded into a randomness-consuming callee",
            "letting a callee's seed parameter fall back to its default "
            "silently re-seeds that subsystem and forks the random stream "
            "same-seed reproducibility depends on.",
        ),
    )
}

#: Tier-role names T701 refuses as raw routing literals outside
#: ``repro.tiering`` (the :class:`repro.tiering.Tier` member values).
TIER_ROLE_LITERALS: tuple[str, ...] = ("fast", "capacity", "archive")

#: Identifier suffixes treated as units by U301.  Multiplicative
#: operators are exempt (they *are* the conversions).
UNIT_SUFFIXES: tuple[str, ...] = (
    "_bytes",
    "_blocks",
    "_gib",
    "_mib",
    "_kib",
    "_us",
    "_ms",
    "_ns",
)

#: Callables whose result does not depend on iteration order; passing a
#: set straight into these is not a D104 violation.
ORDER_SAFE_CONSUMERS: frozenset[str] = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

#: Library exception names whose silent swallowing E403 flags.
REPRO_ERROR_NAMES: frozenset[str] = frozenset(
    {
        "ReproError",
        "SimError",  # historical alias used in issue trackers/docs
        "BitmapError",
        "AllocationError",
        "OutOfSpaceError",
        "GeometryError",
        "CacheError",
        "SerializationError",
        "MountError",
        "FaultError",
        "TransientIOError",
        "MediaError",
        "DegradedError",
        "AuditError",
        "CrashError",
        "TornWriteError",
        "RecoveryExhaustedError",
        "PlacementError",
        "MigrationError",
    }
)

#: Packages whose per-CP work is wall-clock critical; B502 flags
#: element-at-a-time NumPy indexing loops only here.  Driver/reporting
#: layers (bench, analysis, cli) may loop scalar-style freely.
HOT_PATH_PACKAGES: frozenset[str] = frozenset({"fs", "bitmap", "traffic", "sim"})

#: Attribute names C601/F803 treat as the committed image.  Only the
#: sanctioned commit path (:data:`COMMIT_PATH_MODULE`) may assign them.
COMMITTED_IMAGE_ATTRS: frozenset[str] = frozenset(
    {"committed", "committed_image", "committed_images"}
)

#: The module whose writes to the committed image are the commit path.
COMMIT_PATH_MODULE = "repro.crash.persistence"

#: Dotted calls D103 flags (``perf_counter`` is allowed: it only times
#: wall-clock reporting of benchmark runs, never simulated state).
WALL_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Clocks D103 allows (they time wall-clock *reporting* of benchmark
#: runs) but F801 still treats as sources: they must never be reachable
#: from a simulation hot path.
REPORTING_CLOCK_CALLS: frozenset[str] = frozenset(
    {"time.perf_counter", "time.perf_counter_ns", "time.process_time"}
)

#: Ambient-entropy calls beyond the clock family (F801 sources).
ENTROPY_CALLS: frozenset[str] = frozenset(
    {"os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.token_bytes",
     "secrets.token_hex", "secrets.randbelow"}
)
