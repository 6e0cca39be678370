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
* **B — hot-loop discipline.**  The CP pipeline is vectorized; a Python
  ``for`` loop that indexes a NumPy array one element at a time in a
  hot-path package puts the interpreter back on the per-block path.
* **E — output hygiene.**  Library code emits spans and counters
  through :mod:`repro.obs`; a stray ``print()`` corrupts the CLI's
  machine-readable output.
* **P — pragma hygiene.**  A ``# simlint: disable=`` pragma must
  suppress a finding: one that names an unknown rule, or whose violation
  has been fixed, waives nothing and is itself reported.
* **F — flow (interprocedural).**  Determinism checked across
  function boundaries over the project call graph
  (:mod:`repro.analysis.passes`): determinism taint and seed threading.
  Their findings carry the call chain as a trace, and their waivers
  must state a reason.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Rule",
    "RULES",
    "LAYER_RANK",
    "ORDER_SAFE_CONSUMERS",
    "WALL_CLOCK_CALLS",
    "REPORTING_CLOCK_CALLS",
    "ENTROPY_CALLS",
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
    #: Tier migration and the Flash Pool policy over fs's one
    #: aggregate, plus the tier drill's demo aggregate; nothing in fs
    #: reaches up to it (a tier policy is attached from above).
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
            "F801",
            "nondeterministic source reachable from a simulation hot path",
            "wall clocks, stdlib random, unseeded generators, ambient "
            "entropy, and unordered-set iteration anywhere in the call "
            "cone of the CP/allocator/traffic/crash/cluster/tiering hot "
            "paths break bit-for-bit reproducibility, no matter how many "
            "calls deep.",
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

#: Callables whose result does not depend on iteration order; passing a
#: set straight into these is not a D104 violation.
ORDER_SAFE_CONSUMERS: frozenset[str] = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

#: Packages whose per-CP work is wall-clock critical; B502 flags
#: element-at-a-time NumPy indexing loops only here.  Driver/reporting
#: layers (bench, analysis, cli) may loop scalar-style freely.
HOT_PATH_PACKAGES: frozenset[str] = frozenset({"fs", "bitmap", "traffic", "sim"})

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
