"""The schema of the experiment table: its rows and the claims they make.

Claims come in two kinds and one rule gates both
(:func:`gated_failures`).  A *paper-shape* claim restates something the
paper measured; its threshold describes the full-size canonical-seed
configuration (quick Fig 6 gains +4.4 %, below the 10 % bar), so it is
gated there and informational on any other run.  An *invariant* —
zero failed allocations, zero crash violations, copied == freed — must
hold at every size and seed, so it gates every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Claim", "invariant", "gated_failures", "Experiment"]


@dataclass(frozen=True)
class Claim:
    """One statement about a result set, evaluated."""

    #: What must be true (including the bar, where there is one).
    text: str
    #: The paper's own number or statement.
    paper: str
    #: Ours, formatted for display.
    measured: str
    holds: bool
    #: Must hold on every run, not only at full size and canonical seed.
    invariant: bool = False

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        ref = "invariant" if self.invariant else f"paper: {self.paper}"
        return f"[{verdict}] {self.text}: {self.measured} ({ref})"


def invariant(text: str, measured: object, holds: bool) -> Claim:
    return Claim(text, "", str(measured), bool(holds), invariant=True)


def gated_failures(claims: list[Claim], *, canonical: bool) -> list[Claim]:
    """The one gate: the claims a run must not fail, that fail
    (``canonical``: it was full size at the canonical seeds)."""
    return [c for c in claims if not c.holds and (c.invariant or canonical)]


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table.  ``tables`` and ``claims`` are
    pure functions of ``{unit: result document}``: they work equally on
    a fresh run and on a file read back from disk, over whichever of
    the row's units are present."""

    name: str
    #: One-line description (the CLI help of ``repro <name>``).
    title: str
    #: Canonical seed: the published numbers and the baseline use it.
    seed: int
    #: Independent work units (one configuration each).
    units: tuple[str, ...]
    #: ``run(unit, *, quick, seed) -> {"metrics", "timing"}`` (plain
    #: JSON; ``timing`` holds wall clocks and is optional).
    run: Callable[..., dict]
    tables: Callable[[dict], list[str]]
    claims: Callable[[dict], list[Claim]]
    #: Run in the parent process before the worker pool starts (a unit
    #: owns a process pool of its own and times it).
    serial: bool = False
