"""Random schedules from the single-aggregate vocabulary: a first slice
of the system-level state machine (ROADMAP item 1(a)).  Whatever is
drawn, the driver's own invariants hold: a schedule is either refused —
typed, with the image untouched — or runs to zero failed allocations and
a clean audit + Iron end state."""

from __future__ import annotations

import copy

import pytest

from repro.common.errors import FaultError
from repro.crash import capture_image
from repro.drill import (
    CleanAAs, DeleteSnapshot, FailDisk, FlipBits, MigrateTier, ReplaceDisk,
    Scrub, SetFreeBudget, SimFeed, Snapshot, run_drill,
)
from repro.tiering import build_tiered_sim
from repro.workloads import RandomOverwriteWorkload, age_filesystem

from ..conftest import small_ssd_sim

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

STEPS = 4

#: What one schedule entry does before its step (damage comes with the
#: scrub that finds it: the end state of undetected damage is not clean).
COMMON = [
    (Snapshot("{vol}", "s"),), (DeleteSnapshot("{vol}", "s"),),
    (SetFreeBudget(2),), (SetFreeBudget(None),),
    (FlipBits("vol:{vol}", 24, "set"), Scrub(window=1)),
    (FlipBits("{group}", 24, "clear"), Scrub(window=0)),
]
RAID = COMMON + [(FailDisk(0, 1),), (FailDisk(0, 2),), (ReplaceDisk(0, 1),), (CleanAAs(0, 2),)]
TIERED = COMMON + [
    (MigrateTier("{vol}", "smr"),), (MigrateTier("{vol}", "flash"),), (CleanAAs(1, 2),),
]


def _aged(sim, **names):
    age_filesystem(sim, churn_factor=0.5, ops_per_cp=2048, seed=3)
    return sim, names


@pytest.fixture(scope="module")
def subjects():
    return {
        "raid": (*_aged(small_ssd_sim(), vol="volA", group="group:0"), RAID),
        "tiered": (*_aged(build_tiered_sim(quick=True), vol="oltp0", group="group:0"), TIERED),
    }


def _named(event, names):
    fields = {k: v.format(**names) if isinstance(v, str) else v for k, v in vars(event).items()}
    return type(event)(**fields)


@settings(max_examples=40)
@given(kind=st.sampled_from(["raid", "tiered"]), seed=st.integers(0, 99), data=st.data())
def test_any_schedule_is_refused_whole_or_runs_clean(subjects, kind, seed, data):
    pristine, names, moves = subjects[kind]
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, STEPS - 1), st.sampled_from(moves)), max_size=6))
    schedule = tuple((step, _named(e, names)) for step, move in entries for e in move)
    sim = copy.deepcopy(pristine)
    image = capture_image(sim).digest()
    subject = SimFeed(sim, RandomOverwriteWorkload(sim, ops_per_cp=256, seed=seed))
    try:
        log = run_drill(subject, schedule, STEPS, seed=seed)
    except FaultError:
        assert capture_image(sim).digest() == image
        return
    assert (log.steps, log.failed_allocations) == (STEPS, 0), schedule
    assert log.audit_violations == [] and log.iron_findings == [], schedule
