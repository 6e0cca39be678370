"""Drills: events, schedules, one driver (DESIGN section 13).

:mod:`~repro.drill.driver` holds :func:`run_drill`, its subject
:class:`SimFeed` and the one report, :class:`DrillLog`;
:mod:`~repro.drill.events` the single-aggregate event vocabulary.
"""

from . import driver, events
from .driver import *  # noqa: F401,F403
from .events import *  # noqa: F401,F403

__all__ = [*driver.__all__, *events.__all__]
