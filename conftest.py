"""Root conftest: makes ``src/`` importable, registers the ``--audit``
plugin (:mod:`repro.analysis.pytest_plugin`), which arms the CP-time
invariant auditor for every engine a test constructs, and picks the
Hypothesis profile every ``@settings(...)`` site inherits from:
``tier1`` (the default) derandomises, so two tier-1 runs of one commit
execute the same examples; ``HYPOTHESIS_PROFILE=ci`` searches at random
with four times the default example budget.  A site's own
``max_examples`` wins over the profile's: only the sites that take it
from ``tests/conftest.py``'s ``examples()`` — the cache property modules
``tests/core/test_hbps_properties.py``, ``test_heap_cache_properties.py``
and ``test_cache_batch_differential.py`` — scale under ``ci``."""

import os
import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

pytest_plugins = ["repro.analysis.pytest_plugin"]

try:
    from hypothesis import settings
except ImportError:  # the crash-matrix and bench-smoke CI jobs install none
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.register_profile("ci", max_examples=400, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
