"""Hypothesis draws the same examples on every run and keeps no example
database, so the suite's outcome does not depend on earlier runs.  Its
remaining cache (constants read from the source) goes to the system temp
directory rather than into the checkout."""

import os
import tempfile

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "hlqr-hypothesis"))

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
