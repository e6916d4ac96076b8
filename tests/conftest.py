"""Shared test set-up: the hypothesis profile `ci`, which fixes the draws
(derandomize) and keeps no example database, so that a failure in CI
reproduces locally.  It is loaded by name from the environment variable
HYPOTHESIS_PROFILE, e.g. `HYPOTHESIS_PROFILE=ci python -m pytest`; with the
variable unset the hypothesis defaults apply."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
