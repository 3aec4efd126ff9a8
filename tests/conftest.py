import os

import pytest
from hypothesis import settings

from commdetect import karate_club

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, so a
# failing property reproduces locally under the same profile.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def karate():
    return karate_club()
