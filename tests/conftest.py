"""Test-wide settings: property tests draw the same examples on every run, and no test leaves numpy's ufunc buffer changed."""

import numpy as np
import pytest
from hypothesis import settings

# derandomized so that a run's outcome depends on the code alone; no example
# database, so a run leaves no files behind
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# a caller's ufunc buffer size, neither numpy's default (8192) nor the polytope kernel's
CALLER_BUFFER = 4096


@pytest.fixture(autouse=True)
def ufunc_buffer_unchanged():
    """Fails a test after which np.getbufsize() differs from before it: the program must give every caller its size back."""
    size = np.getbufsize()
    yield
    assert np.getbufsize() == size, f"the ufunc buffer size went from {size} to {np.getbufsize()}"


@pytest.fixture
def caller_buffer():
    """Sets numpy's ufunc buffer to CALLER_BUFFER for the test, and the previous size back after it."""
    previous = np.setbufsize(CALLER_BUFFER)
    yield CALLER_BUFFER
    np.setbufsize(previous)
