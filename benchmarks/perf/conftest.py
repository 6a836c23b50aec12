"""Fixtures shared by the benchmark's own tests."""

import pytest

from .calibration import Kernel


@pytest.fixture(scope="session")
def kernel():
    """One calibration kernel for the whole session (building it takes 0.3 s)."""
    return Kernel()
