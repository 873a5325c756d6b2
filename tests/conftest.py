"""Fixtures shared by every test module."""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def _restore_mp_prec():
    """Undo any assignment a test makes to the global mpmath precision."""
    prec = mp.prec
    yield
    mp.prec = prec
