"""Fixtures shared by the test modules."""

import pytest

from repro.sim.backends import native


@pytest.fixture
def no_native(monkeypatch):
    """Force the compiler-less world for one test, then re-probe."""
    monkeypatch.setenv(native.ENV_SWITCH, "0")
    native._reset_probe_cache()
    yield
    monkeypatch.undo()
    native._reset_probe_cache()
