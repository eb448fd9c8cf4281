"""Fixtures shared across the test packages."""

import pytest

from repro.core import sequences
from repro.machine import process as process_mod


@pytest.fixture
def hot_traces(monkeypatch):
    """Compile a trace on its second sighting instead of its
    ``TRACE_COMPILE_THRESHOLD``-th, so short guests reach the compiled
    sequence tier."""
    monkeypatch.setattr(sequences, "TRACE_COMPILE_THRESHOLD", 2)


@pytest.fixture
def passes(monkeypatch):
    """Every ``Process`` the chained §5.1 pass makes, in order (the
    step-wise reference binds its own ``Process`` at import, so it is
    not recorded)."""
    made = []

    class Recorded(process_mod.Process):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(process_mod, "Process", Recorded)
    return made
