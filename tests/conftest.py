"""Fixtures shared across the test packages."""

import pytest

from repro.core import sequences


@pytest.fixture
def hot_traces(monkeypatch):
    """Compile a trace on its second sighting instead of its
    ``TRACE_COMPILE_THRESHOLD``-th, so short guests reach the compiled
    sequence tier."""
    monkeypatch.setattr(sequences, "TRACE_COMPILE_THRESHOLD", 2)
