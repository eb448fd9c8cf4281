"""Exception-flow observability (the FlowFPX-style layer): NaN-box
provenance records, per-RIP trap heatmaps, and NaN-flow graphs over
the FPVM trap/emulation machinery.  See :mod:`repro.observability.flow`.
"""

from repro.observability.flow import (
    KILL_REASONS,
    TRAP_CLASSES,
    FlowRecorder,
    classify_flags,
)
from repro.observability.render import render_flow_graph, render_trap_heatmap

__all__ = [
    "KILL_REASONS",
    "TRAP_CLASSES",
    "FlowRecorder",
    "classify_flags",
    "render_flow_graph",
    "render_trap_heatmap",
]
