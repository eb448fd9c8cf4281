"""Export of run results as JSON-ready dicts, and their comparison.

Reproduction runs should be archivable and diffable: `result_to_dict`
captures everything a run reports (outputs, cycle ledger, the run's
full metrics snapshot and the ratios derived from it, trace statistics)
in a stable schema; `compare_runs` diffs two archives the way
EXPERIMENTS.md compares paper vs. measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.telemetry import rates

#: 2: the hand-picked ``telemetry`` block and the scalar copies gave way
#: to the full ``metrics`` snapshot and its ``rates``.
SCHEMA_VERSION = 2


def result_to_dict(result) -> dict:
    """Serialize an :class:`~repro.harness.runner.FPVMResult`."""
    traces = [
        {
            "addrs": list(rec.addrs),
            "count": rec.count,
            "length": rec.length,
            "terminator": rec.terminator,
            "reason": rec.reason,
        }
        for rec in result.trace_stats.by_popularity()
    ]
    metrics = result.host.metrics
    return {
        "schema": SCHEMA_VERSION,
        "workload": result.workload,
        "config": result.config_name,
        "cycles": result.cycles,
        "output": list(result.output),
        "ledger": dict(result.ledger),
        "metrics": metrics,
        "rates": rates(metrics),
        "traces": traces,
    }


@dataclass(frozen=True)
class RunDelta:
    """One metric's movement between two archived runs."""

    metric: str
    before: float
    after: float

    @property
    def ratio(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 1.0
        return self.after / self.before


def compare_runs(before: dict, after: dict,
                 threshold: float = 0.05) -> list[RunDelta]:
    """Metrics that moved by more than ``threshold`` (fractional)
    between two `result_to_dict` archives of the same workload+config."""
    if (before["workload"], before["config"]) != (after["workload"], after["config"]):
        raise ValueError("archives are from different runs")
    old, new = _numbers(before), _numbers(after)
    deltas = []
    for metric in dict.fromkeys([*old, *new]):
        b, a = old.get(metric, 0), new.get(metric, 0)
        if b == a == 0:
            continue
        if b == 0 or abs(a - b) / max(abs(b), 1e-12) > threshold:
            deltas.append(RunDelta(metric, b, a))
    return deltas


def _numbers(archive: dict) -> dict:
    """Every number of an archive under one flat name: ``cycles``,
    ``ledger.<cat>``, each metric (a histogram bucket as
    ``<metric>.<key>``) and each rate."""
    out = {"cycles": archive["cycles"]}
    out.update({f"ledger.{k}": v for k, v in archive["ledger"].items()})
    for name, value in archive["metrics"].items():
        if isinstance(value, dict):
            out.update({f"{name}.{k}": v for k, v in value.items()})
        else:
            out[name] = value
    out.update(archive["rates"])
    return out
