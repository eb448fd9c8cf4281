"""Export coverage: every count a counter holder keeps reaches the
archive.  Each int or ``Counter`` field of ``Telemetry``, ``UopStats``,
``SchedulerStats`` and ``SuperblockCache`` must appear in
``export.result_to_dict(...)["metrics"]`` and be diffed by
``compare_runs``, so a new counter can never drop out of a hand-written
list.  The only fields left out are the settings below; a new
exemption must be a deliberate addition here."""

import copy
from collections import Counter

import pytest

from repro.core.telemetry import SchedulerStats, Telemetry
from repro.core.vm import FPVMConfig
from repro.harness import export
from repro.harness.runner import run_fpvm_process
from repro.machine.uops import SuperblockCache, UopStats

HOLDERS = {"fpvm": Telemetry, "uop": UopStats, "sched": SchedulerStats,
           "sbcache": SuperblockCache}

#: settings: not counts, so never merged or exported.
EXEMPT = {"sched.quantum", "sbcache.epoch", "sbcache.capacity"}


def _counter_fields() -> list[str]:
    """``ns.field`` for every int or Counter field of a fresh holder."""
    names = []
    for ns, cls in HOLDERS.items():
        holder = cls()
        for name in getattr(holder, "__slots__", None) or vars(holder):
            value = getattr(holder, name)
            if isinstance(value, Counter) or type(value) is int:
                names.append(f"{ns}.{name}")
    return names


@pytest.fixture(scope="module")
def archive():
    """A run that owns all four holders: an FPVM-attached Process."""
    result = run_fpvm_process("mixed_mt", FPVMConfig.seq_short(), scale=60)
    return export.result_to_dict(result)


def test_exemptions_are_the_holders_declared_unmerged_names():
    declared = {f"{ns}.{name}" for ns, cls in HOLDERS.items()
                for name in getattr(cls, "UNMERGED", ())}
    assert declared == EXEMPT


@pytest.mark.parametrize("metric", sorted(set(_counter_fields()) - EXEMPT))
def test_counter_is_exported_and_diffed(archive, metric):
    assert metric in archive["metrics"]
    bumped = copy.deepcopy(archive)
    value = bumped["metrics"][metric]
    if isinstance(value, dict):
        bumped["metrics"][metric] = {**value, "probe": 1}
        want = f"{metric}.probe"
    else:
        bumped["metrics"][metric] = 2 * value + 1
        want = metric
    assert any(d.metric == want for d in export.compare_runs(archive, bumped))


def test_no_exempt_field_is_exported(archive):
    assert not EXEMPT & set(archive["metrics"])
