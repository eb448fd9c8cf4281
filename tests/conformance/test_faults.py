"""Every fault-injection scenario has a pinned expected behaviour:
either the VM recovers bit-identically or it raises the matching typed
FPVMFaultError — never a silent wrong answer."""

import pytest

from repro.conformance import faults
from repro.errors import (
    BoxHeapExhaustedError,
    DeadlockError,
    DecodeCacheCorruptionError,
    DeviceProtocolError,
    FPVMFaultError,
    GuestFault,
    MagicPageCorruptionError,
    StepLimitError,
    TrapStormError,
)
from repro.kernel.fpvm_dev import FPVMDeviceError
from repro.machine import cpu, memory

#: scenario -> (recovers bit-identically, raised error class or None).
EXPECTED = {
    "dropped_delivery_persistent": (False, TrapStormError),
    "dropped_delivery_transient": (True, None),
    "duplicated_delivery": (True, None),
    "magic_page_corruption": (False, MagicPageCorruptionError),
    "decode_cache_poison": (False, DecodeCacheCorruptionError),
    "decode_cache_thrash": (True, None),
    "box_heap_pressure": (True, None),
    "box_heap_exhaustion": (False, BoxHeapExhaustedError),
    "device_registration_revoked": (True, None),
    "device_entry_clobbered": (False, FPVMDeviceError),
    "scheduler_deadlock": (False, DeadlockError),
    "scheduler_step_limit": (False, StepLimitError),
    "stale_block_patch": (True, None),
    "lazy_fp_leak": (True, None),
}


def test_every_scenario_has_an_expectation():
    assert set(EXPECTED) == set(faults.SCENARIOS)


@pytest.mark.parametrize("name", sorted(faults.SCENARIOS))
def test_scenario(name):
    recovers, error = EXPECTED[name]
    outcome = faults.run_scenario(name)
    assert outcome.detected, f"{name} went undetected: {outcome.detail}"
    assert outcome.recovered == recovers, outcome.detail
    if error is None:
        assert outcome.error is None
    else:
        assert outcome.error == error.__name__
        assert issubclass(error, FPVMFaultError)


def test_trap_storm_is_not_triggered_by_honest_loops():
    """A hot FP loop traps at the same address millions of times; the
    storm detector must never fire on it (it keys on *zero retired
    instructions* between same-address traps)."""
    outcome = faults.run_scenario("decode_cache_thrash")
    assert outcome.recovered  # ran a full trap-heavy workload cleanly


def test_fault_error_hierarchy():
    for cls in (TrapStormError, MagicPageCorruptionError,
                DecodeCacheCorruptionError, BoxHeapExhaustedError,
                DeviceProtocolError, DeadlockError, StepLimitError):
        assert issubclass(cls, FPVMFaultError)
        assert issubclass(cls, RuntimeError)
        assert cls.fault != FPVMFaultError.fault


def test_guest_fault_hierarchy():
    """Guest faults share one branch, apart from FPVM's own faults, and
    keep their names in the modules that raise them."""
    for cls in (cpu.MachineError, memory.MemoryFault):
        assert issubclass(cls, GuestFault)
        assert issubclass(cls, RuntimeError)
        assert not issubclass(cls, FPVMFaultError)
