"""Workload registry: names, builders, default scales."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.hostlib import install_host_library
from repro.machine.program import Program
from repro.workloads import (
    denorm_storm as _denorm_storm,
    double_pendulum as _double_pendulum,
    enzo as _enzo,
    fbench as _fbench,
    ffbench as _ffbench,
    lorenz as _lorenz,
    lorenz_mt as _lorenz_mt,
    mixed_mt as _mixed_mt,
    range_storm as _range_storm,
    three_body as _three_body,
)


@dataclass(frozen=True)
class Workload:
    name: str
    display_name: str
    builder: object
    default_scale: int
    description: str
    extra: dict = field(default_factory=dict)
    #: must run under a Process (multi-threaded: the thread_create /
    #: thread_join host API only exists there), not a bare CPU.
    requires_process: bool = False
    #: a small scale for quick tests: the profiler golden and oracle
    #: and the chaining tests run every workload at it (0 =
    #: default_scale).
    quick_scale: int = 0

    def build_module(self, scale: int | None = None, **kwargs):
        merged = dict(self.extra)
        merged.update(kwargs)
        return self.builder(scale=scale or self.default_scale, **merged)

    def build_program(self, scale: int | None = None, **kwargs) -> Program:
        program = self.build_module(scale, **kwargs).compile()
        install_host_library(program)
        return program


_WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "lorenz", "Lorenz", _lorenz.build, 400,
            "Lorenz attractor: one long straight-line FP loop "
            "(long-sequence best case, ~32/trap in the paper)",
            quick_scale=150,
        ),
        Workload(
            "three_body", "3-body", _three_body.build, 40,
            "three-body gravity with heavy position logging "
            "(more fcall + corr events)",
            quick_scale=12,
        ),
        Workload(
            "double_pendulum", "Double Pend.", _double_pendulum.build, 60,
            "chaotic double pendulum: trig-heavy ODE",
            quick_scale=20,
        ),
        Workload(
            "fbench", "fbench", _fbench.build, 12,
            "Walker's optical ray trace: libm-call-dominated "
            "(short sequences, ~4/trap in the paper)",
            quick_scale=4,
        ),
        Workload(
            "ffbench", "ffbench", _ffbench.build, 16,
            "Walker's FFT benchmark: butterflies + index arithmetic",
            quick_scale=8,
        ),
        Workload(
            "enzo", "Enzo", _enzo.build, 24,
            "mini-Enzo hydro (Sod tube, HLL): many distinct short "
            "sequences, big arrays, more GC",
            quick_scale=8,
        ),
        Workload(
            "denorm_storm", "Denorm Storm", _denorm_storm.build, 600,
            "denormal/underflow trap storm: constant-operand ops keep "
            "their true trap class every iteration (DE, UE, PE, IE)",
            quick_scale=200,
        ),
        Workload(
            "range_storm", "Range Storm", _range_storm.build, 500,
            "overflow/div-by-zero/invalid storm with NaN clamping plus "
            "compare and int-convert consumption (OE, ZE, IE, PE)",
            quick_scale=150,
        ),
        Workload(
            "lorenz_mt", "Lorenz MT", _lorenz_mt.build, 300,
            "Lorenz trajectory ensemble sharded across pthread-style "
            "workers (requires a Process for the thread host API)",
            extra={"threads": 4},
            requires_process=True,
            quick_scale=100,
        ),
        Workload(
            "mixed_mt", "Mixed MT", _mixed_mt.build, 400,
            "mostly-integer thread ensemble with a couple of FP "
            "workers: the lazy-FP save-elision showcase (requires a "
            "Process for the thread host API)",
            extra={"threads": 6, "fp_threads": 2},
            requires_process=True,
            quick_scale=150,
        ),
    ]
}

WORKLOAD_NAMES = tuple(_WORKLOADS)


def get_workload(name: str) -> Workload:
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_WORKLOADS)}"
        ) from None


def build_program(name: str, scale: int | None = None, **kwargs) -> Program:
    return get_workload(name).build_program(scale, **kwargs)
