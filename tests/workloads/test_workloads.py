"""Workload validity tests: physics sanity natively, bit-for-bit under
FPVM, and the per-workload characters the paper's evaluation relies on."""

import math

import pytest

from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.machine.process import Process
from repro.workloads import WORKLOAD_NAMES, build_program, get_workload


class _ProcessShim:
    """Expose a finished Process run through the CPU-result surface the
    assertions below use (output / halted / instruction_count)."""

    def __init__(self, proc: Process):
        self.output = proc.main.output
        self.halted = all(t.halted for t in proc.threads)
        self.instruction_count = sum(t.instruction_count for t in proc.threads)


def run_native(name: str, scale: int | None = None, **kw):
    prog = build_program(name, scale, **kw)
    if get_workload(name).requires_process:
        proc = Process(prog)
        proc.kernel = LinuxKernel()
        proc.run()
        return _ProcessShim(proc)
    cpu = CPU(prog)
    cpu.kernel = LinuxKernel()
    cpu.run()
    return cpu


def run_virtualized(name: str, config: FPVMConfig, scale: int | None = None, **kw):
    prog = build_program(name, scale, **kw)
    kernel = LinuxKernel()
    if get_workload(name).requires_process:
        proc = Process(prog)
        vm = FPVM(config).attach_process(proc, kernel)
        proc.run()
        return _ProcessShim(proc), vm
    cpu = CPU(prog)
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    cpu.run()
    return cpu, vm


class TestRegistry:
    def test_registered_workloads(self):
        assert set(WORKLOAD_NAMES) == {
            "lorenz", "three_body", "double_pendulum", "fbench", "ffbench", "enzo",
            "denorm_storm", "range_storm", "lorenz_mt", "mixed_mt",
        }

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("spec2017")

    def test_descriptions_present(self):
        for name in WORKLOAD_NAMES:
            assert get_workload(name).description


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestEveryWorkload:
    def test_runs_natively(self, name):
        cpu = run_native(name)
        assert cpu.halted
        assert cpu.output
        for line in cpu.output:
            assert "nan" not in line.lower()

    def test_bit_for_bit_under_fpvm(self, name):
        native = run_native(name)
        virt, vm = run_virtualized(name, FPVMConfig.seq_short())
        assert virt.output == native.output
        assert vm.telemetry.traps > 0

    def test_deterministic(self, name):
        assert run_native(name).output == run_native(name).output


class TestPhysics:
    def test_lorenz_stays_on_attractor(self):
        out = [float(x) for x in run_native("lorenz").output]
        x, y, z = out
        assert all(abs(v) < 60 for v in (x, y, z))
        assert z > 0  # Lorenz z never goes negative on the attractor

    def test_lorenz_matches_reference_integration(self):
        x, y, z = 1.0, 1.0, 1.0
        h, sigma, rho, beta = 0.005, 10.0, 28.0, 8.0 / 3.0
        for _ in range(400):
            dx = sigma * (y - x)
            dy = x * (rho - z) - y
            dz = x * y - beta * z
            x, y, z = x + h * dx, y + h * dy, z + h * dz
        out = [float(v) for v in run_native("lorenz").output]
        assert out == [x, y, z]

    def test_three_body_momentum_meaningful(self):
        cpu = run_native("three_body")
        pair_lines = [l for l in cpu.output if " " in l]
        assert len(pair_lines) >= 3  # periodic logging happened
        # hash line is an integer in [0, 3*logs]
        assert cpu.output[-1].isdigit()

    def test_double_pendulum_angles_finite(self):
        out = [float(x) for x in run_native("double_pendulum").output]
        assert all(math.isfinite(v) for v in out)

    def test_ffbench_round_trip_error_tiny(self):
        out = run_native("ffbench")
        err = float(out.output[0])
        assert err < 1e-12

    def test_enzo_conserves_mass(self):
        out = [float(x) for x in run_native("enzo").output]
        mass = out[0]
        # Sod tube initial mass: (1.0 + 0.125) / 2 (transmissive
        # boundaries leak only at the untouched edges for few steps).
        assert mass == pytest.approx(0.5625, abs=1e-9)

    def test_enzo_density_between_states(self):
        out = [float(x) for x in run_native("enzo").output]
        mid_rho = out[2]
        assert 0.125 <= mid_rho <= 1.0

    def test_fbench_focal_distance_plausible(self):
        out = [float(x) for x in run_native("fbench").output]
        assert all(math.isfinite(v) for v in out)


class TestWorkloadCharacters:
    """The per-workload traits §2.7 and §6.3 rely on."""

    def test_lorenz_has_longest_sequences(self):
        lengths = {}
        for name in WORKLOAD_NAMES:
            _, vm = run_virtualized(name, FPVMConfig.seq_short())
            lengths[name] = vm.telemetry.avg_sequence_length
        assert lengths["lorenz"] == max(lengths.values())
        assert lengths["lorenz"] > 20  # paper: ~32

    def test_fbench_has_short_sequences(self):
        _, vm = run_virtualized("fbench", FPVMConfig.seq_short())
        assert vm.telemetry.avg_sequence_length < 10  # paper: ~4

    def test_enzo_has_most_distinct_traces(self):
        traces = {}
        for name in WORKLOAD_NAMES:
            _, vm = run_virtualized(name, FPVMConfig.seq_short())
            traces[name] = len(vm.trace_stats.traces)
        assert traces["enzo"] == max(traces.values())

    def test_three_body_logs_more_fcalls(self):
        _, vm_3b = run_virtualized("three_body", FPVMConfig.seq_short())
        _, vm_lz = run_virtualized("lorenz", FPVMConfig.seq_short())
        def fcalls(vm):
            return vm.telemetry.fcall_traps + vm.telemetry.libm_calls

        assert fcalls(vm_3b) > fcalls(vm_lz)

    def test_three_body_has_corr_events(self):
        _, vm = run_virtualized("three_body", FPVMConfig.seq_short())
        assert vm.telemetry.corr_events > 0

    def test_double_pendulum_libm_heavy(self):
        _, vm = run_virtualized("double_pendulum", FPVMConfig.seq_short())
        assert vm.telemetry.libm_calls > 100

    def test_lorenz_generates_less_garbage_than_enzo(self):
        """§2.7: 'Lorenz generates less garbage than Enzo as its
        internal state is much smaller'."""
        _, vm_lz = run_virtualized("lorenz", FPVMConfig.seq_short(gc_threshold=256))
        _, vm_ez = run_virtualized("enzo", FPVMConfig.seq_short(gc_threshold=256))
        lz = vm_lz.telemetry.gc_objects_collected / max(vm_lz.telemetry.gc_runs, 1)
        ez = vm_ez.telemetry.gc_objects_collected / max(vm_ez.telemetry.gc_runs, 1)
        # Enzo holds far more live boxes (arrays) at collection time.
        assert vm_ez.allocator.live_count > vm_lz.allocator.live_count


class TestScaling:
    def test_lorenz_scale_parameter(self):
        small = run_native("lorenz", scale=50)
        big = run_native("lorenz", scale=200)
        assert big.instruction_count > 2 * small.instruction_count

    def test_lorenz_unroll_lengthens_sequences(self):
        """§6.3: 'loop unrolling ... will naturally lead to longer
        sequences'."""
        _, vm1 = run_virtualized("lorenz", FPVMConfig.seq_short(), scale=120, unroll=1)
        _, vm4 = run_virtualized("lorenz", FPVMConfig.seq_short(), scale=120, unroll=4)
        assert (
            vm4.telemetry.avg_sequence_length > vm1.telemetry.avg_sequence_length
        )

    def test_ffbench_requires_power_of_two(self):
        with pytest.raises(ValueError):
            build_program("ffbench", scale=12)
