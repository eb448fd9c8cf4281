"""§2.3 / §3 trap-machinery constants, measured from single-trap runs.

Paper values (Dell R6515, EPYC 7443P, Linux 5.15): hw ~380 cycles,
SIGFPE delivery ~3800, sigreturn ~1800, short-circuit delivery ~350
with an iretq-style return; hw+kern+ret drops 5980 -> ~760 (~8x).

The per-class table breaks the hardware dispatch column out by #XF
trap class on class-pure constant-operand kernels: denormal and
underflow dispatch carries the Wittmann et al. microcode-assist
surcharge the invalid/inexact-dominated §6 workloads never pay.
"""

from conftest import publish_table
from repro.harness.figures import TABLES
from repro.observability import TRAP_CLASSES


def test_trap_costs(benchmark, results_dir):
    table, rows = benchmark.pedantic(TABLES["trap_microbench"].data, rounds=1, iterations=1)
    publish_table(results_dir, "trap_microbench", (table, rows))
    assert abs(table.hw_trap - 380) < 25
    assert 6 < table.delegation_reduction < 20
    by_class = {r.trap_class: r for r in rows}
    assert set(by_class) == set(TRAP_CLASSES)
    for r in rows:
        assert r.traps > 0
        assert 2 < r.reduction < 20
    # the microcode-assist surcharge ordering (Wittmann et al. note):
    base = by_class["invalid"].hw_per_trap
    assert by_class["inexact"].hw_per_trap == base
    assert (by_class["denormal"].hw_per_trap
            > by_class["underflow"].hw_per_trap
            > by_class["overflow"].hw_per_trap
            > by_class["divzero"].hw_per_trap
            > base)
