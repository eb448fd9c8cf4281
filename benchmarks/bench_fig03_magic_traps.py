"""Figure 3: magic traps vs int3 traps for memory-escape correctness.

Paper: the int3 path costs a hardware trap + SIGTRAP delivery +
sigreturn (~5980 cycles); the magic path is a double-indirect call
(~100 cycles incl. the trampoline's register save): 14-120x cheaper."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure3(benchmark, results_dir):
    costs = benchmark.pedantic(TABLES["fig03"].data, rounds=1, iterations=1)
    publish_table(results_dir, "fig03", costs)
    assert costs.reduction > 10
