"""Figure 2: trap short-circuiting reduces delivery ~8x.

The figure is a mechanism diagram; its quantitative content is the
delivery-path comparison: regular signal delivery + sigreturn
(~5600 cycles) vs custom delivery + iretq (~350+100 cycles)."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure2_short_circuit_reduction(benchmark, results_dir):
    table = benchmark.pedantic(TABLES["fig02"].data, rounds=1, iterations=1)
    publish_table(results_dir, "fig02", table)
    assert table.delegation_reduction > 6
