"""Figure 1: baseline per-instruction cost breakdown (Boxed IEEE, no
acceleration).  Paper shape: hw+kernel+ret dominate every bar at
~6000+ cycles/instruction; altmath is a small slice."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure1(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig01"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig01", data)
    publish_table(results_dir, "fig01_chart", data)
    for w, am in data.items():
        total = sum(am.values())
        assert total > 4000, (w, total)  # thousands of cycles/instr
        assert am["kernel"] > am["altmath"], w  # signal delivery dominates
