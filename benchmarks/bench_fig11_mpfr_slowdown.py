"""Figure 11: application slowdown under MPFR (200-bit BigFloat).

Paper shape: absolute slowdowns comparable to or above Boxed IEEE
(MPFR itself is expensive), and all four configurations still order
NONE > SEQ/SHORT > SEQ_SHORT."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure11(benchmark, mpfr_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig11"].data, args=(mpfr_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig11", data)
    for w, cfgs in data.items():
        assert cfgs["SEQ_SHORT"] < cfgs["NONE"], w
