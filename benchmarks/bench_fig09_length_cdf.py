"""Figure 9: instruction sequence length distribution.

Paper shape: distributions vary widely; Lorenz has an extremely long
tail; most workloads are dominated by short sequences."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure9(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig09"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig09", data)
    max_len = {w: max(l for l, _ in series) for w, series in data.items()}
    # Distributions vary widely across workloads (the paper's point),
    # and Lorenz has a long tail.
    assert max(max_len.values()) > 2 * min(max_len.values())
    assert max_len["lorenz"] > 30
